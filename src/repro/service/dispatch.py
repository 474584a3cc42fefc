"""FIFO dispatcher over a pool of persistent daemon workers.

:class:`Service` owns N long-lived worker processes
(:func:`repro.service.worker.worker_main`) and distributes jobs to
them:

* **one FIFO queue** — :meth:`submit` appends, a crash requeue goes
  to the front, and an idle worker takes the head.  Every queue
  operation already runs under the one service lock, so per-worker
  queues (McKenney's partitioned ownership, *Is Parallel Programming
  Hard…*) would contend for nothing and only reorder jobs;
* **safe concurrent publication** — results are published to the
  shared :class:`~repro.harness.parallel.ResultCache` directory by
  the workers themselves via tmp-file + atomic rename; the
  dispatcher's read path takes no lock.

On top of that sits the submission API:

* :meth:`submit` → :class:`concurrent.futures.Future`, with
  **deduplication**: a job whose content-hash ``key`` matches one
  already queued or running returns the in-flight job's future
  instead of executing twice, and a key already published in the
  store resolves immediately without touching a worker;
* **robustness** — a worker that dies mid-job is detected via its
  process sentinel, the job is requeued (once, by default) onto a
  freshly spawned replacement, and a ``job_requeue`` obs event
  records it; a job that outlives its ``timeout`` fails with
  :class:`JobTimeout` and its worker is recycled; :meth:`drain`
  stops intake and waits for the queue to empty; :meth:`shutdown`
  drains (optionally) and retires the fleet.

A single dispatcher thread owns all worker pipes and the queue; public
methods only touch the job table under one lock and wake the
dispatcher through a self-pipe.  With event tracing configured
(``obs=`` path/EventLog, or the harness's ``REPRO_OBS`` env knob)
the dispatcher emits ``job_dispatch`` / ``job_requeue`` /
``worker_warm`` events and a final ``service_status`` snapshot —
rendered by ``python -m repro.obs.report service``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection as mpconnection
from typing import Deque, Dict, List, Optional

from repro.harness.parallel import OBS_ENV, ResultCache
from repro.obs.events import EventLog
from repro.service.worker import worker_main

#: dispatch attempts per job before a worker crash fails it for good
DEFAULT_MAX_ATTEMPTS = 2


class ServiceError(Exception):
    """Base class of every service-layer failure."""


class ServiceClosed(ServiceError):
    """Submission refused: the service is draining or shut down."""


class JobFailed(ServiceError):
    """The job raised in the worker, or its worker died repeatedly."""


class JobTimeout(ServiceError):
    """The job exceeded its requested wall-clock timeout."""


class JobSpec:
    """One unit of work: ``fn(arg)`` on some worker.

    ``fn`` must be an importable module-level callable and ``arg``
    one picklable argument (the ``map_jobs`` contract).  ``key`` is
    an optional content-hash identity (e.g.
    ``ResultCache.key_of(descriptor)``): jobs with equal keys
    deduplicate in flight and publish/serve through the shared
    store.  ``timeout`` is an optional per-job wall-clock budget in
    seconds.
    """

    __slots__ = ("fn", "arg", "key", "timeout")

    def __init__(self, fn, arg=None, key: Optional[str] = None,
                 timeout: Optional[float] = None):
        self.fn = fn
        self.arg = arg
        self.key = key
        self.timeout = timeout

    def __repr__(self):
        return ("JobSpec(%s, key=%s)"
                % (getattr(self.fn, "__name__", self.fn),
                   (self.key or "")[:12] or None))


class _Job:
    __slots__ = ("id", "spec", "future", "attempts", "deadline",
                 "timed_out")

    def __init__(self, job_id: int, spec: JobSpec, future: Future):
        self.id = job_id
        self.spec = spec
        self.future = future
        self.attempts = 0
        self.deadline: Optional[float] = None
        self.timed_out = False


class _Worker:
    __slots__ = ("wid", "process", "conn", "job_id", "jobs_done",
                 "warm_jobs", "stopping")

    def __init__(self, wid: int, process, conn):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.job_id: Optional[int] = None
        self.jobs_done = 0
        self.warm_jobs = 0
        self.stopping = False


class Service:
    """Persistent worker fleet + FIFO dispatcher (see module).

    ``store`` is a :class:`ResultCache`, a directory path, or
    ``None``; ``obs`` is an :class:`EventLog`, a JSONL path, or
    ``None`` (default: the harness's ``REPRO_OBS`` env knob);
    ``context`` picks the multiprocessing start method (default:
    ``fork`` where available — a spawn fleet pays full interpreter
    imports per worker, which is exactly what the warm-vs-cold bench
    measures).
    """

    def __init__(self, workers: int = 2, store=None, obs=None,
                 context: Optional[str] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        if workers < 1:
            raise ValueError("a service needs at least one worker")
        if isinstance(store, str):
            store = ResultCache(store)
        self.store: Optional[ResultCache] = store
        if obs is None:
            obs = os.environ.get(OBS_ENV) or None
        self._log = EventLog(obs) if isinstance(obs, str) else obs
        if context is None:
            context = ("fork" if "fork"
                       in multiprocessing.get_all_start_methods()
                       else "spawn")
        self._ctx = multiprocessing.get_context(context)
        self._max_attempts = max_attempts
        self._lock = threading.RLock()
        self._jobs: Dict[int, _Job] = {}
        #: job ids waiting for a worker, oldest first
        self._queue: Deque[int] = deque()
        self._inflight: Dict[str, int] = {}
        self._workers: Dict[int, _Worker] = {}
        self._next_job = itertools.count(1)
        self._next_wid = itertools.count(1)
        self._draining = False
        self._closed = False
        self.counters: Dict[str, int] = dict.fromkeys(
            ("submitted", "dispatched", "completed", "failed",
             "deduped", "store_hits", "requeued", "crashes",
             "timeouts"), 0)
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        for _ in range(workers):
            self._spawn_worker()
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-dispatch",
            daemon=True)
        self._thread.start()

    # -- submission API ------------------------------------------------------

    def submit(self, fn, arg=None, *, key: Optional[str] = None,
               timeout: Optional[float] = None) -> Future:
        """Queue one job; returns a future resolving to its result.

        ``fn`` may be a :class:`JobSpec` (then the other arguments
        are ignored).  Identical in-flight keys coalesce; keys
        already published in the store resolve without running.
        """
        spec = fn if isinstance(fn, JobSpec) else \
            JobSpec(fn, arg, key=key, timeout=timeout)
        with self._lock:
            if self._closed or self._draining:
                raise ServiceClosed(
                    "service is %s; no new submissions"
                    % ("closed" if self._closed else "draining"))
            self.counters["submitted"] += 1
            if spec.key is not None:
                inflight = self._inflight.get(spec.key)
                if inflight is not None:
                    # request batching/dedup: same cell already
                    # queued or running — share its future
                    self.counters["deduped"] += 1
                    return self._jobs[inflight].future
                if self.store is not None:
                    hit = self.store.get(spec.key)
                    if hit is not None:
                        self.counters["store_hits"] += 1
                        future: Future = Future()
                        future.set_result(hit)
                        return future
            job = _Job(next(self._next_job), spec, Future())
            self._jobs[job.id] = job
            if spec.key is not None:
                self._inflight[spec.key] = job.id
            self._queue.append(job.id)
        self._wake()
        return job.future

    def submit_many(self, specs) -> List[Future]:
        """Batch submission; one future per spec, order preserved."""
        return [self.submit(spec) for spec in specs]

    def map(self, fn, jobs, timeout: Optional[float] = None) -> List:
        """``map_jobs``-shaped blocking call: ``[fn(job) ...]``."""
        futures = [self.submit(fn, job, timeout=timeout)
                   for job in jobs]
        return [future.result() for future in futures]

    # -- lifecycle -----------------------------------------------------------

    def drain(self, poll: float = 0.01) -> None:
        """Stop intake and block until every accepted job finished."""
        with self._lock:
            self._draining = True
        self._wake()
        while True:
            with self._lock:
                if not self._jobs:
                    return
            time.sleep(poll)

    def shutdown(self, drain: bool = True,
                 timeout: float = 10.0) -> None:
        """Retire the fleet; with ``drain`` finish accepted work first."""
        if self._closed:
            return
        if drain:
            self.drain()
        with self._lock:
            self._closed = True
            self._draining = True
            # fail whatever drain=False left behind
            for job in self._jobs.values():
                if not job.future.done():
                    job.future.set_exception(
                        ServiceClosed("service shut down"))
            self._jobs.clear()
            self._queue.clear()
            self._inflight.clear()
        self._wake()
        self._thread.join(timeout)
        with self._lock:
            leftovers = list(self._workers.values())
            self._workers.clear()
        for worker in leftovers:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        if self._log is not None:
            self._log.emit("service_status", **self.status())
            self._log.flush()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))

    def status(self) -> dict:
        """Point-in-time snapshot: fleet, queue, counters, store."""
        with self._lock:
            workers = [{
                "wid": worker.wid,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "busy": worker.job_id is not None,
                "jobs_done": worker.jobs_done,
                "warm_jobs": worker.warm_jobs,
            } for worker in self._workers.values()]
            status = {
                "workers": workers,
                "queued": len(self._queue),
                "running": sum(1 for w in self._workers.values()
                               if w.job_id is not None),
                "inflight_keys": len(self._inflight),
                "counters": dict(self.counters),
                "draining": self._draining,
                "closed": self._closed,
            }
            if self.store is not None:
                status["store"] = dict(self.store.stats(),
                                       path=self.store.path,
                                       entries=len(self.store))
            return status

    # -- internals (dispatcher thread unless noted) --------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _emit(self, ev: str, **fields) -> None:
        if self._log is not None:
            self._log.emit(ev, **fields)

    def _spawn_worker(self) -> _Worker:
        wid = next(self._next_wid)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        store_dir = self.store.path if self.store is not None else None
        process = self._ctx.Process(
            target=worker_main, args=(wid, child_conn, store_dir),
            name="repro-worker-%d" % wid, daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(wid, process, parent_conn)
        self._workers[wid] = worker
        return worker

    def _dispatch_ready(self) -> None:
        for worker in list(self._workers.values()):
            if not self._queue:
                return
            if worker.job_id is not None or worker.stopping:
                continue
            job_id = self._queue.popleft()
            job = self._jobs.get(job_id)
            if job is None:
                continue
            job.attempts += 1
            job.deadline = (time.monotonic() + job.spec.timeout
                            if job.spec.timeout else None)
            worker.job_id = job_id
            self.counters["dispatched"] += 1
            self._emit("job_dispatch", job=job_id, worker=worker.wid,
                       attempt=job.attempts,
                       key=(job.spec.key or "")[:16] or None)
            try:
                worker.conn.send((job_id, job.spec.fn, job.spec.arg,
                                  job.spec.key))
            except (OSError, ValueError):
                self._on_worker_death(worker)

    def _on_conn_ready(self, worker: _Worker) -> None:
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(worker)
            return
        job_id, status, payload, meta = msg
        worker.job_id = None
        worker.jobs_done += 1
        if meta.get("warm"):
            worker.warm_jobs += 1
        self._emit("worker_warm", worker=worker.wid, job=job_id,
                   warm=bool(meta.get("warm")),
                   seconds=meta.get("seconds"),
                   programs_cached=meta.get("programs_cached"))
        job = self._jobs.pop(job_id, None)
        if job is None:
            return  # timed out (already failed) or cancelled
        if job.spec.key is not None:
            self._inflight.pop(job.spec.key, None)
        if status == "ok":
            self.counters["completed"] += 1
            job.future.set_result(payload)
        else:
            self.counters["failed"] += 1
            job.future.set_exception(JobFailed(str(payload)))

    def _on_worker_death(self, worker: _Worker) -> None:
        if self._workers.pop(worker.wid, None) is None:
            return  # already handled via the other waitable
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(0.1)
        replacement = (self._spawn_worker()
                       if not self._closed else None)
        job = (self._jobs.get(worker.job_id)
               if worker.job_id is not None else None)
        if job is None or job.timed_out:
            if worker.job_id is not None:
                self._jobs.pop(worker.job_id, None)
            return
        self.counters["crashes"] += 1
        exitcode = worker.process.exitcode
        if job.attempts >= self._max_attempts or replacement is None:
            self._jobs.pop(job.id, None)
            if job.spec.key is not None:
                self._inflight.pop(job.spec.key, None)
            self.counters["failed"] += 1
            job.future.set_exception(JobFailed(
                "worker died (exit %s) running job %d after %d "
                "attempt(s)" % (exitcode, job.id, job.attempts)))
        else:
            self.counters["requeued"] += 1
            self._emit("job_requeue", job=job.id, reason="crash",
                       worker=worker.wid, exitcode=exitcode,
                       attempt=job.attempts)
            self._queue.appendleft(job.id)

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.job_id is None:
                continue
            job = self._jobs.get(worker.job_id)
            if (job is None or job.deadline is None
                    or now < job.deadline or job.timed_out):
                continue
            job.timed_out = True
            self.counters["timeouts"] += 1
            self.counters["failed"] += 1
            self._jobs.pop(job.id, None)
            if job.spec.key is not None:
                self._inflight.pop(job.spec.key, None)
            job.future.set_exception(JobTimeout(
                "job %d exceeded its %.1fs timeout"
                % (job.id, job.spec.timeout)))
            # recycle the stuck worker; its sentinel resolves below
            worker.process.terminate()

    def _shutdown_idle_workers(self) -> None:
        for worker in list(self._workers.values()):
            if worker.stopping:
                continue
            if worker.job_id is not None:
                # its job was cancelled by shutdown(drain=False)
                if worker.job_id not in self._jobs:
                    worker.process.terminate()
                    worker.stopping = True
                continue
            worker.stopping = True
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                self._on_worker_death(worker)

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    self._shutdown_idle_workers()
                    if not self._workers:
                        break
                else:
                    self._dispatch_ready()
                waitables: List = [self._wake_r]
                by_conn: Dict = {}
                by_sentinel: Dict = {}
                deadline = None
                for worker in self._workers.values():
                    by_conn[worker.conn] = worker
                    by_sentinel[worker.process.sentinel] = worker
                    waitables.append(worker.conn)
                    waitables.append(worker.process.sentinel)
                    if worker.job_id is not None:
                        job = self._jobs.get(worker.job_id)
                        if job is not None and job.deadline is not None:
                            deadline = (job.deadline if deadline is None
                                        else min(deadline, job.deadline))
                if self._log is not None:
                    self._log.flush()
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            try:
                ready = mpconnection.wait(waitables, timeout)
            except OSError:
                ready = []
            with self._lock:
                if self._wake_r in ready:
                    try:
                        while os.read(self._wake_r, 4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                for obj in ready:
                    worker = by_conn.get(obj)
                    if (worker is not None
                            and worker.wid in self._workers):
                        self._on_conn_ready(worker)
                for obj in ready:
                    worker = by_sentinel.get(obj)
                    if (worker is not None
                            and worker.wid in self._workers):
                        self._on_worker_death(worker)
                self._check_timeouts()
        with self._lock:
            if self._log is not None:
                self._log.flush()
