"""Daemon worker process: the long-lived half of the service.

A worker is one OS process that imports the simulator *once* and then
loops on its pipe: receive a job, run it, publish the result, report
back.  Everything expensive a per-invocation pool pays per sweep —
interpreter start, ``import repro``, MiniC compiles
(:data:`repro.harness.runner._program_cache`), generated probe
sources (per-geometry compiled by the fast memory model), block
fusion plans (the program-keyed ``blocks._plan_cache``) and compiled
fusers (``blocks._fuse_cache``) — stays resident here across
requests.  That residency is the service's whole point: the second
request for a workload skips compile and plan formation entirely,
which the per-job ``warm`` flag and the run's
``probe_compile``/``decode`` phase timers make observable.

Protocol (dispatcher → worker over a duplex pipe):

* ``(job_id, fn, arg, key)`` — run ``fn(arg)``.  ``fn`` must be an
  importable module-level callable (the same contract as
  ``ProcessPoolExecutor``); ``key`` is the job's content-hash store
  key or ``None``.
* ``None`` — graceful shutdown: finish nothing new, exit 0.

Worker → dispatcher: ``(job_id, status, payload, meta)`` where
``status`` is ``"ok"`` (payload = result) or ``"error"`` (payload =
the exception rendered as a string), and ``meta`` carries the warm
flag, wall seconds, and the resident program-cache size.  A worker
that *dies* instead of replying is detected by the dispatcher via
its process sentinel and the job is requeued.
"""

from __future__ import annotations

import time
from typing import Optional


def worker_main(wid: int, conn, store_dir: Optional[str]) -> None:
    """Worker process entry point (see module docstring)."""
    # import inside the worker so a spawn-context worker pays its
    # one-time import here, visibly, not lazily inside the first job
    from repro.harness import runner
    from repro.harness.parallel import ResultCache

    store = ResultCache(store_dir) if store_dir else None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        job_id, fn, arg, key = msg
        cached_before = len(runner._program_cache)
        t0 = time.perf_counter()
        try:
            result = fn(arg)
            status = "ok"
        except Exception as exc:
            result = "%s: %s" % (type(exc).__name__, exc)
            status = "error"
        meta = {
            # warm = this job compiled nothing new: every program it
            # needed was already resident from an earlier request
            "warm": len(runner._program_cache) == cached_before,
            "seconds": time.perf_counter() - t0,
            "programs_cached": len(runner._program_cache),
        }
        if status == "ok" and store is not None and key is not None:
            try:
                # concurrent publish is safe: tmp + atomic rename
                store.put(key, result)
            except Exception:
                pass  # publishing is best-effort; the reply stands
        try:
            conn.send((job_id, status, result, meta))
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result
            conn.send((job_id, "error",
                       "result not picklable: %s" % exc, meta))
    try:
        conn.close()
    except OSError:
        pass
