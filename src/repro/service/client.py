"""Client-side API of the simulation service's daemon.

:func:`connect` returns a :class:`Client` whose
``submit``/``submit_many``/``map``/``status``/``drain``/``stop``
mirror the in-process :class:`~repro.service.dispatch.Service`, which
in-process callers use directly.  Calls travel over the daemon's
``AF_UNIX`` socket (:mod:`multiprocessing.connection`,
HMAC-authenticated by the state dir's ``authkey`` file), so any
process on the machine can feed the one warm fleet that
``python -m repro.service start`` left running.

Futures are real :class:`concurrent.futures.Future` objects: the
client registers each future under a token *before* the request
leaves the socket, so a result frame can never race its own
registration.  Failures come back as the same exception types
:class:`~repro.service.dispatch.Service` raises (:class:`JobFailed`,
:class:`JobTimeout`, :class:`ServiceClosed`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from concurrent.futures import Future
from multiprocessing import connection as mpconnection
from typing import Dict, List, Optional

from repro.service.dispatch import (JobFailed, JobSpec, JobTimeout,
                                    ServiceClosed, ServiceError)

#: default on-disk rendezvous directory for a daemon (socket, authkey, pid)
STATE_DIR = ".repro-service"

_ERRORS = {"JobFailed": JobFailed, "JobTimeout": JobTimeout,
           "ServiceClosed": ServiceClosed, "ServiceError": ServiceError}


def _rebuild_error(name: str, message: str) -> ServiceError:
    return _ERRORS.get(name, ServiceError)(message)


class Client:
    """Submission API over a daemon's socket (see :func:`connect`)."""

    def __init__(self, address: str, authkey: bytes):
        self._futures: Dict[int, Future] = {}
        self._acks: Dict[int, list] = {}
        self._ack_ready: Dict[int, threading.Event] = {}
        self._next_token = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        self._conn = mpconnection.Client(
            address, family="AF_UNIX", authkey=authkey)
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-service-client",
            daemon=True)
        self._reader.start()

    # -- submission ----------------------------------------------------------

    def submit(self, fn, arg=None, *, key: Optional[str] = None,
               timeout: Optional[float] = None) -> Future:
        spec = fn if isinstance(fn, JobSpec) else \
            JobSpec(fn, arg, key=key, timeout=timeout)
        return self.submit_many([spec])[0]

    def submit_many(self, specs) -> List[Future]:
        specs = [spec if isinstance(spec, JobSpec) else JobSpec(*spec)
                 for spec in specs]
        with self._lock:
            if self._closed:
                raise ServiceClosed("client is closed")
            batch = []
            futures = []
            for spec in specs:
                token = next(self._next_token)
                future: Future = Future()
                # register *before* sending: the daemon may answer
                # a result frame before we even see the ack
                self._futures[token] = future
                futures.append(future)
                batch.append((token, spec.fn, spec.arg, spec.key,
                              spec.timeout))
        self._request("submit", batch)
        return futures

    def map(self, fn, jobs, timeout: Optional[float] = None) -> List:
        """``map_jobs``-shaped blocking call: ``[fn(job) ...]``."""
        futures = [self.submit(fn, job, timeout=timeout)
                   for job in jobs]
        return [future.result() for future in futures]

    # -- control -------------------------------------------------------------

    def status(self) -> dict:
        return self._request("status", None)

    def ping(self) -> bool:
        return self._request("ping", None) == "pong"

    def drain(self) -> None:
        self._request("drain", None)

    def stop(self) -> None:
        """Ask the daemon to drain and exit."""
        self._request("stop", None)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # the reader owns the socket: closing it here while the reader
        # blocks in recv() would free the fd for reuse by the next
        # connection and desynchronize its stream, so just flag and
        # wait for the reader's poll loop to exit
        self._reader.join(5.0)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- socket plumbing -----------------------------------------------------

    def _request(self, kind: str, payload):
        with self._lock:
            req_id = next(self._next_token)
            event = threading.Event()
            self._ack_ready[req_id] = event
            try:
                self._conn.send((kind, req_id, payload))
            except (OSError, ValueError) as exc:
                self._ack_ready.pop(req_id, None)
                raise ServiceError(
                    "daemon connection lost: %s" % exc) from exc
        if not event.wait(30.0):
            self._ack_ready.pop(req_id, None)
            raise ServiceError("daemon did not answer %r" % kind)
        status, answer = self._acks.pop(req_id)
        if status == "error":
            raise _rebuild_error(*answer)
        return answer

    def _read_loop(self) -> None:
        while True:
            try:
                if not self._conn.poll(0.2):
                    if self._closed:
                        break
                    continue
                msg = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "ack":
                _, req_id, status, answer = msg
                event = self._ack_ready.pop(req_id, None)
                if event is not None:
                    self._acks[req_id] = (status, answer)
                    event.set()
            elif kind == "result":
                _, token, status, payload = msg
                future = self._futures.pop(token, None)
                if future is None or future.done():
                    continue
                if status == "ok":
                    future.set_result(payload)
                else:
                    future.set_exception(_rebuild_error(*payload))
        try:
            self._conn.close()
        except OSError:
            pass
        # connection gone: fail everything still pending
        with self._lock:
            futures = list(self._futures.values())
            self._futures.clear()
            events = list(self._ack_ready.items())
            self._ack_ready.clear()
        for future in futures:
            if not future.done():
                future.set_exception(
                    ServiceClosed("daemon connection closed"))
        for req_id, event in events:
            self._acks[req_id] = (
                "error", ("ServiceClosed", "daemon connection closed"))
            event.set()


def connect(state_dir: str = STATE_DIR) -> Client:
    """Connect to the daemon rendezvoused in ``state_dir``.

    ``python -m repro.service start`` leaves ``socket`` and
    ``authkey`` files there; raises :class:`ServiceError` when no
    daemon is (or was) running.
    """
    sock = os.path.join(state_dir, "socket")
    keyfile = os.path.join(state_dir, "authkey")
    if not os.path.exists(sock) or not os.path.exists(keyfile):
        raise ServiceError(
            "no service daemon found in %r (run: python -m "
            "repro.service start)" % state_dir)
    with open(keyfile, "rb") as fh:
        authkey = fh.read()
    return Client(address=sock, authkey=authkey)


def state_info(state_dir: str = STATE_DIR) -> dict:
    """Best-effort description of a state dir (for ``status`` CLI)."""
    info = {"state_dir": state_dir,
            "socket": os.path.join(state_dir, "socket")}
    pidfile = os.path.join(state_dir, "daemon.pid")
    try:
        with open(pidfile, "r", encoding="utf-8") as fh:
            info["pid"] = json.load(fh)["pid"]
    except (OSError, ValueError, KeyError):
        info["pid"] = None
    return info
