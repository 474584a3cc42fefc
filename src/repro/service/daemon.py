"""The service daemon: one warm fleet behind an ``AF_UNIX`` socket.

:class:`DaemonServer` wraps an in-process
:class:`~repro.service.dispatch.Service` with a
:class:`multiprocessing.connection.Listener` so *other* processes —
sweep CLIs, the fuzz harness, CI — can submit into the same
long-lived worker pool.  The rendezvous is a state directory
(default ``.repro-service/``) holding:

* ``socket`` — the ``AF_UNIX`` listener address;
* ``authkey`` — 16 random bytes (mode ``0600``) both sides feed the
  connection-level HMAC challenge, so only same-user processes that
  can read the file may connect;
* ``daemon.pid`` — pid + config, for ``status``/``stop`` and stale
  detection.

Each accepted connection gets a handler thread; frames are

* client → daemon: ``(kind, req_id, payload)`` with kind in
  ``submit`` / ``status`` / ``ping`` / ``drain`` / ``stop``;
* daemon → client: ``("ack", req_id, status, answer)`` per request
  and ``("result", token, status, payload)`` per submitted job as
  its future resolves (error payloads are ``(type_name, message)``
  pairs the client rebuilds into the local exception types).

``stop`` acks first, then drains the service and removes the state
files, so the requesting client sees a clean answer rather than a
dropped connection.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
from multiprocessing import connection as mpconnection
from typing import Optional

from repro.service.dispatch import Service, ServiceError


def _error_payload(exc: BaseException):
    return (type(exc).__name__, str(exc))


class DaemonServer:
    """Serve one :class:`Service` over a state-dir socket (see module)."""

    def __init__(self, state_dir: str, workers: int = 2,
                 store: Optional[str] = None,
                 context: Optional[str] = None,
                 obs: Optional[str] = None):
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.sock_path = os.path.join(state_dir, "socket")
        self.key_path = os.path.join(state_dir, "authkey")
        self.pid_path = os.path.join(state_dir, "daemon.pid")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)  # stale socket from a kill -9
        self.authkey = secrets.token_bytes(16)
        fd = os.open(self.key_path,
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.write(fd, self.authkey)
        finally:
            os.close(fd)
        self.service = Service(workers=workers, store=store or None,
                               context=context, obs=obs)
        self.listener = mpconnection.Listener(
            self.sock_path, family="AF_UNIX", authkey=self.authkey)
        with open(self.pid_path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "workers": workers,
                       "store": store, "socket": self.sock_path}, fh)
        self._stopping = threading.Event()

    def serve_forever(self) -> None:
        """Accept loop; returns after :meth:`stop` completes."""
        try:
            while not self._stopping.is_set():
                try:
                    conn = self.listener.accept()
                except mpconnection.AuthenticationError:
                    continue
                except OSError:
                    break  # listener torn down under us
                if self._stopping.is_set():
                    try:
                        conn.close()
                    except OSError:
                        pass
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name="repro-service-conn", daemon=True)
                thread.start()
        finally:
            self._cleanup()

    def stop(self) -> None:
        """Flag shutdown and wake the accept loop.

        Closing a listening socket does NOT interrupt a thread
        already blocked in ``accept(2)``, so after setting the flag
        we poke one throwaway authenticated connection through the
        socket; the loop sees the flag on wake-up and exits (the
        listener itself is closed by the cleanup path).
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            poke = mpconnection.Client(
                self.sock_path, family="AF_UNIX",
                authkey=self.authkey)
            poke.close()
        except (OSError, mpconnection.AuthenticationError,
                EOFError):
            pass  # accept already unblocked or listener gone

    def _cleanup(self) -> None:
        try:
            self.listener.close()
        except OSError:
            pass
        self.service.shutdown(drain=True)
        for path in (self.sock_path, self.key_path, self.pid_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- per-connection handler ---------------------------------------------

    def _serve_connection(self, conn) -> None:
        send_lock = threading.Lock()

        def send(frame) -> None:
            with send_lock:
                try:
                    conn.send(frame)
                except (OSError, ValueError):
                    pass  # client went away; futures still resolve

        def on_done(token):
            def callback(future):
                exc = future.exception()
                if exc is None:
                    send(("result", token, "ok", future.result()))
                else:
                    send(("result", token, "error",
                          _error_payload(exc)))
            return callback

        while True:
            try:
                kind, req_id, payload = conn.recv()
            except (EOFError, OSError):
                break
            try:
                if kind == "submit":
                    for (token, fn, arg, key, timeout) in payload:
                        try:
                            future = self.service.submit(
                                fn, arg, key=key, timeout=timeout)
                        except ServiceError as exc:
                            send(("result", token, "error",
                                  _error_payload(exc)))
                            continue
                        future.add_done_callback(on_done(token))
                    send(("ack", req_id, "ok", len(payload)))
                elif kind == "status":
                    send(("ack", req_id, "ok", self.service.status()))
                elif kind == "ping":
                    send(("ack", req_id, "ok", "pong"))
                elif kind == "drain":
                    self.service.drain()
                    send(("ack", req_id, "ok", None))
                elif kind == "stop":
                    send(("ack", req_id, "ok", None))
                    self.stop()
                    break
                else:
                    send(("ack", req_id, "error",
                          ("ServiceError",
                           "unknown request %r" % kind)))
            except Exception as exc:
                send(("ack", req_id, "error", _error_payload(exc)))
        try:
            conn.close()
        except OSError:
            pass
