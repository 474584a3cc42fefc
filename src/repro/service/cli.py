"""``python -m repro.service`` — manage the simulation daemon.

Commands::

    start   spawn a background daemon (or --foreground) and wait
            until it answers ping
    status  print fleet/queue/counter snapshot from the daemon
    stop    drain the fleet and shut the daemon down
    bench   submit the timed Olden sweep twice through the daemon
            and print the cold vs. warm seconds
    serve   run the accept loop in *this* process (what a
            background `start` execs; also useful under systemd)

State lives in ``--state-dir`` (default ``.repro-service/``):
socket, authkey, pidfile, and the background daemon's log.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from repro.service.client import STATE_DIR, ServiceError, connect, \
    state_info
from repro.service.daemon import DaemonServer


def _wait_for_daemon(state_dir: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    last: Exception = ServiceError("daemon never came up")
    while time.monotonic() < deadline:
        try:
            with connect(state_dir) as client:
                if client.ping():
                    return
        except (ServiceError, OSError) as exc:
            last = exc
        time.sleep(0.1)
    raise SystemExit("service daemon did not come up: %s" % last)


def cmd_start(args) -> int:
    info = state_info(args.state_dir)
    if os.path.exists(os.path.join(args.state_dir, "socket")):
        try:
            with connect(args.state_dir) as client:
                if client.ping():
                    print("daemon already running (pid %s)"
                          % info.get("pid"))
                    return 0
        except (ServiceError, OSError):
            pass  # stale state dir; start() will reclaim it
    store = None if args.store == "none" else args.store
    if args.foreground:
        server = DaemonServer(args.state_dir, workers=args.workers,
                              store=store, obs=args.obs)
        print("serving on %s with %d worker(s)"
              % (server.sock_path, args.workers))
        server.serve_forever()
        return 0
    os.makedirs(args.state_dir, exist_ok=True)
    log_path = os.path.join(args.state_dir, "daemon.log")
    cmd = [sys.executable, "-m", "repro.service",
           "--state-dir", args.state_dir, "serve",
           "--workers", str(args.workers),
           "--store", args.store]
    if args.obs:
        cmd += ["--obs", args.obs]
    # the child must find `repro` the same way this process did,
    # even when it came from sys.path rather than an install
    import repro
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + os.pathsep + \
        env.get("PYTHONPATH", "") if env.get("PYTHONPATH") \
        else pkg_root
    with open(log_path, "ab") as log:
        subprocess.Popen(cmd, stdout=log, stderr=log, env=env,
                         start_new_session=True)
    _wait_for_daemon(args.state_dir)
    print("daemon started: %d worker(s), store=%s, log=%s"
          % (args.workers, store or "disabled", log_path))
    return 0


def cmd_serve(args) -> int:
    store = None if args.store == "none" else args.store
    server = DaemonServer(args.state_dir, workers=args.workers,
                          store=store, obs=args.obs)
    server.serve_forever()
    return 0


def cmd_status(args) -> int:
    try:
        with connect(args.state_dir) as client:
            status = client.status()
    except (ServiceError, OSError) as exc:
        print("no daemon reachable in %r: %s" % (args.state_dir, exc))
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True,
                         default=str))
        return 0
    counters = status.get("counters", {})
    print("workers (%d):" % len(status.get("workers", ())))
    for worker in status.get("workers", ()):
        print("  w%-3s pid=%-8s %-5s jobs=%-5d warm=%d"
              % (worker["wid"], worker["pid"],
                 "busy" if worker["busy"] else "idle",
                 worker["jobs_done"], worker["warm_jobs"]))
    print("queued=%d running=%d inflight_keys=%d"
          % (status.get("queued", 0), status.get("running", 0),
             status.get("inflight_keys", 0)))
    print("counters: " + "  ".join(
        "%s=%d" % (name, counters[name])
        for name in sorted(counters)))
    store = status.get("store")
    if store:
        print("store: %s entries=%s hits=%s misses=%s corrupt=%s"
              % (store.get("path"), store.get("entries"),
                 store.get("hits"), store.get("misses"),
                 store.get("corrupt")))
    return 0


def cmd_stop(args) -> int:
    try:
        with connect(args.state_dir) as client:
            client.stop()
    except (ServiceError, OSError) as exc:
        print("no daemon reachable in %r: %s" % (args.state_dir, exc))
        return 1
    # the pidfile is the last thing the daemon's cleanup removes,
    # so its disappearance means the whole rendezvous is gone
    deadline = time.monotonic() + 30.0
    pidfile = os.path.join(args.state_dir, "daemon.pid")
    while time.monotonic() < deadline and os.path.exists(pidfile):
        time.sleep(0.1)
    print("daemon stopped")
    return 0


def cmd_bench(args) -> int:
    from repro.harness.parallel import run_cell
    from repro.harness.runner import WORKLOADS

    # keyless submits bypass the store short-circuit, so the second
    # pass measures warm *workers*, not cache hits
    jobs = [(name, kind, True, args.engine)
            for name in sorted(WORKLOADS)
            for kind in ("base", "intern11")]
    try:
        with connect(args.state_dir) as client:
            t0 = time.perf_counter()
            client.map(run_cell, jobs)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            client.map(run_cell, jobs)
            warm = time.perf_counter() - t0
    except (ServiceError, OSError) as exc:
        print("no daemon reachable in %r: %s" % (args.state_dir, exc))
        return 1
    ratio = cold / warm if warm > 0 else float("inf")
    print("first pass:  %.3fs  (%d cells)" % (cold, len(jobs)))
    print("second pass: %.3fs  (warm caches)" % warm)
    print("warm speedup: %.2fx" % ratio)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="manage the simulation service daemon")
    parser.add_argument("--state-dir", default=STATE_DIR,
                        help="rendezvous directory (default %s)"
                        % STATE_DIR)
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="launch the daemon")
    serve = sub.add_parser("serve",
                           help="run the accept loop in this process")
    for sp in (start, serve):
        sp.add_argument("--workers", type=int, default=2)
        sp.add_argument("--store", default=".repro-cache",
                        help="result store dir, or 'none' to disable")
        sp.add_argument("--obs", default=None,
                        help="append service events to this JSONL")
    start.add_argument("--foreground", action="store_true",
                       help="serve in this process instead of forking")
    start.set_defaults(func=cmd_start)
    serve.set_defaults(func=cmd_serve)

    status = sub.add_parser("status", help="query the daemon")
    status.add_argument("--json", action="store_true")
    status.set_defaults(func=cmd_status)

    stop = sub.add_parser("stop", help="drain and stop the daemon")
    stop.set_defaults(func=cmd_stop)

    bench = sub.add_parser(
        "bench", help="time a cold-then-warm Olden sweep")
    bench.add_argument("--engine", default="blocks")
    bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
