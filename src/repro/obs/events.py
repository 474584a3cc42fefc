"""Opt-in buffered JSONL event emitter.

Every event is one JSON object per line with an ``ev`` type field.
The emitter is *buffered*: ``emit`` appends a dict to an in-memory
list (no I/O, no serialization on the hot path) and ``flush`` writes
the whole run in **one** ``O_APPEND`` ``write(2)`` call — so several
harness worker processes can share a single JSONL file without
interleaving each other's lines mid-event.

The knob lives on :class:`~repro.machine.config.MachineConfig`:

* ``obs_events=None`` (default) — off, zero allocations, zero cost;
* ``obs_events="path/to/run.jsonl"`` — the CPU creates (and owns)
  an :class:`EventLog` appending to that path;
* ``obs_events=EventLog(...)`` — a shared log the caller owns and
  flushes (useful for in-memory inspection in tests: a pathless
  ``EventLog()`` just accumulates ``events``).

Event vocabulary (see ``docs/OBSERVABILITY.md`` for the full field
schema): ``run_start`` (manifest), ``run_end`` (result statistics +
phase seconds), ``run_abort`` (trap/abort exits), ``sweep_summary``
(harness cache statistics),
``fuzz_run`` (one fuzzed program's verdict), ``fuzz_divergence``
(one oracle mismatch), ``fuzz_summary`` (per-shard totals) — the
fuzz events are emitted by ``python -m repro.fuzz`` shards and
rendered by ``python -m repro.obs.report fuzz``.

The service dispatcher (``repro.service``) adds ``job_dispatch``
(job → worker assignment, with attempt number), ``job_requeue``
(a crashed worker's job going back on a queue), ``worker_warm``
(per-completed-job warm/cold flag with wall seconds) and
``service_status`` (the final counter snapshot at shutdown) —
rendered by ``python -m repro.obs.report service``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional


class EventLog:
    """Buffered JSONL sink; see the module docstring."""

    __slots__ = ("path", "events")

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.events: List[dict] = []

    def emit(self, ev: str, **fields) -> None:
        """Buffer one event (no I/O until :meth:`flush`)."""
        record = {"ev": ev}
        record.update(fields)
        self.events.append(record)

    def emit_many(self, records) -> None:
        self.events.extend(records)

    def flush(self) -> None:
        """Append every buffered event to ``path`` in one write.

        A pathless log keeps its buffer (in-memory use); a pathed log
        clears the buffer only after the write succeeds.
        """
        if self.path is None or not self.events:
            return
        data = "".join(json.dumps(event, default=str) + "\n"
                       for event in self.events).encode("utf-8")
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self.events.clear()


def read_events(path: str) -> Iterator[dict]:
    """Yield every event of a JSONL file, skipping malformed lines.

    Tolerating a torn final line keeps the report CLI usable on a
    file taken from a run that died mid-write.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                continue


def split_runs(events) -> List[List[dict]]:
    """Group a flat event stream into per-run event lists.

    A run starts at ``run_start`` and collects everything until the
    next ``run_start``.  Events before the first ``run_start``
    (e.g. a bare ``sweep_summary``) form their own leading group.
    """
    runs: List[List[dict]] = []
    current: Optional[List[dict]] = None
    for event in events:
        if event.get("ev") == "run_start" or current is None:
            current = []
            runs.append(current)
        current.append(event)
    return runs


def run_label(run: List[dict]) -> str:
    """Human label of one run group (workload name when stamped)."""
    for event in run:
        if event.get("ev") == "run_start":
            manifest: Dict = event.get("manifest") or {}
            label = manifest.get("label") or ""
            engine = manifest.get("engine") or "?"
            mode = manifest.get("mode") or ""
            parts = [part for part in (label, engine, mode) if part]
            return "/".join(parts) if parts else "run"
    return "events"
