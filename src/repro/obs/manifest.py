"""Run manifests: the exact configuration behind every number.

A manifest is a small JSON-safe dict attached to every
:class:`~repro.machine.cpu.RunResult` (``result.manifest``) and
emitted as the ``run_start`` event of an obs JSONL.  It answers the
question a perf archaeologist asks first: *what exactly ran* —
engine, safety mode, encoding, every knob, the full cache
geometry, the source tree's git sha and code digest, and the host
that executed it.

Host, git and code identity are computed once per process (the git
sha by reading ``.git/HEAD`` directly — no subprocess — and the code
digest by hashing the package sources, ~4 ms), so building a
manifest stays in the microsecond range and sweeps of thousands of
cells can afford one per cell.  The git sha names the commit; only
the code digest sees uncommitted edits.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import platform
import sys
from typing import Optional

_static: Optional[dict] = None


def _read_git_sha() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git tree.

    Walks up from this file looking for ``.git/HEAD`` and resolves
    one level of symbolic ref.  Never raises.
    """
    try:
        directory = os.path.dirname(os.path.abspath(__file__))
        for _ in range(8):
            head = os.path.join(directory, ".git", "HEAD")
            if os.path.isfile(head):
                with open(head) as fh:
                    ref = fh.read().strip()
                if not ref.startswith("ref:"):
                    return ref[:12] or None
                ref_path = os.path.join(directory, ".git",
                                        ref[4:].strip())
                if os.path.isfile(ref_path):
                    with open(ref_path) as fh:
                        return fh.read().strip()[:12] or None
                return None
            parent = os.path.dirname(directory)
            if parent == directory:
                break
            directory = parent
    except OSError:
        pass
    return None


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over the ``repro`` package's ``.py`` sources.

    Part of every run manifest and every harness cell key, so an
    entry written by different simulator code is a miss rather than a
    stale hit.  Computed once per process.
    """
    # imported here: the fuzz oracle imports this module but needs
    # OpenSSL's hashes only once a run asks for its manifest
    import hashlib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(os.path.join(dirpath, name)
                   for dirpath, _dirs, names in os.walk(root)
                   for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _static_identity() -> dict:
    """Process-constant manifest fields, computed once."""
    global _static
    if _static is None:
        _static = {
            "git_sha": _read_git_sha(),
            "code_digest": code_digest(),
            "host": platform.node(),
            "platform": platform.platform(),
            "python": "%d.%d.%d" % sys.version_info[:3],
        }
    return _static


def run_manifest(config, cache_params=None, label: str = "") -> dict:
    """Build the manifest for one run.

    ``config`` is a :class:`~repro.machine.config.MachineConfig`
    (duck-typed to keep this module import-light); ``cache_params``
    the :class:`~repro.caches.hierarchy.CacheParams` of the run's
    memory system, or ``None`` for functional runs.
    """
    mode = getattr(config.mode, "value", config.mode)
    factory = config.engine_factory
    manifest = {
        "label": label or getattr(config, "obs_label", ""),
        "engine": config.engine,
        "mode": str(mode),
        "encoding": config.encoding,
        "timing": config.timing,
        "check_uop": config.check_uop,
        "check_access_extent": config.check_access_extent,
        "temporal": config.temporal,
        "max_instructions": config.max_instructions,
        "engine_factory": (getattr(factory, "__name__",
                                   type(factory).__name__)
                           if factory is not None else None),
        "cache_geometry": (dataclasses.asdict(cache_params)
                           if cache_params is not None else None),
    }
    manifest.update(_static_identity())
    return manifest
