"""Simulation-as-a-service: persistent workers, async submission.

The public surface (stable; ``tests/service/test_public_api.py``
asserts it does not shrink):

* :func:`connect` / :class:`Client` — the submission API over a
  daemon socket;
* :class:`Service` / :class:`JobSpec` — the in-process dispatcher
  and its unit of work;
* the failure types :class:`ServiceError`, :class:`ServiceClosed`,
  :class:`JobFailed`, :class:`JobTimeout`.

The shared result store is the harness's own
:class:`~repro.harness.parallel.ResultCache`: ``Service(store=...)``
takes one or its directory, so the fleet and every sweep read and
publish the same entries.

See ``docs/SERVICE.md`` for architecture, the warm-cache contract,
and failure semantics; ``python -m repro.service`` for the daemon
CLI (``start`` / ``status`` / ``stop`` / ``bench``).
"""

from repro.service.client import STATE_DIR, Client, connect
from repro.service.dispatch import (JobFailed, JobSpec, JobTimeout,
                                    Service, ServiceClosed,
                                    ServiceError)

__all__ = [
    "Client",
    "connect",
    "Service",
    "JobSpec",
    "ServiceError",
    "ServiceClosed",
    "JobFailed",
    "JobTimeout",
    "STATE_DIR",
]
