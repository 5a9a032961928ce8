"""Parallel simulation job service.

Turns every simulation and figure experiment into a declarative,
content-addressed job:

- :mod:`repro.service.jobs` — :class:`JobSpec` (identity + content hash),
  :class:`JobResult` / :class:`JobFailure` outcome records, job-kind
  handler registry.
- :mod:`repro.service.scheduler` — :class:`JobScheduler`: process-pool
  execution with per-job timeouts, retry-with-backoff, and crash-tolerant
  pool rebuilds.
- :mod:`repro.service.store` — :class:`ResultStore`: on-disk JSON cache
  keyed by content hash, invalidated by code fingerprint.
- :mod:`repro.service.journal` — :class:`JobJournal`: append-only JSONL
  lifecycle log (the observability/resume audit trail).
- :mod:`repro.service.fingerprint` — source-tree hashing for cache
  invalidation.
- :mod:`repro.service.handlers` — the built-in ``experiment`` and
  ``simulation`` job kinds.

Quickstart::

    from repro.service import JobScheduler, ResultStore, experiment_spec

    specs = [experiment_spec(n, quick=True) for n in ("fig5", "fig10")]
    report = JobScheduler(store=ResultStore()).run(specs)
    print(report.summary_line())
"""

from repro.service.fingerprint import code_fingerprint
from repro.service.handlers import (
    experiment_spec,
    prewarm_worker,
    run_experiment_job,
    run_simulation_job,
    simulation_spec,
)
from repro.service.jobs import (
    SPEC_VERSION,
    JobFailure,
    JobResult,
    JobSpec,
    JobTimeoutError,
    UnknownJobKindError,
    register_handler,
    resolve_handler,
    unregister_handler,
)
from repro.service.journal import JobJournal
from repro.service.scheduler import JobScheduler, SweepReport, run_jobs
from repro.service.singleflight import Flight, SingleFlight
from repro.service.store import (
    CachedResult,
    ResultStore,
    StoreStats,
    default_cache_dir,
    store_stats_payload,
)

__all__ = [
    "SPEC_VERSION",
    "CachedResult",
    "Flight",
    "JobFailure",
    "JobJournal",
    "JobResult",
    "JobScheduler",
    "JobSpec",
    "JobTimeoutError",
    "ResultStore",
    "SingleFlight",
    "StoreStats",
    "SweepReport",
    "UnknownJobKindError",
    "code_fingerprint",
    "default_cache_dir",
    "experiment_spec",
    "prewarm_worker",
    "register_handler",
    "resolve_handler",
    "run_experiment_job",
    "run_jobs",
    "run_simulation_job",
    "simulation_spec",
    "store_stats_payload",
    "unregister_handler",
]
