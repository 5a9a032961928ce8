"""Process-pool job scheduler with caching, retries, and graceful failure.

The :class:`JobScheduler` turns a list of :class:`~repro.service.jobs.JobSpec`
into a :class:`SweepReport`:

1. **Cache check** — specs whose content key is already in the
   :class:`~repro.service.store.ResultStore` (with a matching code
   fingerprint) are served without running anything; a killed sweep
   therefore resumes exactly where it stopped.
2. **Execution** — remaining jobs run on a ``concurrent.futures``
   process pool (fork start method where available, so runtime-registered
   job kinds work in workers). Per-job timeouts are enforced *inside* the
   worker via ``SIGALRM``, which frees the pool slot immediately and
   never breaks the pool.
3. **Degradation** — a handler exception or timeout consumes one attempt
   and is retried with exponential backoff up to ``spec.max_retries``;
   a worker process that dies outright (segfault, ``os._exit``) breaks
   the pool, which the scheduler rebuilds. Every terminal failure becomes
   a structured :class:`~repro.service.jobs.JobFailure` record — one bad
   job never kills the sweep.

Crash attribution: ``concurrent.futures`` cannot say *which* job killed
a broken pool, so workers touch a ``<key>.a<attempt>.started`` marker in
a per-run scratch directory on entry. After a break, jobs that never
started are simply re-queued (no attempt consumed), while every
started-but-unresolved job is **quarantined**: re-run alone in a
single-worker pool, where a repeat crash is unambiguously its own doing
(→ ``JobFailure(reason="crash")`` once retries are exhausted) and an
innocent bystander of someone else's crash completes normally.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.tracer import get_tracer
from repro.service.jobs import (
    JobFailure,
    JobResult,
    JobSpec,
    JobTimeoutError,
    resolve_handler,
)
from repro.service.journal import JobJournal
from repro.service.singleflight import Flight, SingleFlight
from repro.service.store import ResultStore
from repro.workloads.trace_store import TraceDir, disk_tier, set_disk_tier

#: Process-wide single-flight group: concurrent schedulers (threads of the
#: HTTP service, parallel batch invocations) coalesce identical specs on
#: their content key, so a job racing its twin executes exactly once.
_SINGLE_FLIGHT = SingleFlight()

#: First-retry backoff; attempt ``n`` waits ``backoff * 2**(n-1)`` seconds.
DEFAULT_BACKOFF_S = 0.05

#: Poll interval of the dispatch loop (s).
_TICK_S = 0.02


def _worker_run(
    spec_dict: Dict[str, Any],
    attempt: int = 1,
    scratch_dir: Optional[str] = None,
    collect_telemetry: bool = False,
) -> Dict[str, Any]:
    """Execute one job attempt (module-level: must be picklable).

    Runs in a pool worker (or inline in serial mode). Arms a ``SIGALRM``
    timer for the spec's timeout so a hung job raises
    :class:`JobTimeoutError` instead of wedging its pool slot forever.

    ``collect_telemetry`` is set on *pooled* attempts only: the worker
    flushes its process-local telemetry registry deltas into the result
    dict, and the parent merges them into its own series — the
    worker→parent half of the ``GET /metrics`` pipe. Serial attempts
    record straight into the parent registry, so flushing there would
    double-count.
    """
    spec = JobSpec.from_dict(spec_dict)
    if scratch_dir:
        # Start marker: lets the parent attribute pool breakage to jobs
        # that actually began executing.
        marker = Path(scratch_dir) / f"{spec.key}.a{attempt}.started"
        try:
            marker.touch()
        except OSError:
            pass

    handler = resolve_handler(spec.kind)
    use_alarm = (
        spec.timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    previous = None
    if use_alarm:
        def _on_alarm(_signum, _frame):
            raise JobTimeoutError(
                f"job {spec.name!r} exceeded its {spec.timeout_s:g}s timeout"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(spec.timeout_s))
    start = time.perf_counter()
    try:
        payload = handler(spec)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise TypeError(
            f"job handler for kind {spec.kind!r} must return a dict, "
            f"got {type(payload).__name__}"
        )
    out = {
        "payload": payload,
        "elapsed_s": time.perf_counter() - start,
        "pid": os.getpid(),
    }
    if collect_telemetry:
        from repro.telemetry import get_registry

        deltas = get_registry().flush_deltas()
        if deltas is not None:
            out["telemetry"] = deltas
    return out


@dataclass
class SweepReport:
    """Outcome of one :meth:`JobScheduler.run` call."""

    results: Dict[str, JobResult] = field(default_factory=dict)
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cache_hits: int = 0
    executed: int = 0
    #: Jobs served by a concurrent execution in another scheduler
    #: (single-flight followers) — counted in neither ``cache_hits``
    #: nor ``executed``.
    coalesced: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def result_for(self, spec: JobSpec) -> Optional[JobResult]:
        return self.results.get(spec.key)

    def failure_for(self, spec: JobSpec) -> Optional[JobFailure]:
        return self.failures.get(spec.key)

    def summary_line(self) -> str:
        coalesced = f", {self.coalesced} coalesced" if self.coalesced else ""
        return (
            f"{len(self.results)} ok ({self.cache_hits} cached, "
            f"{self.executed} executed{coalesced}), "
            f"{len(self.failures)} failed in {self.elapsed_s:.1f} s"
        )


def _init_pool_worker(
    trace_dir: Optional[TraceDir], initializer: Optional[Any]
) -> None:
    """Pool-worker initializer: back the trace store with the
    scheduler's trace directory, then run the caller's initializer."""
    set_disk_tier(trace_dir)
    if initializer is not None:
        initializer()


class JobScheduler:
    """Runs job specs over a process pool with caching and retries.

    Parameters
    ----------
    store:
        Result cache; ``None`` disables caching entirely.
    journal:
        Lifecycle event log; ``None`` disables journaling.
    max_workers:
        Pool size (default: ``min(os.cpu_count(), job count)``).
    serial:
        Execute in-process instead of a pool (deterministic ordering,
        easier debugging; timeouts still enforced via ``SIGALRM``).
    use_cache:
        Set ``False`` to force re-execution while still writing fresh
        results back to the store.
    backoff_s:
        Base of the exponential retry backoff.
    worker_initializer:
        Optional zero-argument callable run once in every pool worker
        (and, under a fork start method, once in the parent before the
        pool is created, so forked workers inherit any warmed
        process-level caches — e.g.
        :func:`repro.service.handlers.prewarm_worker`, which assembles
        the shared thermal operators). Must be picklable
        (module-level) for spawn-based pools.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        journal: Optional[JobJournal] = None,
        max_workers: Optional[int] = None,
        serial: bool = False,
        use_cache: bool = True,
        backoff_s: float = DEFAULT_BACKOFF_S,
        mp_start_method: Optional[str] = None,
        worker_initializer: Optional[Any] = None,
        single_flight: bool = True,
    ) -> None:
        self.store = store
        self.journal = journal
        self.max_workers = max_workers
        self.serial = serial
        self.use_cache = use_cache
        self.backoff_s = backoff_s
        self.mp_start_method = mp_start_method
        self.worker_initializer = worker_initializer
        self.single_flight = single_flight
        # queued_at[key] = perf_counter at submission; lets completion
        # spans cover the full queue→start→done lifecycle.
        self._queued_at: Dict[str, float] = {}
        # Keys this run leads in the process-wide single-flight group;
        # each must be published exactly once (outcome or abort).
        self._claimed: set = set()

    # -- journal helper ---------------------------------------------------

    def _log(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    # -- fleet metrics -----------------------------------------------------

    @staticmethod
    def _job_metric(
        status: str, spec: JobSpec, elapsed_s: Optional[float] = None
    ) -> None:
        """One bump per job outcome into the process-wide registry."""
        from repro.telemetry import get_registry

        reg = get_registry()
        reg.counter(
            "repro_jobs_total", "Job outcomes by kind and status",
            ("kind", "status"),
        ).labels(kind=spec.kind, status=status).inc()
        if elapsed_s is not None:
            reg.histogram(
                "repro_job_seconds", "Job handler latency", ("kind",),
            ).labels(kind=spec.kind).observe(elapsed_s)

    # -- public API -------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> SweepReport:
        """Execute ``specs`` (deduplicated by content key) to completion."""
        t0 = time.perf_counter()
        tracer = get_tracer()
        report = SweepReport()

        unique: List[JobSpec] = []
        seen: set = set()
        for spec in specs:
            if spec.key in seen:
                continue
            seen.add(spec.key)
            unique.append(spec)

        self._log(
            "sweep_start",
            jobs=len(unique),
            serial=self.serial,
            max_workers=self.max_workers,
        )

        pending: List[JobSpec] = []
        for spec in unique:
            hit = self.store.get(spec) if (self.store and self.use_cache) else None
            if hit is not None:
                report.results[spec.key] = JobResult(
                    key=spec.key,
                    name=spec.name,
                    payload=hit.payload,
                    elapsed_s=hit.elapsed_s,
                    attempts=0,
                    cached=True,
                )
                report.cache_hits += 1
                self._job_metric("cache_hit", spec)
                self._log("cache_hit", key=spec.key, name=spec.name)
                tracer.instant(
                    "scheduler.cache_hit", cat="scheduler", job=spec.name
                )
            else:
                pending.append(spec)
                self._queued_at[spec.key] = time.perf_counter()
                self._log("submitted", key=spec.key, name=spec.name)

        if pending:
            leaders: List[JobSpec] = []
            followers: List[Tuple[JobSpec, Flight]] = []
            if self.single_flight:
                for spec in pending:
                    flight = _SINGLE_FLIGHT.claim(spec.key)
                    if flight is None:
                        self._claimed.add(spec.key)
                        leaders.append(spec)
                    else:
                        followers.append((spec, flight))
                        self._job_metric("coalesced", spec)
                        self._log("coalesced", key=spec.key, name=spec.name)
                        tracer.instant(
                            "scheduler.coalesced", cat="scheduler", job=spec.name
                        )
            else:
                leaders = list(pending)
            try:
                if leaders:
                    if self.serial:
                        self._run_serial(leaders, report)
                    else:
                        self._run_pool(leaders, report)
            finally:
                # A leader key still claimed here means we aborted before
                # recording an outcome (interrupt, internal error): wake
                # followers with an abort signal so they re-claim instead
                # of hanging on a flight nobody will resolve.
                for key in list(self._claimed):
                    _SINGLE_FLIGHT.publish(key, None)
                    self._claimed.discard(key)
            self._resolve_followers(followers, report)

        report.elapsed_s = time.perf_counter() - t0
        self._log(
            "sweep_end",
            ok=len(report.results),
            cached=report.cache_hits,
            executed=report.executed,
            failed=len(report.failures),
            elapsed_s=report.elapsed_s,
        )
        tracer.complete(
            "scheduler.sweep", t0, time.perf_counter(), cat="scheduler",
            jobs=len(unique), cached=report.cache_hits,
            executed=report.executed, failed=len(report.failures),
        )
        return report

    # -- single-flight ----------------------------------------------------

    def _publish(self, key: str, outcome: Any) -> None:
        """Resolve our single-flight claim on ``key`` (idempotent)."""
        if key in self._claimed:
            _SINGLE_FLIGHT.publish(key, outcome)
            self._claimed.discard(key)

    def _resolve_followers(
        self,
        followers: Sequence[Tuple[JobSpec, Flight]],
        report: SweepReport,
    ) -> None:
        """Adopt each concurrent leader's outcome (or run ourselves if it
        aborted without one)."""
        from dataclasses import replace

        for spec, flight in followers:
            while True:
                outcome = flight.wait()
                if isinstance(outcome, JobResult):
                    report.results[spec.key] = replace(outcome, coalesced=True)
                    report.coalesced += 1
                    break
                if isinstance(outcome, JobFailure):
                    report.failures[spec.key] = outcome
                    report.coalesced += 1
                    break
                # Leader aborted: try to take over; if yet another thread
                # beat us to the claim, wait on its flight instead.
                flight = _SINGLE_FLIGHT.claim(spec.key)
                if flight is None:
                    self._claimed.add(spec.key)
                    try:
                        self._run_serial([spec], report)
                    finally:
                        self._publish(spec.key, None)
                    break

    # -- shared bookkeeping -----------------------------------------------

    def _record_success(
        self, report: SweepReport, spec: JobSpec, out: Dict[str, Any], attempt: int
    ) -> None:
        result = JobResult(
            key=spec.key,
            name=spec.name,
            payload=out["payload"],
            elapsed_s=out["elapsed_s"],
            attempts=attempt,
            cached=False,
            worker_pid=out.get("pid"),
        )
        report.results[spec.key] = result
        report.executed += 1
        deltas = out.get("telemetry")
        if deltas is not None:
            # Worker→parent pipe: fold the worker's registry deltas into
            # the parent's process-wide series and journal the flush.
            from repro.telemetry import get_registry

            try:
                get_registry().merge(deltas)
                self._log(
                    "telemetry_flush",
                    key=spec.key,
                    pid=result.worker_pid,
                    counters=len(deltas.get("counters", ())),
                    gauges=len(deltas.get("gauges", ())),
                    histograms=len(deltas.get("histograms", ())),
                )
            except ValueError as exc:
                self._log("telemetry_flush_error", key=spec.key,
                          message=str(exc))
        self._job_metric("completed", spec, result.elapsed_s)
        if self.store is not None:
            self.store.put(spec, result.payload, elapsed_s=result.elapsed_s)
        # Store write precedes the publish: a woken follower (or anyone
        # racing the cache) already sees the persisted record.
        self._publish(spec.key, result)
        self._log(
            "completed",
            key=spec.key,
            name=spec.name,
            elapsed_s=result.elapsed_s,
            attempts=attempt,
            duration_s=result.elapsed_s,
            attempt=attempt,
            pid=result.worker_pid,
        )
        tracer = get_tracer()
        if tracer.enabled:
            done = time.perf_counter()
            queued = self._queued_at.get(spec.key, done - result.elapsed_s)
            # Two nested spans: full queue→done lifecycle, and the handler
            # execution reconstructed from the worker-reported elapsed time.
            tracer.complete(
                "scheduler.job", queued, done, cat="scheduler",
                job=spec.name, kind=spec.kind, attempts=attempt,
                queue_s=max(0.0, done - result.elapsed_s - queued),
            )
            tracer.complete(
                "scheduler.job.run", done - result.elapsed_s, done,
                cat="scheduler", job=spec.name, pid=result.worker_pid,
            )

    def _record_failure(
        self,
        report: SweepReport,
        spec: JobSpec,
        reason: str,
        message: str,
        attempts: int,
    ) -> None:
        failure = JobFailure(
            key=spec.key,
            name=spec.name,
            reason=reason,
            message=message,
            attempts=attempts,
        )
        report.failures[spec.key] = failure
        self._job_metric("failed", spec)
        self._publish(spec.key, failure)
        self._log(
            "failed",
            key=spec.key,
            name=spec.name,
            reason=reason,
            message=message,
            attempts=attempts,
            attempt=attempts,
        )
        get_tracer().instant(
            "scheduler.job_failed", cat="scheduler",
            job=spec.name, reason=reason, attempts=attempts,
        )

    def _backoff_delay(self, attempt: int) -> float:
        return self.backoff_s * (2 ** (attempt - 1))

    def _note_retry(
        self, spec: JobSpec, attempt: int, reason: str, delay: float
    ) -> None:
        self._log(
            "retrying",
            key=spec.key,
            name=spec.name,
            attempt=attempt,
            reason=reason,
            backoff_s=delay,
        )
        get_tracer().instant(
            "scheduler.retry", cat="scheduler",
            job=spec.name, attempt=attempt, reason=reason,
        )

    # -- serial execution -------------------------------------------------

    def _trace_dir(self) -> Optional[TraceDir]:
        """Disk tier of the trace store: next to the result store."""
        return None if self.store is None else TraceDir.for_store(self.store)

    def _run_serial(self, pending: Sequence[JobSpec], report: SweepReport) -> None:
        for spec in pending:
            attempt = 1
            while True:
                try:
                    with disk_tier(self._trace_dir()):
                        out = _worker_run(spec.to_dict(), attempt)
                except JobTimeoutError as exc:
                    reason, message = "timeout", str(exc)
                except Exception as exc:  # noqa: BLE001 — degrade, don't die
                    reason, message = "error", f"{type(exc).__name__}: {exc}"
                else:
                    self._record_success(report, spec, out, attempt)
                    break
                if attempt <= spec.max_retries:
                    delay = self._backoff_delay(attempt)
                    self._note_retry(spec, attempt, reason, delay)
                    time.sleep(delay)
                    attempt += 1
                    continue
                self._record_failure(report, spec, reason, message, attempt)
                break

    # -- pooled execution -------------------------------------------------

    def _mp_context(self):
        method = self.mp_start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
        return multiprocessing.get_context(method) if method else None

    def _new_executor(self, ctx, n_jobs: int) -> ProcessPoolExecutor:
        workers = self.max_workers or min(os.cpu_count() or 2, max(n_jobs, 1))
        if self.worker_initializer is not None:
            # Under fork, warm process-level caches (shared thermal
            # operators etc.) in the parent first: every worker then
            # inherits the warmed state instead of rebuilding it.
            method = ctx.get_start_method() if ctx else multiprocessing.get_start_method()
            if method == "fork":
                self.worker_initializer()
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx,
            initializer=_init_pool_worker,
            initargs=(self._trace_dir(), self.worker_initializer),
        )

    def _run_pool(self, pending: Sequence[JobSpec], report: SweepReport) -> None:
        ctx = self._mp_context()
        scratch = tempfile.mkdtemp(prefix="repro-jobs-")

        # (not_before, tiebreak, spec, attempt)
        waiting: List[Tuple[float, int, JobSpec, int]] = []
        tiebreak = 0

        def requeue(spec: JobSpec, attempt: int, delay: float) -> None:
            nonlocal tiebreak
            heapq.heappush(
                waiting, (time.monotonic() + delay, tiebreak, spec, attempt)
            )
            tiebreak += 1

        for spec in pending:
            requeue(spec, 1, 0.0)

        in_flight: Dict[Any, Tuple[JobSpec, int]] = {}
        executor = self._new_executor(ctx, len(pending))

        def started(spec: JobSpec, attempt: int) -> bool:
            return (Path(scratch) / f"{spec.key}.a{attempt}.started").exists()

        def handle_attempt_error(
            spec: JobSpec, attempt: int, reason: str, message: str
        ) -> bool:
            """Retry if budget remains; else record the failure. Returns
            whether a retry was queued."""
            if attempt <= spec.max_retries:
                delay = self._backoff_delay(attempt)
                self._note_retry(spec, attempt, reason, delay)
                requeue(spec, attempt + 1, delay)
                return True
            self._record_failure(report, spec, reason, message, attempt)
            return False

        def run_quarantined(spec: JobSpec, attempt: int) -> None:
            """Re-run a crash suspect alone in a one-worker pool.

            In isolation a repeat pool break is unambiguously this job's
            own crash; anything else resolves normally.
            """
            self._log(
                "quarantined", key=spec.key, name=spec.name, attempt=attempt
            )
            get_tracer().instant(
                "scheduler.quarantined", cat="scheduler",
                job=spec.name, attempt=attempt,
            )
            while True:
                qexec = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
                try:
                    fut = qexec.submit(
                        _worker_run, spec.to_dict(), attempt, scratch,
                        True,
                    )
                    try:
                        out = fut.result()
                    except BrokenProcessPool:
                        reason, message = (
                            "crash",
                            f"worker process died (attempt {attempt})",
                        )
                    except JobTimeoutError as exc:
                        reason, message = "timeout", str(exc)
                    except Exception as exc:  # noqa: BLE001
                        reason, message = (
                            "error",
                            f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        self._record_success(report, spec, out, attempt)
                        return
                finally:
                    qexec.shutdown(wait=False, cancel_futures=True)
                if attempt <= spec.max_retries:
                    delay = self._backoff_delay(attempt)
                    self._note_retry(spec, attempt, reason, delay)
                    time.sleep(delay)
                    attempt += 1
                    continue
                self._record_failure(report, spec, reason, message, attempt)
                return

        try:
            while waiting or in_flight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, spec, attempt = heapq.heappop(waiting)
                    fut = executor.submit(
                        _worker_run, spec.to_dict(), attempt, scratch,
                        True,
                    )
                    in_flight[fut] = (spec, attempt)

                if not in_flight:
                    # Only backed-off retries remain; sleep until the first
                    # one is due.
                    time.sleep(max(min(waiting[0][0] - now, 0.25), 0.001))
                    continue

                done, _ = futures_wait(
                    list(in_flight), timeout=_TICK_S, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                quarantine: List[Tuple[JobSpec, int]] = []
                for fut in done:
                    spec, attempt = in_flight.pop(fut)
                    try:
                        out = fut.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        if started(spec, attempt):
                            quarantine.append((spec, attempt))
                        else:
                            requeue(spec, attempt, 0.0)
                    except JobTimeoutError as exc:
                        handle_attempt_error(spec, attempt, "timeout", str(exc))
                    except Exception as exc:  # noqa: BLE001
                        handle_attempt_error(
                            spec, attempt, "error",
                            f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        self._record_success(report, spec, out, attempt)

                if pool_broken:
                    # Everything still in flight is doomed with the pool:
                    # sort it into crash suspects (started) and innocents
                    # (queued only), rebuild the executor, and resolve the
                    # suspects in isolation.
                    executor.shutdown(wait=False, cancel_futures=True)
                    for fut, (spec, attempt) in list(in_flight.items()):
                        if started(spec, attempt):
                            quarantine.append((spec, attempt))
                        else:
                            requeue(spec, attempt, 0.0)
                    in_flight.clear()
                    self._log("pool_rebuilt", pending=len(waiting))
                    get_tracer().instant(
                        "scheduler.pool_rebuilt", cat="scheduler",
                        pending=len(waiting),
                    )
                    executor = self._new_executor(ctx, len(waiting) or 1)
                    for spec, attempt in quarantine:
                        run_quarantined(spec, attempt)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            shutil.rmtree(scratch, ignore_errors=True)


def run_jobs(
    specs: Sequence[JobSpec],
    store: Optional[Union[ResultStore, str, Path]] = None,
    journal: Optional[Union[JobJournal, str, Path]] = None,
    **scheduler_kwargs: Any,
) -> SweepReport:
    """One-call convenience wrapper around :class:`JobScheduler`.

    ``store``/``journal`` accept ready-made objects or bare paths.
    """
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(root=store)
    own_journal = False
    if journal is not None and not isinstance(journal, JobJournal):
        journal = JobJournal(journal)
        own_journal = True
    try:
        return JobScheduler(
            store=store, journal=journal, **scheduler_kwargs
        ).run(specs)
    finally:
        if own_journal and journal is not None:
            journal.close()
