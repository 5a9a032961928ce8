"""Per-layer timing of the ``repro`` package, installed from outside it.

:func:`install` replaces public functions and methods of the program's
modules with thin wrappers that time each call. A call's *self* time is
its duration minus the time of the wrapped calls it made itself, so the
self times of all layers add up to the wrapped part of the work and the
rest can be reported as unattributed. Nothing inside ``repro`` changes;
the wrappers live only in the process that called :func:`install`.

Each thread keeps its own span stack and totals (the API server runs
jobs on two worker threads), merged by :meth:`Ledger.totals`.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

_clock = time.perf_counter

#: Policy callbacks the control loop makes on the policy instance.
POLICY_CALLBACKS = (
    "bind", "reset", "begin", "pim_fraction", "on_thermal_warning",
    "record_fraction", "fraction_horizon", "warning_noop_until",
)


class Ledger:
    """Self time, inclusive time and call count per layer, the time of
    outermost wrapped calls (``root``), plus counts."""

    def __init__(self) -> None:
        self.recording = True
        self._local = threading.local()
        self._tables: list = []
        self._lock = threading.Lock()

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {
                "self": defaultdict(float),
                "incl": defaultdict(float),
                "calls": defaultdict(int),
                "root": defaultdict(float),
                "counts": defaultdict(int),
            }
            self._local.table = table
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name: str, n: int = 1) -> None:
        self._table()["counts"][name] += n

    def wrap(self, fn, layer: str, on_result=None):
        """``fn`` timed under ``layer``; ``on_result(ledger, args, result)``
        may record counts from the call."""
        ledger = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            table = ledger._table()
            stack = ledger._local.stack
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    table["root"][layer] += dt
                table["self"][layer] += dt - children
                table["incl"][layer] += dt
                table["calls"][layer] += 1
            if on_result is not None:
                on_result(ledger, args, result)
            return result

        return timed

    def totals(self) -> dict:
        with self._lock:
            tables = list(self._tables)
        return merge(tables)


def merge(tables) -> dict:
    """Sum layer tables (threads of one process, or several processes)."""
    out = {"self": {}, "incl": {}, "calls": {}, "root": {}, "counts": {}}
    for table in tables:
        for kind, values in table.items():
            for name, value in values.items():
                out[kind][name] = out[kind].get(name, 0) + value
    return out


def _patch(owner, name: str, ledger: Ledger, layer: str, on_result=None):
    original = getattr(owner, name)
    setattr(owner, name, ledger.wrap(original, layer, on_result))


def _count_epochs(ledger, _args, launch) -> None:
    ledger.count("epochs", len(launch.trace))


def _count_quanta(ledger, args, _z) -> None:
    ledger.count("quanta_marched", int(args[2].shape[1]))


def _count_store(ledger, _args, record) -> None:
    ledger.count("store_misses" if record is None else "store_hits")


def _wrap_policy(policy, ledger: Ledger):
    for name in POLICY_CALLBACKS:
        method = getattr(policy, name, None)
        if inspect.ismethod(method):
            setattr(policy, name, ledger.wrap(method, "core.policy"))
    return policy


def install(ledger: Ledger) -> None:
    """Wrap the public calls of every measured layer; call once per
    process, before the work to be measured."""
    import repro.core.coolpim as coolpim
    import repro.graph.datasets as datasets
    import repro.service.handlers as handlers
    from repro.gpu.caches import CacheModel
    from repro.gpu.simulator import SimulationResult, SystemSimulator
    from repro.hmc.flow import HmcFlowModel
    from repro.service.scheduler import JobScheduler
    from repro.service.store import ResultStore
    from repro.sim.stats import StatRegistry
    from repro.thermal.model import HmcThermalModel
    from repro.thermal.propagator import PeakReader, ReducedPropagator
    from repro.workloads.base import GraphWorkload

    _patch(datasets, "get_dataset", ledger, "graph.load")
    _patch(GraphWorkload, "launch", ledger, "workloads.trace", _count_epochs)
    _patch(SystemSimulator, "run", ledger, "gpu.sim")
    _patch(CacheModel, "filter", ledger, "gpu.cache_filter")
    _patch(ReducedPropagator, "march", ledger, "thermal.march", _count_quanta)
    _patch(ReducedPropagator, "project", ledger, "thermal.project")
    _patch(ReducedPropagator, "reconstruct", ledger, "thermal.project")
    _patch(PeakReader, "peaks", ledger, "thermal.peaks")
    _patch(HmcThermalModel, "step", ledger, "thermal.exact_step")
    _patch(HmcThermalModel, "propagator", ledger, "thermal.basis")
    for name, member in vars(HmcFlowModel).items():
        if inspect.isfunction(member) and not name.startswith("_"):
            _patch(HmcFlowModel, name, ledger, "hmc.flow")

    make_policy = coolpim.make_policy
    coolpim.make_policy = lambda *a, **k: _wrap_policy(make_policy(*a, **k),
                                                       ledger)

    _patch(handlers, "run_simulation_job", ledger, "service.handler")
    _patch(JobScheduler, "run", ledger, "service.scheduler")
    _patch(ResultStore, "get", ledger, "service.store_get", _count_store)
    _patch(ResultStore, "put", ledger, "service.store_put")
    _patch(SimulationResult, "to_dict", ledger, "service.serialize")
    _patch(StatRegistry, "snapshot", ledger, "service.serialize")
