"""Request validation: JSON bodies → :class:`~repro.service.jobs.JobSpec`.

Every submission endpoint validates its body here before anything touches
the job subsystem, so malformed requests are rejected with a field-level
message and a well-formed request maps onto exactly the same spec — and
therefore the same content key — the CLI would produce. That key equality
is what makes HTTP submissions dedupe against results cached by ``repro
batch`` and vice versa.

Unknown fields are rejected (a typo like ``"polcy"`` must not silently
run a default simulation), and every enum field is checked against the
live registries (workloads, datasets, policies, cooling solutions).

Servers started with ``allow_kinds`` (tests, the CI smoke) additionally
accept ``{"kind": ..., "params": {...}}`` bodies that pass through to a
registered job handler — the production default accepts simulations only.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, List, Mapping, Optional

from repro.service.handlers import simulation_spec
from repro.service.jobs import JobSpec

#: Upper bound on jobs a single ``POST /sweeps`` may expand to.
MAX_SWEEP_JOBS = 256

#: Tenant identifiers: short, filesystem/log-safe tokens.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

DEFAULT_TENANT = "public"

_RUN_FIELDS = {
    "workload", "dataset", "policy", "cooling", "seed", "workload_scale",
    "engine", "trace", "scenario", "scenario_seed", "timeout_s", "tenant",
}
_SWEEP_FIELDS = {
    "workloads", "datasets", "policies", "cooling", "seed",
    "workload_scale", "engine", "trace", "scenario", "scenario_seed",
    "timeout_s", "tenant",
}
_CUSTOM_FIELDS = {"kind", "name", "params", "seed", "timeout_s", "tenant"}
_CUSTOM_SWEEP_FIELDS = {"kind", "items", "tenant"}

#: ``gang`` is accepted as an alias of ``macro``.
_ENGINES = ("macro", "stepped", "gang")


class ValidationError(ValueError):
    """A request body that cannot become a job spec."""

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.message = message
        self.field = field


def _reject_unknown(body: Mapping[str, Any], allowed: FrozenSet[str]) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown field(s): {', '.join(unknown)}", field=unknown[0]
        )


def _choice(body: Mapping[str, Any], field: str, options, default: str) -> str:
    value = body.get(field, default)
    if not isinstance(value, str) or value not in options:
        raise ValidationError(
            f"{field} must be one of {sorted(options)}, got {value!r}",
            field=field,
        )
    return value


def _seed(body: Mapping[str, Any]) -> int:
    seed = body.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (
        0 <= seed < 2**31
    ):
        raise ValidationError(
            f"seed must be an integer in [0, 2^31), got {seed!r}", field="seed"
        )
    return seed


def _workload_scale(body: Mapping[str, Any]) -> float:
    scale = body.get("workload_scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not (
        0.0 < scale <= 1.0
    ):
        raise ValidationError(
            f"workload_scale must be in (0, 1], got {scale!r}",
            field="workload_scale",
        )
    return float(scale)


def _trace(body: Mapping[str, Any]) -> bool:
    trace = body.get("trace", False)
    if not isinstance(trace, bool):
        raise ValidationError(
            f"trace must be a boolean, got {trace!r}", field="trace"
        )
    return trace


def _timeout(body: Mapping[str, Any]) -> Optional[float]:
    timeout = body.get("timeout_s")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or (
        timeout <= 0
    ):
        raise ValidationError(
            f"timeout_s must be a positive number, got {timeout!r}",
            field="timeout_s",
        )
    return float(timeout)


def validate_since(value: Any) -> int:
    """Event-stream resume cursor: ``Last-Event-ID`` header or ``?since=``.

    Both carry the seq of the last event the follower *saw*; replay
    resumes at ``seq + 1``. ``None``/empty → 0 (full replay).
    """
    if value is None or value == "":
        return 0
    try:
        last_seen = int(str(value).strip())
    except ValueError:
        raise ValidationError(
            f"since must be a non-negative integer, got {value!r}",
            field="since",
        ) from None
    if last_seen < 0:
        raise ValidationError(
            f"since must be a non-negative integer, got {value!r}",
            field="since",
        )
    return last_seen + 1


def validate_tenant(value: Any) -> str:
    """Normalize a tenant identifier (``None`` → the public tenant)."""
    if value is None or value == "":
        return DEFAULT_TENANT
    if not isinstance(value, str) or not TENANT_RE.match(value):
        raise ValidationError(
            f"tenant must match {TENANT_RE.pattern}, got {value!r}",
            field="tenant",
        )
    return value


def _registries():
    from repro.core.policies import POLICY_NAMES
    from repro.graph.datasets import list_datasets
    from repro.thermal.cooling import COOLING_SOLUTIONS
    from repro.workloads.registry import list_workloads

    return (
        list_workloads(include_extras=True),
        list_datasets(),
        list(POLICY_NAMES),
        list(COOLING_SOLUTIONS),
    )


def _policy(value: Any, policies) -> str:
    """Policy names: the registry enums plus the ``static-<fraction>``
    open-loop family (``static-0.25``-style), which no fixed enum can
    enumerate."""
    from repro.core.policies import is_policy_name

    if not isinstance(value, str) or not is_policy_name(value):
        raise ValidationError(
            f"policy must be one of {sorted(policies)} or "
            f"static-<fraction> (e.g. static-0.25), got {value!r}",
            field="policy",
        )
    return value


def _scenario(body: Mapping[str, Any]) -> tuple:
    """Validate the optional fault-injection fields.

    Returns ``(scenario_name_or_None, scenario_seed)``; a seed without a
    scenario is rejected (it would silently not select anything).
    """
    from repro.scenarios import SCENARIO_NAMES, is_scenario_name

    name = body.get("scenario")
    seed = body.get("scenario_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (
        0 <= seed < 2**31
    ):
        raise ValidationError(
            f"scenario_seed must be an integer in [0, 2^31), got {seed!r}",
            field="scenario_seed",
        )
    if name is None:
        if seed != 0:
            raise ValidationError(
                "scenario_seed requires a scenario", field="scenario_seed"
            )
        return None, 0
    if not isinstance(name, str) or not is_scenario_name(name):
        raise ValidationError(
            f"scenario must be one of {sorted(SCENARIO_NAMES)}, got {name!r}",
            field="scenario",
        )
    return name, seed


def _custom_spec(
    body: Mapping[str, Any], allow_kinds: FrozenSet[str]
) -> JobSpec:
    _reject_unknown(body, frozenset(_CUSTOM_FIELDS))
    kind = body["kind"]
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("params must be an object", field="params")
    name = body.get("name", kind)
    if not isinstance(name, str) or not name:
        raise ValidationError("name must be a non-empty string", field="name")
    return JobSpec(
        kind=kind,
        name=name,
        params=params,
        seed=_seed(body),
        timeout_s=_timeout(body),
        tags=("api", kind),
    )


def validate_run_request(
    body: Any, allow_kinds: FrozenSet[str] = frozenset()
) -> JobSpec:
    """``POST /runs`` body → one job spec."""
    if not isinstance(body, Mapping):
        raise ValidationError("request body must be a JSON object")
    kind = body.get("kind", "simulation")
    if not isinstance(kind, str):
        raise ValidationError(f"kind must be a string, got {kind!r}",
                              field="kind")
    if kind != "simulation":
        if kind not in allow_kinds:
            raise ValidationError(
                f"job kind {kind!r} is not accepted by this server",
                field="kind",
            )
        return _custom_spec(body, allow_kinds)
    workloads, datasets, policies, coolings = _registries()
    fields = _RUN_FIELDS | {"kind"}
    _reject_unknown(body, frozenset(fields))
    if "workload" not in body:
        raise ValidationError("workload is required", field="workload")
    scenario, scenario_seed = _scenario(body)
    return simulation_spec(
        workload=_choice(body, "workload", workloads, ""),
        dataset=_choice(body, "dataset", datasets, "ldbc"),
        policy=_policy(body.get("policy", "coolpim-hw"), policies),
        cooling=_choice(body, "cooling", coolings, "commodity"),
        seed=_seed(body),
        workload_scale=_workload_scale(body),
        engine=_choice(body, "engine", _ENGINES, "macro"),
        trace=_trace(body),
        scenario=scenario,
        scenario_seed=scenario_seed,
        timeout_s=_timeout(body),
    )


def validate_sweep_request(
    body: Any,
    allow_kinds: FrozenSet[str] = frozenset(),
    max_jobs: int = MAX_SWEEP_JOBS,
) -> List[JobSpec]:
    """``POST /sweeps`` body → the cross-product list of job specs."""
    if not isinstance(body, Mapping):
        raise ValidationError("request body must be a JSON object")
    kind = body.get("kind", "simulation")
    if not isinstance(kind, str):
        raise ValidationError(f"kind must be a string, got {kind!r}",
                              field="kind")
    if kind != "simulation":
        if kind not in allow_kinds:
            raise ValidationError(
                f"job kind {kind!r} is not accepted by this server",
                field="kind",
            )
        _reject_unknown(body, frozenset(_CUSTOM_SWEEP_FIELDS))
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise ValidationError(
                "items must be a non-empty list", field="items"
            )
        if len(items) > max_jobs:
            raise ValidationError(
                f"sweep expands to {len(items)} jobs (limit {max_jobs})",
                field="items",
            )
        return [
            _custom_spec(dict(item, kind=kind), allow_kinds)
            if isinstance(item, Mapping)
            else _bad_item(i)
            for i, item in enumerate(items)
        ]

    workloads, datasets, policies, coolings = _registries()
    fields = _SWEEP_FIELDS | {"kind"}
    _reject_unknown(body, frozenset(fields))

    def _listing(field: str, options, default: List[str]) -> List[str]:
        values = body.get(field, default)
        if not isinstance(values, list) or not values:
            raise ValidationError(
                f"{field} must be a non-empty list", field=field
            )
        for v in values:
            if not isinstance(v, str) or v not in options:
                raise ValidationError(
                    f"{field} entry {v!r} not in {sorted(options)}",
                    field=field,
                )
        if len(set(values)) != len(values):
            raise ValidationError(
                f"{field} contains duplicates", field=field
            )
        return values

    if "workloads" not in body:
        raise ValidationError("workloads is required", field="workloads")
    wl = _listing("workloads", workloads, [])
    ds = _listing("datasets", datasets, ["ldbc"])
    pol = body.get("policies", list(policies))
    if not isinstance(pol, list) or not pol:
        raise ValidationError("policies must be a non-empty list",
                              field="policies")
    pol = [_policy(p, policies) for p in pol]
    if len(set(pol)) != len(pol):
        raise ValidationError("policies contains duplicates", field="policies")
    cooling = _choice(body, "cooling", coolings, "commodity")
    seed = _seed(body)
    scale = _workload_scale(body)
    engine = _choice(body, "engine", _ENGINES, "macro")
    trace = _trace(body)
    scenario, scenario_seed = _scenario(body)
    timeout_s = _timeout(body)

    total = len(wl) * len(ds) * len(pol)
    if total > max_jobs:
        raise ValidationError(
            f"sweep expands to {total} jobs (limit {max_jobs})"
        )
    return [
        simulation_spec(
            workload=w, dataset=d, policy=p, cooling=cooling, seed=seed,
            workload_scale=scale, engine=engine, trace=trace,
            scenario=scenario, scenario_seed=scenario_seed,
            timeout_s=timeout_s,
        )
        for w in wl
        for d in ds
        for p in pol
    ]


def _bad_item(index: int) -> JobSpec:
    raise ValidationError(f"items[{index}] must be an object", field="items")
