"""Request validation: acceptance, rejection, and CLI key parity."""

import pytest

from repro.api.schemas import (
    ValidationError,
    validate_run_request,
    validate_sweep_request,
    validate_tenant,
)
from repro.service.handlers import simulation_spec


class TestRunRequest:
    def test_minimal_body_applies_defaults(self):
        spec = validate_run_request({"workload": "pagerank"})
        assert spec.kind == "simulation"
        assert spec.params["dataset"] == "ldbc"
        assert spec.params["policy"] == "coolpim-hw"
        assert spec.params["cooling"] == "commodity"
        assert spec.seed == 0

    def test_key_matches_cli_spec(self):
        # HTTP submissions must land on the same content key the CLI
        # produces — that equality is the whole dedupe story.
        body = {
            "workload": "kcore", "dataset": "ldbc-tiny",
            "policy": "coolpim-sw", "cooling": "high-end",
            "seed": 7, "workload_scale": 0.25,
        }
        spec = validate_run_request(body)
        cli = simulation_spec(
            workload="kcore", dataset="ldbc-tiny", policy="coolpim-sw",
            cooling="high-end", seed=7, workload_scale=0.25,
        )
        assert spec.key == cli.key

    def test_default_scale_engine_trace_leave_key_unchanged(self):
        plain = validate_run_request({"workload": "pagerank"})
        spelled = validate_run_request({
            "workload": "pagerank", "workload_scale": 1.0,
            "engine": "macro", "trace": False,
        })
        assert plain.key == spelled.key

    def test_workload_is_required(self):
        with pytest.raises(ValidationError) as exc:
            validate_run_request({})
        assert exc.value.field == "workload"

    def test_unknown_field_rejected(self):
        # A typo must not silently run a default simulation.
        with pytest.raises(ValidationError) as exc:
            validate_run_request({"workload": "pagerank", "polcy": "naive"})
        assert exc.value.field == "polcy"

    def test_non_object_body_rejected(self):
        with pytest.raises(ValidationError):
            validate_run_request([1, 2])
        with pytest.raises(ValidationError):
            validate_run_request("pagerank")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workload", "nope"),
            ("dataset", "nope"),
            ("policy", "nope"),
            ("cooling", "nope"),
            ("engine", "nope"),
            ("seed", -1),
            ("seed", 2**31),
            ("seed", True),
            ("workload_scale", 0.0),
            ("workload_scale", 1.5),
            ("trace", "yes"),
            ("timeout_s", 0),
            ("timeout_s", -5),
        ],
    )
    def test_bad_field_values_rejected(self, field, value):
        body = {"workload": "pagerank", field: value}
        with pytest.raises(ValidationError) as exc:
            validate_run_request(body)
        assert exc.value.field == field

    def test_custom_kind_needs_allowlist(self):
        body = {"kind": "toy", "params": {"n": 1}}
        with pytest.raises(ValidationError) as exc:
            validate_run_request(body)
        assert exc.value.field == "kind"
        spec = validate_run_request(body, allow_kinds=frozenset({"toy"}))
        assert spec.kind == "toy" and spec.params == {"n": 1}
        assert "api" in spec.tags

    def test_non_string_kind_rejected(self):
        with pytest.raises(ValidationError):
            validate_run_request({"kind": 3, "workload": "pagerank"})

    def test_static_policy_family_accepted(self):
        spec = validate_run_request(
            {"workload": "pagerank", "policy": "static-0.25"}
        )
        assert spec.params["policy"] == "static-0.25"
        with pytest.raises(ValidationError) as exc:
            validate_run_request(
                {"workload": "pagerank", "policy": "static-1.5"}
            )
        assert exc.value.field == "policy"
        assert "static-<fraction>" in exc.value.message

    def test_scenario_fields_enter_spec_and_key(self):
        clean = validate_run_request({"workload": "pagerank"})
        injected = validate_run_request({
            "workload": "pagerank",
            "scenario": "degraded-cooling",
            "scenario_seed": 3,
        })
        assert injected.params["scenario"] == "degraded-cooling"
        assert injected.params["scenario_seed"] == 3
        assert injected.key != clean.key
        # No scenario → no scenario params → existing keys unchanged.
        assert "scenario" not in clean.params

    def test_scenario_rejections(self):
        with pytest.raises(ValidationError) as exc:
            validate_run_request(
                {"workload": "pagerank", "scenario": "nope"}
            )
        assert exc.value.field == "scenario"
        with pytest.raises(ValidationError) as exc:
            validate_run_request(
                {"workload": "pagerank", "scenario_seed": 1}
            )
        assert exc.value.field == "scenario_seed"
        with pytest.raises(ValidationError) as exc:
            validate_run_request({
                "workload": "pagerank",
                "scenario": "heatwave",
                "scenario_seed": -1,
            })
        assert exc.value.field == "scenario_seed"


class TestSweepRequest:
    def test_cross_product_expansion(self):
        specs = validate_sweep_request({
            "workloads": ["pagerank", "kcore"],
            "datasets": ["ldbc-tiny"],
            "policies": ["non-offloading", "coolpim-hw"],
        })
        assert len(specs) == 4
        assert len({s.key for s in specs}) == 4  # all distinct

    def test_policies_default_to_all(self):
        from repro.core.policies import POLICY_NAMES

        specs = validate_sweep_request({"workloads": ["pagerank"]})
        assert len(specs) == len(POLICY_NAMES)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_sweep_request({"workloads": ["pagerank", "pagerank"]})
        assert exc.value.field == "workloads"

    def test_job_limit_enforced(self):
        with pytest.raises(ValidationError):
            validate_sweep_request(
                {"workloads": ["pagerank", "kcore"]}, max_jobs=3
            )

    def test_sweep_accepts_static_and_scenario(self):
        specs = validate_sweep_request({
            "workloads": ["pagerank"],
            "policies": ["non-offloading", "static-0.5"],
            "scenario": "heatwave",
            "scenario_seed": 2,
        })
        assert len(specs) == 2
        for spec in specs:
            assert spec.params["scenario"] == "heatwave"
            assert spec.params["scenario_seed"] == 2
        assert specs[1].params["policy"] == "static-0.5"

    def test_gang_engine_is_macro_alias(self):
        # "gang" names the removed lockstep engine: sweeps expand to
        # per-run simulation specs, cache-key identical to macro ones.
        body = {
            "workloads": ["pagerank", "kcore"],
            "datasets": ["ldbc-tiny"],
            "policies": ["non-offloading", "coolpim-hw", "static-0.5"],
        }
        gang = validate_sweep_request(dict(body, engine="gang"))
        macro = validate_sweep_request(body)
        assert [s.kind for s in gang] == ["simulation"] * 6
        assert [s.key for s in gang] == [s.key for s in macro]

    def test_gang_engine_falls_back_per_run(self):
        # A scenario (per-run fault injection) and a single-policy sweep
        # also expand to per-run simulation specs, cache-key identical to
        # a macro submission.
        with_scenario = validate_sweep_request({
            "workloads": ["pagerank"],
            "policies": ["non-offloading", "coolpim-hw"],
            "engine": "gang",
            "scenario": "heatwave",
        })
        assert [s.kind for s in with_scenario] == ["simulation"] * 2
        single = validate_sweep_request({
            "workloads": ["pagerank"],
            "policies": ["coolpim-hw"],
            "engine": "gang",
        })
        assert single[0].kind == "simulation"
        macro = validate_sweep_request({
            "workloads": ["pagerank"],
            "policies": ["coolpim-hw"],
        })
        assert single[0].key == macro[0].key

    def test_sweep_rejects_bad_policy_entry(self):
        with pytest.raises(ValidationError) as exc:
            validate_sweep_request({
                "workloads": ["pagerank"],
                "policies": ["static-7"],
            })
        assert exc.value.field == "policy"

    def test_custom_items(self):
        specs = validate_sweep_request(
            {"kind": "toy", "items": [{"params": {"n": 1}},
                                      {"params": {"n": 2}}]},
            allow_kinds=frozenset({"toy"}),
        )
        assert [s.params["n"] for s in specs] == [1, 2]
        with pytest.raises(ValidationError):
            validate_sweep_request(
                {"kind": "toy", "items": [42]},
                allow_kinds=frozenset({"toy"}),
            )


class TestTenant:
    def test_defaults_to_public(self):
        assert validate_tenant(None) == "public"
        assert validate_tenant("") == "public"

    def test_accepts_tokens(self):
        assert validate_tenant("team-a.prod_1") == "team-a.prod_1"

    @pytest.mark.parametrize("bad", ["-leading", "has space", "a" * 65, 42])
    def test_rejects_bad_identifiers(self, bad):
        with pytest.raises(ValidationError):
            validate_tenant(bad)
