"""Process-level shared thermal operators: reuse, isolation, keying."""

import numpy as np
import pytest

from repro.hmc.config import HMC_1_1, HMC_2_0
from repro.thermal import operators
from repro.thermal.cooling import COMMODITY_SERVER, PASSIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint


@pytest.fixture(autouse=True)
def fresh_cache():
    operators.clear_cache()
    yield
    operators.clear_cache()


class TestOperatorCache:
    def test_same_key_returns_same_bundle(self):
        a = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        b = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        assert a is b
        stats = operators.cache_stats()
        assert stats == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "step_lu_entries": 0,
            "step_lu_hits": 0,
            "step_lu_misses": 0,
            "propagators": 0,
            "propagator_extensions": 0,
        }

    def test_distinct_keys_get_distinct_bundles(self):
        a = operators.get_operators(HMC_2_0, COMMODITY_SERVER)
        assert operators.get_operators(HMC_2_0, PASSIVE) is not a
        assert operators.get_operators(HMC_1_1, COMMODITY_SERVER) is not a
        assert operators.get_operators(HMC_2_0, COMMODITY_SERVER, sub=3) is not a
        assert (
            operators.get_operators(HMC_2_0, COMMODITY_SERVER, interface_scale=1.0)
            is not a
        )
        assert (
            operators.get_operators(HMC_2_0, COMMODITY_SERVER, ambient_c=30.0)
            is not a
        )
        assert operators.cache_stats()["entries"] == 6

    def test_prewarm_populates_step_lu(self):
        ops = operators.prewarm(HMC_2_0, COMMODITY_SERVER, control_dt_s=25e-6)
        assert len(ops.step_lus) == 1
        # A model over the same package hits the warmed factorization.
        model = HmcThermalModel()
        model.step(TrafficPoint.streaming(100.0), 25e-6)
        assert ops.step_lus.misses == 1
        assert ops.step_lus.hits >= 1


class TestModelSharing:
    def test_models_share_network_and_solvers(self):
        a = HmcThermalModel()
        b = HmcThermalModel()
        assert a.network is b.network
        assert a._steady is b._steady
        assert a._transient is not b._transient
        assert a._transient._lus is b._transient._lus

    def test_transient_state_is_isolated(self):
        a = HmcThermalModel()
        b = HmcThermalModel()
        a.step(TrafficPoint.streaming(320.0), 25e-6)
        assert np.allclose(b.state, b.ambient_c)
        assert a.state.max() > b.state.max()

    def test_share_operators_false_builds_private_copies(self):
        shared = HmcThermalModel()
        private = HmcThermalModel(share_operators=False)
        assert private.network is not shared.network
        assert operators.cache_stats()["entries"] == 1

    def test_shared_and_private_agree(self):
        t = TrafficPoint.streaming(320.0)
        shared = HmcThermalModel().steady_peak_dram_c(t)
        private = HmcThermalModel(share_operators=False).steady_peak_dram_c(t)
        assert shared == pytest.approx(private, abs=1e-9)

    def test_settle_matches_steady_state(self):
        model = HmcThermalModel()
        t = TrafficPoint.streaming(240.0)
        settled = model.settle(t, dt_s=1e-3, tol_c=1e-6)
        assert settled == pytest.approx(model.steady_peak_dram_c(t), abs=0.1)


class TestPropagatorSingleFlight:
    def test_racing_threads_share_one_build(self, monkeypatch):
        """Two threads asking a cold bundle for the same propagator get
        one object from one construction."""
        import threading
        import time

        built = []
        real = operators.ReducedPropagator

        def slow_build(*args, **kwargs):
            built.append(threading.current_thread().name)
            time.sleep(0.05)  # widen the window a second builder would hit
            return real(*args, **kwargs)

        monkeypatch.setattr(operators, "ReducedPropagator", slow_build)
        models = [HmcThermalModel(), HmcThermalModel()]
        barrier = threading.Barrier(len(models))
        got = [None] * len(models)

        def ask(i):
            barrier.wait(timeout=10)
            got[i] = models[i].propagator(25e-6)

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(len(models))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert got[0] is not None and got[0] is got[1]
        assert len(built) == 1
        assert operators.cache_stats()["propagators"] == 1
