"""Per-run statistics: the registry, its counters and histograms, and
time-weighted stats.

Counters and histograms are the :mod:`repro.telemetry.registry`
primitives; these tests reach them the way the simulators do, through
:class:`StatRegistry`.
"""

import pytest

import repro.sim.stats as sim_stats
import repro.telemetry.registry as telemetry_registry
from repro.sim.stats import StatRegistry, TimeWeightedStat


def test_stats_defines_no_counter_or_histogram_of_its_own():
    own = {
        name for name, obj in vars(sim_stats).items()
        if isinstance(obj, type) and obj.__module__ == sim_stats.__name__
    }
    assert own == {"StatRegistry", "TimeWeightedStat"}
    reg = StatRegistry()
    assert type(reg.counter("c")) is telemetry_registry.Counter
    assert type(reg.histogram("h", 0.0, 1.0, 2)) is telemetry_registry.Histogram


class TestCounter:
    def test_accumulates(self):
        c = StatRegistry().counter("x")
        c.inc()
        c.inc(4.0)
        assert c.value == 5.0

    def test_reset(self):
        c = StatRegistry().counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0.0


class TestTimeWeighted:
    def test_weights_levels_by_duration(self):
        tw = TimeWeightedStat(initial=10.0, start_time=0.0)
        tw.update(20.0, now=1.0)   # 10 held for 1s
        tw.update(0.0, now=4.0)    # 20 held for 3s
        # mean over [0,4] = (10*1 + 20*3)/4 = 17.5
        assert tw.mean() == pytest.approx(17.5)

    def test_mean_extends_to_query_time(self):
        tw = TimeWeightedStat(initial=2.0)
        tw.update(4.0, now=2.0)
        assert tw.mean(now=4.0) == pytest.approx((2 * 2 + 4 * 2) / 4)

    def test_rejects_time_travel(self):
        tw = TimeWeightedStat()
        tw.update(1.0, now=5.0)
        with pytest.raises(ValueError):
            tw.update(2.0, now=4.0)
        with pytest.raises(ValueError):
            tw.mean(now=1.0)

    def test_tracks_extremes(self):
        tw = TimeWeightedStat(initial=5.0)
        tw.update(9.0, now=1.0)
        tw.update(-1.0, now=2.0)
        assert tw.min == -1.0 and tw.max == 9.0

    def test_elapsed_accumulates_held_time(self):
        tw = TimeWeightedStat(initial=1.0, start_time=0.0)
        tw.update(2.0, now=3.0)
        tw.update(0.0, now=5.0)
        assert tw.elapsed == pytest.approx(5.0)

    def test_reset_restarts_the_clock(self):
        # A registry can outlive one simulation run; without reset the next
        # run's t=0 updates would look like time travel.
        tw = TimeWeightedStat(initial=0.0)
        tw.update(4.0, now=10.0)
        tw.reset()
        tw.update(2.0, now=1.0)  # would raise before reset
        assert tw.mean(now=2.0) == pytest.approx(1.0)
        assert tw.min == 0.0 and tw.max == 2.0

    def test_reset_with_new_initial(self):
        tw = TimeWeightedStat(initial=0.0)
        tw.update(9.0, now=1.0)
        tw.reset(initial=5.0)
        assert tw.value == 5.0 and tw.min == 5.0 and tw.max == 5.0


class TestHistogram:
    """``histogram(name, lo, hi, nbins)`` has the ``nbins + 1`` bounds
    ``lo, lo + w, ..., hi``: ``counts[0]`` holds samples ``<= lo``
    (underflow), ``counts[i]`` samples in ``(bounds[i-1], bounds[i]]``,
    ``counts[-1]`` samples ``> hi`` (overflow)."""

    @staticmethod
    def _hist(lo, hi, nbins):
        return StatRegistry().histogram("h", lo, hi, nbins)

    def test_bin_placement(self):
        h = self._hist(0.0, 10.0, 10)
        for x in [0.5, 1.5, 9.9]:
            h.observe(x)
        assert h.counts[1] == 1 and h.counts[2] == 1 and h.counts[10] == 1
        # A sample on a bound counts in the bucket that bound closes.
        h.observe(1.0)
        assert h.counts[1] == 2

    def test_under_and_overflow(self):
        reg = StatRegistry()
        h = reg.histogram("h", 0.0, 1.0, 4)
        for x in (-0.1, 0.0, 1.0, 1.5):
            h.observe(x)
        snap = reg.snapshot(structured=True)["h"]
        # lo itself is underflow; hi is the last finite bucket's bound.
        assert snap["underflow"] == 2 and snap["overflow"] == 1
        assert h.counts[4] == 1
        assert (snap["lo"], snap["hi"]) == (0.0, 1.0)

    def test_mean(self):
        h = self._hist(0.0, 10.0, 5)
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)

    def test_bin_edges(self):
        assert self._hist(0.0, 1.0, 2).bounds == pytest.approx((0.0, 0.5, 1.0))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            self._hist(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            self._hist(0.0, 1.0, 0)

    def test_reset_clears_all_buckets(self):
        h = self._hist(0.0, 1.0, 4)
        h.observe(-1.0)
        h.observe(0.5)
        h.observe(2.0)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert h.counts == [0] * 6

    def test_percentile_uniform_fill(self):
        h = self._hist(0.0, 10.0, 10)
        for i in range(100):
            h.observe(i / 10.0)  # 0.0, 0.1, ..., 9.9
        # 0.0 is underflow; (k-1, k] holds 10 samples for k = 1..9 and
        # 9 for k = 10. The 50th sample is the 9th of (4, 5].
        assert h.percentile(50) == pytest.approx(4.9)
        assert h.percentile(99) == pytest.approx(9.0 + 8.0 / 9.0)
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == pytest.approx(10.0)

    def test_percentile_underflow_maps_to_lo(self):
        h = self._hist(0.0, 10.0, 10)
        h.observe(-5.0)
        h.observe(-3.0)
        h.observe(5.0)
        assert h.percentile(10) == 0.0

    def test_percentile_overflow_maps_to_hi(self):
        h = self._hist(0.0, 10.0, 10)
        h.observe(5.0)
        h.observe(50.0)
        assert h.percentile(99) == 10.0

    def test_percentile_empty_returns_none(self):
        h = self._hist(0.0, 1.0, 2)
        assert h.percentile(50) is None
        assert h.percentile(0) is None
        h.observe(0.5)
        assert h.percentile(50) is not None
        h.reset()
        assert h.percentile(99) is None

    def test_percentile_errors(self):
        h = self._hist(0.0, 1.0, 2)
        h.observe(0.5)
        with pytest.raises(ValueError, match="out of"):
            h.percentile(-1)
        with pytest.raises(ValueError, match="out of"):
            h.percentile(101)


class TestRegistry:
    def test_scoped_prefixing(self):
        reg = StatRegistry()
        vault = reg.scoped("hmc").scoped("vault0")
        c = vault.counter("reads")
        c.inc(3)
        assert reg.get("hmc.vault0.reads") is c

    def test_get_or_create_idempotent(self):
        reg = StatRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = StatRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.time_weighted("x")
        with pytest.raises(TypeError):
            reg.histogram("x", 0, 1, 2)

    def test_time_weighted_reregistration_same_params_ok(self):
        reg = StatRegistry()
        tw = reg.time_weighted("x", initial=2.0)
        assert reg.time_weighted("x", initial=2.0) is tw

    def test_time_weighted_conflicting_initial_raises(self):
        # Regression: a mismatched initial used to be silently ignored,
        # leaving the second caller with a stat biased by someone else's
        # starting level.
        reg = StatRegistry()
        reg.time_weighted("x", initial=1.0)
        with pytest.raises(ValueError, match="initial"):
            reg.time_weighted("x", initial=2.0)

    def test_histogram_reregistration_same_params_ok(self):
        reg = StatRegistry()
        h = reg.histogram("h", 0.0, 10.0, 5)
        assert reg.histogram("h", 0.0, 10.0, 5) is h

    def test_histogram_conflicting_bins_raise(self):
        # Regression: mismatched lo/hi/nbins were silently ignored, so
        # samples landed in someone else's binning.
        reg = StatRegistry()
        reg.histogram("h", 0.0, 10.0, 5)
        with pytest.raises(ValueError, match="bins"):
            reg.histogram("h", 0.0, 20.0, 5)
        with pytest.raises(ValueError, match="bins"):
            reg.histogram("h", 0.0, 10.0, 8)
        with pytest.raises(ValueError, match="bins"):
            reg.histogram("h", 1.0, 10.0, 5)

    def test_snapshot_flattens_scalars(self):
        reg = StatRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h", 0.0, 10.0, 5).observe(4.0)
        snap = reg.snapshot()
        assert snap == {"c": 2.0, "h": 4.0}

    def test_structured_snapshot_types_every_stat(self):
        import json

        reg = StatRegistry()
        reg.counter("c").inc(3)
        tw = reg.time_weighted("tw", initial=1.0)
        tw.update(3.0, now=2.0)
        h = reg.histogram("h", 0.0, 10.0, 10)
        h.observe(5.0)
        snap = reg.snapshot(structured=True)
        assert snap["c"] == {"type": "counter", "value": 3.0}
        assert snap["tw"]["type"] == "time_weighted"
        assert snap["tw"]["mean"] == pytest.approx(1.0)
        assert snap["h"]["type"] == "histogram" and snap["h"]["count"] == 1
        # 5.0 sits on a bound, so it counts in (4, 5]: the median is
        # that bucket's midpoint.
        assert snap["h"]["p50"] == pytest.approx(4.5)
        json.dumps(snap)  # must always be JSON-serializable

    def test_structured_snapshot_empty_stats_are_json_safe(self):
        import json

        reg = StatRegistry()
        reg.histogram("h", 0.0, 1.0, 2)
        snap = reg.snapshot(structured=True)
        assert snap["h"]["count"] == 0 and snap["h"]["p50"] is None
        json.dumps(snap)

    def test_flat_snapshot_unchanged_by_structured_mode(self):
        reg = StatRegistry()
        reg.counter("c").inc(2)
        assert reg.snapshot() == {"c": 2.0}

    def test_items_filters_by_scope(self):
        reg = StatRegistry()
        reg.counter("top")
        sub = reg.scoped("sub")
        sub.counter("inner")
        names = [k for k, _ in sub.items()]
        assert names == ["sub.inner"]
