"""Telemetry registry: families, labels, deltas, and merges."""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.registry import (
    DELTA_SCHEMA_ID,
    Histogram,
    TelemetryRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture
def reg():
    return TelemetryRegistry()


class TestCounters:
    def test_unlabelled_counter_accumulates(self, reg):
        c = reg.counter("jobs_total", help="jobs")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("jobs_total")
        with pytest.raises(ValueError, match=">= 0"):
            c._default.inc(-1)

    def test_labelled_children_are_independent(self, reg):
        fam = reg.counter("runs_total", labelnames=("status",))
        fam.labels(status="ok").inc(2)
        fam.labels(status="failed").inc()
        assert fam.labels(status="ok").value == 2.0
        assert fam.labels(status="failed").value == 1.0

    def test_reset_zeroes_value_and_flush_watermark(self, reg):
        c = reg.counter("c")._default
        c.inc(3)
        reg.flush_deltas()
        c.reset()
        assert c.value == 0.0
        c.inc(2)
        assert reg.flush_deltas()["counters"] == [["c", [], 2.0]]

    def test_labels_memoized(self, reg):
        fam = reg.counter("x", labelnames=("a",))
        assert fam.labels(a="1") is fam.labels(a="1")

    def test_label_mismatch_raises(self, reg):
        fam = reg.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="labelnames"):
            fam.labels(b="1")

    def test_reregistration_conflicting_kind_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_reregistration_conflicting_labels_raises(self, reg):
        reg.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x", labelnames=("b",))


class TestGauges:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8.0


class TestHistograms:
    def test_observe_buckets_and_sum(self, reg):
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        child = h._default
        assert child.counts == [1, 1, 1]
        assert child.cumulative_counts() == [1, 2, 3]
        assert child.count == 3
        assert child.sum == pytest.approx(5.55)

    def test_bound_counts_in_its_own_bucket(self, reg):
        # Prometheus ``le``: a sample equal to a bound is in that bucket.
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.1, 1.0, 1.0000001):
            h.observe(v)
        assert h._default.counts == [1, 1, 1]
        assert h._default.cumulative_counts() == [1, 2, 3]

    def test_mean_and_reset(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 10.0))._default
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)
        h.reset()
        assert (h.count, h.sum, h.counts) == (0, 0.0, [0, 0, 0])
        assert h.percentile(50) is None

    def test_percentile_empty_returns_none(self, reg):
        h = reg.histogram("lat")
        assert h.percentile(50) is None
        h.observe(1.0)
        # 1.0 is the upper bound of (0.5, 1.0]; the median interpolates
        # to that bucket's midpoint.
        assert h.percentile(50) == pytest.approx(0.75)

    def test_percentile_out_of_range_raises(self, reg):
        h = reg.histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_percentile_interpolates_inside_bucket(self, reg):
        h = reg.histogram("lat", buckets=(0.0, 10.0, 20.0))._default
        for v in (-1.0, 5.0, 5.0, 15.0):
            h.observe(v)
        # counts [1, 2, 1, 0]: the first quarter is the <= 0 bucket, the
        # next half spreads over (0, 10], the last quarter over (10, 20].
        assert h.percentile(0) == 0.0
        assert h.percentile(25) == 0.0
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(75) == pytest.approx(10.0)
        assert h.percentile(100) == pytest.approx(20.0)
        h.observe(99.0)  # +Inf bucket clamps to the last bound
        assert h.percentile(100) == 20.0

    def test_unsorted_bounds_rejected(self, reg):
        with pytest.raises(ValueError, match="sorted"):
            reg.histogram("h", buckets=(1.0, 0.5))

    def test_observe_many_of_nothing_is_a_noop(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe_many([])
        assert (h.count, h.sum, h.counts) == (0, 0.0, [0, 0])


BOUNDS = (-1.0, 0.0, 0.25, 2.5, 10.0)


@given(st.lists(
    st.one_of(
        st.sampled_from(BOUNDS),
        st.floats(-20.0, 20.0, allow_nan=False),
    ),
    max_size=80,
))
def test_observe_many_equals_observe_loop(values):
    looped = Histogram("a", bounds=BOUNDS)
    for v in values:
        looped.observe(v)
    bulk = Histogram("b", bounds=BOUNDS)
    bulk.observe_many(np.asarray(values, dtype=float))
    assert bulk.counts == looped.counts
    assert bulk.count == looped.count == len(values)
    assert bulk.sum == pytest.approx(looped.sum)


class TestDeltaPipe:
    def test_quiescent_registry_flushes_none(self, reg):
        reg.counter("c")
        assert reg.flush_deltas() is None

    def test_counter_delta_roundtrip(self, reg):
        parent = TelemetryRegistry()
        fam = reg.counter("jobs", labelnames=("kind",))
        fam.labels(kind="sim").inc(3)
        doc = reg.flush_deltas()
        assert doc["schema"] == DELTA_SCHEMA_ID
        parent.merge(doc)
        assert parent.counter(
            "jobs", labelnames=("kind",)
        ).labels(kind="sim").value == 3.0
        # Nothing new → no re-flush on either side.
        assert reg.flush_deltas() is None
        assert parent.flush_deltas() is None

    def test_incremental_flushes_never_double_count(self, reg):
        parent = TelemetryRegistry()
        c = reg.counter("c")
        c.inc(2)
        parent.merge(reg.flush_deltas())
        c.inc(5)
        parent.merge(reg.flush_deltas())
        assert parent.counter("c").value == 7.0

    def test_gauge_is_last_value_wins(self, reg):
        parent = TelemetryRegistry()
        g = reg.gauge("depth")
        g.set(5)
        parent.merge(reg.flush_deltas())
        g.set(2)
        parent.merge(reg.flush_deltas())
        assert parent.gauge("depth").value == 2.0

    def test_histogram_delta_merges_counts_sum_samples(self, reg):
        parent = TelemetryRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        parent.merge(reg.flush_deltas())
        h.observe(20.0)
        doc = reg.flush_deltas()
        assert set(doc["histograms"][0][2]) == {"bounds", "counts", "sum"}
        parent.merge(doc)
        merged = parent.histogram("lat", buckets=(1.0, 10.0))._default
        assert merged.counts == [1, 1, 1]
        assert merged.count == 3
        assert merged.sum == pytest.approx(25.5)
        # From the merged buckets: the median is mid-way through (1, 10].
        assert merged.percentile(50) == pytest.approx(5.5)

    def test_histogram_bounds_mismatch_raises(self, reg):
        parent = TelemetryRegistry()
        parent.histogram("lat", buckets=(1.0,)).observe(0.5)
        reg.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="mismatch"):
            parent.merge(reg.flush_deltas())

    def test_merge_rejects_unknown_schema(self, reg):
        with pytest.raises(ValueError, match="schema"):
            reg.merge({"schema": "bogus/9"})

    def test_merged_values_do_not_reflush(self, reg):
        """A parent that is itself flushed upward must not re-ship what
        it merely merged (watermarks advance on merge)."""
        child = TelemetryRegistry()
        child.counter("c").inc(4)
        reg.merge(child.flush_deltas())
        assert reg.flush_deltas() is None


class TestDefaults:
    def test_default_registry_swap(self):
        fresh = TelemetryRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)

    def test_concurrent_label_creation_is_safe(self, reg):
        fam = reg.counter("c", labelnames=("i",))
        errors = []

        def spin(base):
            try:
                for i in range(200):
                    fam.labels(i=str(i % 10)).inc()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=spin, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(child.value for child in fam.children())
        assert total == 800.0
