"""Sim-clock counter tracks from a run timeline."""

import pytest

from repro.obs.replay import replay_timeline
from repro.obs.tracer import Tracer, tracing

TIMELINE = [
    # (time_s, temp_c, pim_rate, pim_fraction)
    (0.0, 70.0, 0.1, 1.0),
    (0.001, 80.0, 0.2, 0.5),
    (0.002, 85.0, 0.05, 0.25),
]
TRACKS = ("sim.temp_c", "sim.pim_rate_ops_ns", "sim.pim_fraction")


class TestReplay:
    def test_processes_every_sample(self):
        summary = replay_timeline(TIMELINE, tracer=Tracer(enabled=True))
        assert summary["events"] == 3.0
        assert summary["sim_span_s"] == pytest.approx(0.002)

    def test_emits_sim_tracks_without_engine_span(self):
        tr = Tracer(enabled=True)
        replay_timeline(TIMELINE, tracer=tr)
        records = tr.records
        # Nothing but the three tracks: one sim-clock sample per row each.
        assert len(records) == len(TRACKS) * len(TIMELINE)
        assert not any(r["name"].startswith("engine") for r in records)
        for column, track in enumerate(TRACKS, start=1):
            samples = [r for r in records if r["name"] == track]
            assert all(
                r["ph"] == "C" and r["cat"] == "sim" and r["clock"] == "sim"
                for r in samples
            )
            # sim-µs timestamps in timeline order
            assert [r["ts"] for r in samples] == pytest.approx([0.0, 1e3, 2e3])
            assert [r["sim_ns"] for r in samples] == pytest.approx(
                [0.0, 1e6, 2e6]
            )
            assert [r["args"]["value"] for r in samples] == [
                row[column] for row in TIMELINE
            ]

    def test_defaults_to_global_tracer(self):
        with tracing() as tr:
            replay_timeline(TIMELINE)
        assert [r["name"] for r in tr.records].count("sim.temp_c") == 3

    def test_empty_timeline(self):
        summary = replay_timeline([], tracer=Tracer(enabled=True))
        assert summary["events"] == 0.0
        assert summary["sim_span_s"] == 0.0
