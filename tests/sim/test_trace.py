"""Operation batches and trace cursors."""

import pytest

from repro.sim.trace import OpBatch, TraceCursor


class TestOpBatch:
    def test_validation_rejects_negative(self):
        with pytest.raises(ValueError):
            OpBatch(reads=-1, writes=0, atomics=0)

    def test_with_return_bounded_by_atomics(self):
        with pytest.raises(ValueError):
            OpBatch(reads=0, writes=0, atomics=2, atomics_with_return=3)

    def test_divergence_bounds(self):
        with pytest.raises(ValueError):
            OpBatch(reads=0, writes=0, atomics=0, divergent_warp_ratio=1.5)

    def test_total_ops(self):
        b = OpBatch(reads=3, writes=2, atomics=5)
        assert b.total_ops == 10

    def test_scaled_rounds_counts(self):
        b = OpBatch(reads=10, writes=4, atomics=7, atomics_with_return=3,
                    compute_cycles=100, threads=64)
        s = b.scaled(0.5)
        assert (s.reads, s.writes, s.atomics) == (5, 2, 4)
        assert s.atomics_with_return == 2
        assert s.compute_cycles == 50

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            OpBatch(1, 1, 1).scaled(-0.5)

    def test_frozen(self):
        b = OpBatch(1, 1, 1)
        with pytest.raises(Exception):
            b.reads = 5


class TestMerge:
    """``TraceCursor.totals`` merges every epoch into one batch."""

    def test_merge_sums_counts(self):
        a = OpBatch(reads=1, writes=2, atomics=3, compute_cycles=10, threads=32)
        b = OpBatch(reads=10, writes=20, atomics=30, compute_cycles=5, threads=32)
        m = TraceCursor([a, b]).totals()
        assert (m.reads, m.writes, m.atomics) == (11, 22, 33)
        assert m.compute_cycles == 15
        assert m.threads == 64

    def test_merge_weights_divergence_by_threads(self):
        a = OpBatch(0, 0, 0, threads=10, divergent_warp_ratio=1.0)
        b = OpBatch(0, 0, 0, threads=30, divergent_warp_ratio=0.0)
        assert TraceCursor([a, b]).totals().divergent_warp_ratio == pytest.approx(0.25)

    def test_merge_empty(self):
        m = TraceCursor([]).totals()
        assert m.total_ops == 0


class TestCursor:
    def _cursor(self):
        return TraceCursor(OpBatch(reads=i, writes=0, atomics=0) for i in range(3))

    def test_iterates_in_order(self):
        cur = self._cursor()
        assert [b.reads for b in cur] == [0, 1, 2]

    def test_next_until_exhausted(self):
        cur = self._cursor()
        seen = []
        while not cur.exhausted:
            seen.append(cur.next().reads)
        assert seen == [0, 1, 2]
        assert cur.next() is None

    def test_rewind_replays(self):
        cur = self._cursor()
        cur.next()
        cur.next()
        cur.rewind()
        assert cur.position == 0
        assert cur.next().reads == 0

    def test_totals_ignores_position(self):
        cur = self._cursor()
        cur.next()
        assert cur.totals().reads == 3

    def test_len(self):
        assert len(self._cursor()) == 3


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        batches = [
            OpBatch(reads=i * 10, writes=i, atomics=i * 3,
                    atomics_with_return=i, compute_cycles=i * 7,
                    threads=64, divergent_warp_ratio=0.25,
                    label=f"epoch-{i}")
            for i in range(1, 6)
        ]
        cur = TraceCursor(batches)
        path = tmp_path / "trace.npz"
        cur.save(path)
        loaded = TraceCursor.load(path)
        assert len(loaded) == len(cur)
        for a, b in zip(cur, loaded):
            assert a == b

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        TraceCursor([]).save(path)
        assert len(TraceCursor.load(path)) == 0

    def test_archive_contains_exactly_the_field_arrays(self, tmp_path):
        # Regression: ``savez_compressed(path, allow_pickle=True, **arrays)``
        # silently saved a bogus array named "allow_pickle" (every kwarg
        # becomes an archive member), polluting the archive.
        import numpy as np

        path = tmp_path / "trace.npz"
        TraceCursor([OpBatch(reads=1, writes=2, atomics=3, label="x")]).save(path)
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted([
                "reads", "writes", "atomics", "atomics_with_return",
                "compute_cycles", "threads", "divergence", "labels",
            ])

    def test_labels_load_without_pickle(self, tmp_path):
        # str_ dtype arrays need no pickling, so a fresh archive must be
        # readable even with allow_pickle=False.
        path = tmp_path / "trace.npz"
        TraceCursor([OpBatch(1, 1, 1, label="epoch-0")]).save(path)
        loaded = TraceCursor.load(path)
        assert loaded.next().label == "epoch-0"

    def test_multi_thousand_epoch_roundtrip(self, tmp_path):
        # Loading reads each column once; indexing archive members per
        # epoch decompressed a whole column per access (quadratic).
        import time

        batches = [
            OpBatch(reads=7 * i, writes=i, atomics=3 * i,
                    atomics_with_return=i, compute_cycles=11 * i,
                    threads=i % 977 + 1,
                    divergent_warp_ratio=(i % 101) / 100.0,
                    label=f"level-{i}/q{i % 128}")
            for i in range(12_000)
        ]
        path = tmp_path / "long.npz"
        TraceCursor(batches).save(path)
        t0 = time.perf_counter()
        loaded = list(TraceCursor.load(path))
        elapsed = time.perf_counter() - t0
        assert loaded == batches
        assert all(type(b.reads) is int and type(b.label) is str
                   for b in loaded[:3])
        assert elapsed < 5.0, f"load took {elapsed:.2f} s"

    def test_object_dtype_archive_rejected(self, tmp_path):
        # Loading must never unpickle: an archive whose labels were saved
        # as an object array is refused, not executed.
        import numpy as np

        path = tmp_path / "pickled.npz"
        cols = {k: np.zeros(1, dtype=np.int64) for k in (
            "reads", "writes", "atomics", "atomics_with_return",
            "compute_cycles", "threads")}
        cols["divergence"] = np.zeros(1)
        cols["labels"] = np.array(["x"], dtype=object)
        np.savez(path, **cols)
        with pytest.raises(ValueError):
            TraceCursor.load(path)
