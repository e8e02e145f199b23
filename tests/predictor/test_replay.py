"""The per-thread replay workspace and the decompress input checks.

Compress and decompress run each level's compiled :class:`ReplayProgram`
over one workspace per thread, reused across calls and capped in bytes.
These tests pin that reuse never changes a byte: across many shapes under a
small cap, across threads, after the workspace regrows, and that nothing a
call returns points into it, that what a previous non-finite field left in
it raises no warning, and that bindings do not outlive their program.
They also pin the typed errors of an ``outliers`` segment whose length
disagrees with the codes.
"""

import threading
import warnings

import numpy as np
import pytest

import repro.api as api
import repro.predictor.interpolation as interpolation
from repro.core.cache import ByteBudgetLRU
from repro.core.container import CompressedBlob
from repro.predictor.interpolation import InterpolationPredictor, LevelConfig

MIXED = {
    8: LevelConfig("1d", "linear"),
    4: LevelConfig("md", "natural_cubic"),
    2: LevelConfig("1d", "cubic"),
    1: LevelConfig("md", "linear"),
}


def field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(shape), axis=-1).astype(np.float32)


def round_trip(x, cfgs=None, eb=1e-2):
    """``(codes, outliers, recon, decompressed)`` bytes of one round trip."""
    pred = InterpolationPredictor(16)
    res = pred.compress(x, eb, cfgs)
    out = pred.decompress(
        res.codes, res.anchors, res.outlier_values, x.shape, eb, res.level_configs, x.dtype
    )
    return res.codes.tobytes(), res.outlier_values.tobytes(), res.recon.tobytes(), out.tobytes()


def in_fresh_thread(fn, *args):
    """``fn(*args)`` in a new thread, so on a workspace of its own."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn(*args)))
    t.start()
    t.join()
    return box[0]


#: 24 distinct shapes, 1-D to 4-D, from a few points to 64^3
SHAPES = [
    (7,), (33,), (100,), (1000,), (9, 10), (17, 33), (40, 41), (96, 192), (150, 70),
    (5, 7, 9), (16, 16, 16), (17, 18, 19), (24, 9, 30), (32, 32, 32), (33, 33, 33),
    (40, 20, 10), (48, 48, 48), (64, 64, 64), (3, 4, 5, 6), (6, 5, 9, 17), (8, 8, 8, 8),
    (2, 300), (300, 2), (1, 1, 500),
]


class TestWorkspace:
    def test_retained_bytes_stay_under_the_cap(self, monkeypatch):
        """Under a 1 MiB cap, shapes that need more run on buffers of their
        own; the retained workspace never passes the cap and every round
        trip matches one on a fresh, uncapped workspace."""
        want = {shape: in_fresh_thread(round_trip, field(shape)) for shape in SHAPES}
        cap = 1 << 20
        monkeypatch.setattr(interpolation, "WORKSPACE_BYTES", cap)

        def run():
            sizes = []
            for shape in SHAPES:
                assert round_trip(field(shape)) == want[shape]
                sizes.append(interpolation._LOCAL.workspace.nbytes)
            return sizes

        sizes = in_fresh_thread(run)
        assert max(sizes) <= cap
        assert len(set(sizes)) > 1  # it did grow, and it did hit the cap

    def test_threads_match_serial_calls(self):
        """Two threads compress and decompress different shapes at once,
        each through its own workspace, and get the serial bytes."""
        jobs = [((64, 64, 64), None), ((96, 192), MIXED), ((33, 17, 40), MIXED), ((15, 33), None)]
        want = [in_fresh_thread(round_trip, field(shape, k), cfgs) for k, (shape, cfgs) in enumerate(jobs)]
        barrier = threading.Barrier(2)
        got = {}

        def worker(which):
            barrier.wait()
            for _ in range(3):
                for k in range(which, len(jobs), 2):
                    shape, cfgs = jobs[k]
                    got.setdefault(k, []).append(round_trip(field(shape, k), cfgs))

        threads = [threading.Thread(target=worker, args=(w,)) for w in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k, results in got.items():
            assert all(r == want[k] for r in results)

    def test_regrown_workspace_is_bit_identical(self):
        """A 64^3 decompress after a 96x192 one grows the workspace and
        rebinds every program; the bytes are those of a fresh thread."""
        big, wide = field((64, 64, 64), 1), field((96, 192), 2)
        want = in_fresh_thread(round_trip, big)

        def run():
            round_trip(wide)
            before = interpolation._LOCAL.workspace
            result = round_trip(big)
            assert interpolation._LOCAL.workspace is not before
            return result

        assert in_fresh_thread(run) == want

    def test_results_never_alias_the_workspace(self):
        x = field((33, 17, 40))
        pred = InterpolationPredictor(8)
        res = pred.compress(x, 1e-3, MIXED)
        out = pred.decompress(
            res.codes, res.anchors, res.outlier_values, x.shape, 1e-3, res.level_configs, x.dtype
        )
        buf = interpolation._LOCAL.workspace.buf
        for arr in (res.codes, res.anchors, res.outlier_values, res.recon, out):
            assert not np.shares_memory(arr, buf)


class TestOutlierCount:
    @staticmethod
    def _blob(change):
        """A cusz-hi blob with outliers whose ``outliers`` segment ``change``
        rewrites, its CRCs re-sealed."""
        x = np.random.default_rng(3).standard_normal((18, 21, 20)).astype(np.float32)
        blob = CompressedBlob.from_bytes(api.compress(x, codec="cusz-hi", eb=1e-4).to_bytes())
        values = blob.get_array("outliers").copy()
        assert values.size > 1
        blob.put_array("outliers", change(values))
        return blob.to_bytes(), values.size

    @pytest.mark.parametrize(
        "change, delta",
        [(lambda v: v[:-1], -1), (lambda v: np.concatenate([v, v[:1]]), 1)],
        ids=["short", "long"],
    )
    def test_segment_length_must_match_the_codes(self, change, delta):
        body, n = self._blob(change)
        with pytest.raises(ValueError, match=f"holds {n + delta} values but the codes mark {n} "):
            api.decompress(body)


class TestStaleWorkspace:
    @pytest.mark.parametrize(
        "poison, shape, cfg",
        [
            ((2, 2000), (1, 2000), LevelConfig("1d", "cubic")),
            ((64, 64, 2), (64, 64, 1), LevelConfig("md", "cubic")),
        ],
        ids=["1d-size-1-axis", "md-size-1-axis"],
    )
    def test_finite_field_after_a_non_finite_one_raises_no_warning(self, poison, shape, cfg):
        """A level with a size-1 axis skips the passes along it, so no round
        writes their planes, yet the flat runs read into them.  After a
        field of +-Inf and NaN left those workspace entries non-finite, a
        finite field of that shape still compresses and decompresses with
        every RuntimeWarning an error, to the bytes of a fresh thread."""
        cfgs = {s: cfg for s in (8, 4, 2, 1)}
        x = field(shape, 5)
        want = in_fresh_thread(round_trip, x, cfgs)
        bad = np.full(poison, np.inf, dtype=np.float32)
        bad.reshape(-1)[1::2] = -np.inf
        bad.reshape(-1)[::7] = np.nan
        errors = []

        def run():
            with np.errstate(all="ignore"):  # a non-finite field may warn
                round_trip(bad, cfgs)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    return round_trip(x, cfgs)
                except RuntimeWarning as exc:
                    errors.append(exc)

        got = in_fresh_thread(run)
        assert errors == []
        assert got == want


def test_bindings_leave_with_their_program():
    """A thread's bindings hold the arrays of their program's operations;
    once the program leaves the replay-program cache, they go too."""

    def run(cache):
        saved = interpolation._REPLAYS
        interpolation._REPLAYS = cache
        try:
            round_trip(field((33, 17, 40)), MIXED)
        finally:
            interpolation._REPLAYS = saved
        return len(interpolation._LOCAL.workspace.bound)

    assert in_fresh_thread(run, ByteBudgetLRU(16 << 20)) == 4
    assert in_fresh_thread(run, ByteBudgetLRU(0)) == 0  # keeps no program
