import numpy as np
import pytest

from scaleq.equalizer import (GlobalStats, accumulate_stats, branch_moments,
                              calibrate_weights, load_stats, save_stats,
                              scale_equalize, STATS_HEADER)
from scaleq.errors import ContractError, DegenerateFeatureError, FileFormatError
from scaleq.experiments import equivalence_trial
from scaleq.tensor import Rng, moments, randn


def test_scale_equalize_values():
    np.testing.assert_array_equal(scale_equalize(np.array([1.0, 3.0]), 2.0, 1.0),
                                  [-1.0, 1.0])
    x = randn((1, 2, 4, 4), 0.7, 2.5, Rng(0))
    y = scale_equalize(x, 0.7, 2.5)
    np.testing.assert_allclose(y, (x - 0.7) / 2.5, rtol=1e-15)


def test_scale_equalize_rejects_bad_sigma():
    with pytest.raises(DegenerateFeatureError):
        scale_equalize(np.zeros(3), 0.0, 0.0)
    with pytest.raises(DegenerateFeatureError):
        scale_equalize(np.zeros(3), 0.0, -1.0)


def test_accumulator_two_samples():
    items = [np.full((1, 1, 2, 2), 1.0), np.full((1, 1, 2, 2), 3.0)]
    st = accumulate_stats(items, lambda b: [b], batch_size=1)
    assert st.mu == (2.0,)
    assert st.sigma == (1.0,)
    assert st.count == 2


def test_accumulator_merge_and_order():
    """Batches merge into the same moments in either order."""
    rng = Rng(1)
    taps = [[randn((1, 2, 4, 4), 0.1, 1.3, rng.split(f"{i}{j}"))
             for j in range(2)] for i in range(6)]
    ref = branch_moments(taps)
    merged = branch_moments(reversed(taps))
    for m, r in zip(merged, ref):
        assert m.mean == pytest.approx(r.mean, rel=1e-12)
        assert m.variance == pytest.approx(r.variance, rel=1e-12)
        assert m.count == r.count == 6 * 32


def test_accumulator_contracts():
    """The first batch fixes the branch count: no batches, a batch
    without taps and a later batch with another count are ContractErrors."""
    tap = np.zeros((1, 1, 2, 2))
    assert len(branch_moments([[tap, tap], [tap, tap]])) == 2
    with pytest.raises(ContractError):
        branch_moments([])                              # no batches
    with pytest.raises(ContractError):
        branch_moments(iter([]))                        # no batches, lazily
    with pytest.raises(ContractError):
        branch_moments([[]])                            # no taps
    with pytest.raises(ContractError):
        branch_moments([[], [tap]])
    with pytest.raises(ContractError):
        branch_moments([[tap, tap], [tap]])             # a changed count
    with pytest.raises(ContractError):
        branch_moments([[tap], [tap, tap]])
    with pytest.raises(ContractError):
        accumulate_stats([tap] * 3, lambda b: [b] * len(b), batch_size=1)


def test_constant_branch_needs_floor():
    items = [np.full((1, 1, 2, 2), 5.0)] * 2
    with pytest.raises(DegenerateFeatureError):
        accumulate_stats(items, lambda b: [b], batch_size=1)
    st = accumulate_stats(items, lambda b: [b], batch_size=1, sigma_floor=1e-3)
    assert st.mu == (5.0,)
    assert st.sigma == (1e-3,)


def test_accumulate_stats_matches_manual():
    rng = Rng(2)
    items = [randn((1, 3, 6, 6), 0.2, 0.9, rng.split(i)) for i in range(7)]

    sizes = []

    def tap_fn(batch):
        sizes.append(len(batch))
        return [batch, 2.0 * batch]

    st = accumulate_stats(items, tap_fn, batch_size=3)
    # the one-input tail joins the batch before it: batches of 3/4, merged
    # one by one; reproduce exactly
    assert sizes == [3, 4]
    batches = [np.concatenate(items[lo:hi], axis=0) for lo, hi in ((0, 3), (3, 7))]
    ref = branch_moments([[b, 2.0 * b] for b in batches])
    assert st == GlobalStats(tuple(m.mean for m in ref),
                             tuple(float(np.sqrt(m.variance)) for m in ref), 7)


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_accumulate_stats_independent_of_batch_size(batch_size):
    """A short last batch counts by its element count: 10 items whose last
    two are shifted by +5 give the whole-dataset moments at any batch size,
    and the count is the number of inputs."""
    rng = Rng(6)
    items = [randn((1, 2, 4, 4), 0.0, 1.0, rng.split(i)) + (5.0 if i >= 8 else 0.0)
             for i in range(10)]
    st = accumulate_stats(items, lambda b: [b, 3.0 * b - 1.0], batch_size)
    ref = moments(np.concatenate(items))
    np.testing.assert_allclose(st.mu, [ref.mean, 3.0 * ref.mean - 1.0], rtol=1e-12)
    sd = np.sqrt(ref.variance)
    np.testing.assert_allclose(st.sigma, [sd, 3.0 * sd], rtol=1e-12)
    assert st.count == 10


def test_accumulate_stats_large_offset():
    """Offset 1e4 with sigma 1e-3: E[x^2] - mu^2 would lose the variance to
    cancellation; per-batch two-pass moments merged by Chan's update keep it."""
    rng = Rng(7)
    items = [randn((1, 2, 4, 4), 1e4, 1e-3, rng.split(i)) for i in range(10)]
    ref = moments(np.concatenate(items))
    for batch_size in (1, 3, 8):
        st = accumulate_stats(items, lambda b: [b], batch_size)
        assert st.mu[0] == pytest.approx(ref.mean, rel=1e-15)
        assert st.sigma[0] == pytest.approx(np.sqrt(ref.variance), rel=1e-8)


def test_accumulate_stats_empty_dataset():
    with pytest.raises(ContractError):
        accumulate_stats([], lambda b: [b])


def test_calibrate_identity_stats_is_noop():
    w = randn((4, 6, 1, 1), 0.0, 1.0, Rng(3))
    st = GlobalStats((0.0, 0.0), (1.0, 1.0), 8)
    nw, correction, pad = calibrate_weights(w, st, (3, 3))
    np.testing.assert_array_equal(nw, w)
    np.testing.assert_array_equal(correction, 0.0)
    np.testing.assert_array_equal(pad, 0.0)


def test_calibrate_scales_groups():
    w = np.full((1, 4, 1, 1), 4.0)
    st = GlobalStats((0.0, 0.0), (2.0, 4.0), 8)
    nw, _, _ = calibrate_weights(w, st, (2, 2))
    np.testing.assert_array_equal(nw[0, :, 0, 0], [2.0, 2.0, 1.0, 1.0])


def test_calibrate_bias_formula():
    # y' = sum_i w_i (x_i - mu_i)/sigma_i + b  must equal  w'x + b - correction
    rng = Rng(4)
    w = randn((3, 5, 2, 2), 0.0, 1.0, rng.split("w"))
    st = GlobalStats((0.5, -1.2), (1.7, 0.3), 8)
    nw, correction, _ = calibrate_weights(w, st, (2, 3))
    expect = np.zeros(3)
    for (a, c), mu, sigma in zip([(0, 2), (2, 5)], st.mu, st.sigma):
        expect += (mu / sigma) * w[:, a:c].sum(axis=(1, 2, 3))
        np.testing.assert_array_equal(nw[:, a:c], w[:, a:c] / sigma)
    np.testing.assert_allclose(correction, expect, rtol=1e-12)


def test_calibrate_group_validation():
    w = np.zeros((2, 4, 1, 1))
    st2 = GlobalStats((0.0, 0.0), (1.0, 1.0), 8)
    with pytest.raises(ContractError):
        calibrate_weights(w, st2, (4,))                 # count mismatch
    with pytest.raises(ContractError):
        calibrate_weights(w, st2, (4, 0))               # a zero width
    with pytest.raises(ContractError):
        calibrate_weights(w, st2, (2, 3))               # more than the channels
    with pytest.raises(ContractError):
        calibrate_weights(w, st2, (2, 1))               # fewer than the channels
    with pytest.raises(DegenerateFeatureError):
        calibrate_weights(w, GlobalStats((0.0, 0.0), (1.0, 0.0), 8), (2, 2))


def test_branch_pad_values():
    """Each input channel pads with its branch's mean, and the pad spans
    pass the same width check as the weight groups."""
    w = np.zeros((2, 5, 3, 3))
    st = GlobalStats((0.25, -3.0), (1.0, 1.0), 8)
    _, _, pv = calibrate_weights(w, st, (2, 3))
    np.testing.assert_array_equal(pv, [0.25, 0.25, -3.0, -3.0, -3.0])
    with pytest.raises(ContractError):
        calibrate_weights(w, st, (2, 2))                # short of the channels


def test_equivalence_trial_exact():
    """Injected equalizer vs calibrated fusion weights on a random
    three-branch fusion: identical pre-BN (the bias minus the fold's
    correction) and post-BN (the bias unchanged)."""
    rng = Rng(5)
    for t in range(10):
        pre, post = equivalence_trial(rng.split(t))
        assert pre < 1e-10
        assert post < 1e-10


def test_stats_roundtrip(tmp_path):
    st = GlobalStats((0.1234567890123, -2.0), (1.5e-7, 3.25), 256)
    path = tmp_path / "stats.csv"
    save_stats(path, st)
    back = load_stats(path)
    assert back == st


def test_stats_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a stats file\n0,1,1,1\n")
    with pytest.raises(FileFormatError):
        load_stats(path)


@pytest.mark.parametrize("row", ["0,1.0,2.", "0,1.0,abc,8", "0,1.0,2.0,8,9",
                                 "0,1.0,2.0,8", "2,1.0,2.0,8", "x,1.0,2.0,8",
                                 "1,1.0,2.0,7", "1,1.0,2.0,1"])
def test_stats_malformed_row(tmp_path, row):
    """A second row that is cut, non-numeric, too long, not branch 1, or
    with another count than the first row."""
    path = tmp_path / "bad.csv"
    path.write_text(f"{STATS_HEADER}\nbranch,mu,sigma,count\n0,0.5,1.5,8\n{row}\n")
    with pytest.raises(FileFormatError):
        load_stats(path)


@pytest.mark.parametrize("text", [
    f"{STATS_HEADER}\n",
    f"{STATS_HEADER}\nbranch,mu,sigma,count\n",
    f"{STATS_HEADER}\n0,0.5,1.5,8\n1,0.5,1.5,8\n",
    f"{STATS_HEADER}\nbranch,sigma,mu,count\n0,0.5,1.5,8\n",
    f"{STATS_HEADER}\nbranch,mu,sigma,count\n1,0.5,1.5,8\n",
    "# scaleq global-stats v1\nbranch,mu,sigma,count\n0,0.5,1.5,8\n",
], ids=["cut-after-header", "zero-rows", "no-column-line", "wrong-column-line",
        "first-branch-not-0", "v1-count-in-batches"])
def test_stats_bad_layout(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FileFormatError):
        load_stats(path)
