"""Scale equalizer: global normalization per fusion branch, the dataset
statistics pass, and the equivalent one-shot weight calibration.

The equalizer replaces each concatenation subject x_i by (x_i - mu_i)/sigma_i
using dataset-global scalars.  Folding the same affine map into the fusion
convolution (w_i' = w_i / sigma_i plus a bias correction) gives an exactly
equivalent network with zero cost in the training path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateFeatureError, FileFormatError
from .tensor import Moments, moments

STATS_HEADER = "# scaleq global-stats v1"
STATS_COLUMNS = "branch,mu,sigma,count"


def scale_equalize(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """(x - mu) / sigma with constant mu, sigma."""
    if sigma <= 0:
        raise DegenerateFeatureError(f"sigma must be positive, got {sigma}")
    return (np.asarray(x) - mu) / sigma


@dataclass(frozen=True)
class GlobalStats:
    """Finalized per-branch global mean/std over a statistics dataset."""

    mu: tuple
    sigma: tuple
    count: int

    @property
    def n_branches(self) -> int:
        return len(self.mu)


class StatsAccumulator:
    """Streaming per-branch moments over the dataset, one `add` per sample
    or mini-batch.  Batches combine with Chan's parallel update weighted by
    element count, so a short last batch counts only for what it holds."""

    def __init__(self, n_branches: int):
        if n_branches < 1:
            raise ContractError("need at least one branch")
        self.moments = [Moments(0.0, 0.0, 0)] * n_branches
        self.count = 0                       # add() calls, as in GlobalStats

    def add(self, taps) -> None:
        if len(taps) != len(self.moments):
            raise ContractError(
                f"expected {len(self.moments)} branch taps, got {len(taps)}")
        self.moments = [m.merge(moments(tap)) for m, tap in zip(self.moments, taps)]
        self.count += 1

    def finalize(self, sigma_floor: float | None = None) -> GlobalStats:
        if self.count == 0:
            raise ContractError("no samples accumulated")
        mu = [m.mean for m in self.moments]
        sigma = [float(np.sqrt(m.variance)) for m in self.moments]
        for i, s in enumerate(sigma):
            if s <= 0.0:
                if sigma_floor is None:
                    raise DegenerateFeatureError(
                        f"branch {i} is constant over the stats dataset "
                        f"(sigma == 0); use a sigma floor only if this is "
                        f"intentional")
                sigma[i] = sigma_floor
        return GlobalStats(tuple(mu), tuple(sigma), self.count)


def accumulate_stats(dataset, tap_fn, n_branches: int, batch_size: int = 8,
                     sigma_floor: float | None = None) -> GlobalStats:
    """One full pass over `dataset` (a sequence of input tensors), calling
    `tap_fn(batch) -> list of branch tensors` per mini-batch and merging the
    per-batch moments by element count.  Model weights are untouched."""
    items = list(dataset)
    if not items:
        raise ContractError("stats dataset is empty")
    acc = StatsAccumulator(n_branches)
    for lo in range(0, len(items), batch_size):
        batch = np.concatenate(items[lo:lo + batch_size], axis=0)
        acc.add(tap_fn(batch))
    return acc.finalize(sigma_floor)


def channel_spans(groups, channels: int) -> list[tuple[int, int]]:
    """The (start, stop) groups as int pairs in their given order, checked
    to tile [0, channels) exactly once."""
    spans = [(int(a), int(b)) for a, b in groups]
    error = ContractError(f"groups {spans} do not tile [0, {channels}) exactly")
    cursor = 0
    for a, b in sorted(spans):
        if a != cursor or b <= a:
            raise error
        cursor = b
    if cursor != channels:
        raise error
    return spans


def calibrate_weights(weight: np.ndarray, bias: np.ndarray | None,
                      stats: GlobalStats, groups, *, bias_skip: bool = False):
    """Fold the equalizers of each branch into the fusion layer:
    w_i' = w_i / sigma_i per channel group, and (unless skipped because a
    batch normalization follows) b' = b - sum_i mu_i/sigma_i * sum(w_i)
    aggregated over the group's channels and spatial kernel taps."""
    weight = np.asarray(weight, dtype=np.float64)
    spans = channel_spans(groups, weight.shape[1])
    if len(spans) != stats.n_branches:
        raise ContractError(
            f"{len(spans)} groups vs {stats.n_branches} branches in stats")
    new_w = weight.copy()
    correction = np.zeros(weight.shape[0])
    for (a, b), mu, sigma in zip(spans, stats.mu, stats.sigma):
        if sigma <= 0:
            raise DegenerateFeatureError(f"sigma <= 0 for group {(a, b)}")
        new_w[:, a:b] = weight[:, a:b] / sigma
        correction += (mu / sigma) * weight[:, a:b].sum(axis=tuple(range(1, weight.ndim)))
    if bias_skip:
        new_b = None if bias is None else np.array(bias, dtype=np.float64)
    else:
        base = np.zeros(weight.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
        new_b = base - correction
    return new_w, new_b


def branch_pad_values(stats: GlobalStats, groups) -> np.ndarray:
    """Per-input-channel pad constants for the calibrated fusion conv: each
    branch's channels pad with its global mean, so zero padding of the
    equalized feature and mean padding of the raw feature coincide."""
    spans = [(int(a), int(b)) for a, b in groups]
    size = max(b for _, b in spans)
    out = np.zeros(size)
    for (a, b), mu in zip(spans, stats.mu):
        out[a:b] = mu
    return out


def save_stats(path, stats: GlobalStats) -> None:
    lines = [STATS_HEADER, STATS_COLUMNS]
    for i, (mu, sigma) in enumerate(zip(stats.mu, stats.sigma)):
        lines.append(f"{i},{mu!r},{sigma!r},{stats.count}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_stats(path) -> GlobalStats:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if lines[:2] != [STATS_HEADER, STATS_COLUMNS] or len(lines) < 3:
        raise FileFormatError(f"{path} is not a scaleq stats file with branch rows")
    mu, sigma, count = [], [], 0
    for i, ln in enumerate(lines[2:]):
        try:
            branch, m, s, c = ln.split(",")
            mu.append(float(m))
            sigma.append(float(s))
            count = int(c)
        except ValueError:
            raise FileFormatError(f"{path}: malformed stats row {ln!r}") from None
        if branch != str(i):
            raise FileFormatError(f"{path}: row {ln!r} is not branch {i}")
    return GlobalStats(tuple(mu), tuple(sigma), count)
