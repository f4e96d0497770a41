"""Scale equalizer: global normalization per fusion branch, in two steps.

The equalizer replaces each concatenation subject x_i by (x_i - mu_i)/sigma_i
using dataset-global scalars.  `accumulate_stats` measures them in one pass
over a statistics dataset.  `calibrate_weights` folds the same map into the
fusion convolution once (w_i / sigma_i, a bias correction, mean padding):
an exactly equivalent network with zero cost in the training path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateFeatureError, FileFormatError
from .tensor import Moments, moments

STATS_HEADER = "# scaleq global-stats v2"
STATS_COLUMNS = "branch,mu,sigma,count"


def scale_equalize(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """(x - mu) / sigma with constant mu, sigma."""
    if sigma <= 0:
        raise DegenerateFeatureError(f"sigma must be positive, got {sigma}")
    return (np.asarray(x) - mu) / sigma


@dataclass(frozen=True)
class GlobalStats:
    """Per-branch global mean/std over a statistics dataset of count inputs."""

    mu: tuple
    sigma: tuple
    count: int

    @property
    def n_branches(self) -> int:
        return len(self.mu)


def branch_moments(tap_batches) -> list[Moments]:
    """Per-branch moments of a sequence of per-batch tap lists, whose
    first batch fixes the branch count.  Batches combine with Chan's
    parallel update weighted by element count, so a short last batch counts
    only for what it holds."""
    merged = []
    for taps in tap_batches:
        if not taps:
            raise ContractError("a batch has no branch taps")
        merged = merged or [Moments(0.0, 0.0, 0)] * len(taps)
        if len(taps) != len(merged):
            raise ContractError(f"expected {len(merged)} branch taps, got {len(taps)}")
        merged = [m.merge(moments(tap)) for m, tap in zip(merged, taps)]
    if not merged:
        raise ContractError("no tap batches")
    return merged


def accumulate_stats(dataset, tap_fn, batch_size: int = 8,
                     sigma_floor: float | None = None) -> GlobalStats:
    """One full pass over `dataset` (a sequence of input tensors), calling
    `tap_fn(batch) -> list of branch tensors` per mini-batch and merging the
    per-batch moments by element count.  A last batch of one input joins
    the batch before it, since batchnorm cannot normalize a 1x1 pooled map
    over one image.  A branch that is constant over the dataset takes
    sigma_floor, if given.  Model weights are untouched."""
    items = list(dataset)
    if not items:
        raise ContractError("stats dataset is empty")
    starts = list(range(0, len(items), batch_size))
    if len(starts) > 1 and starts[-1] == len(items) - 1:
        starts.pop()
    batches = (np.concatenate(items[lo:hi], axis=0)
               for lo, hi in zip(starts, starts[1:] + [len(items)]))
    merged = branch_moments(map(tap_fn, batches))
    sigma = [float(np.sqrt(m.variance)) for m in merged]
    for i, s in enumerate(sigma):
        if s <= 0.0:
            if sigma_floor is None:
                raise DegenerateFeatureError(
                    f"branch {i} is constant over the stats dataset (sigma == 0); "
                    f"use a sigma floor only if this is intentional")
            sigma[i] = sigma_floor
    return GlobalStats(tuple(m.mean for m in merged), tuple(sigma), len(items))


def channel_spans(widths, channels: int) -> list[tuple[int, int]]:
    """The (start, stop) span of each channel group of the given widths,
    in order; every width is at least 1 and they sum to `channels`."""
    widths = [int(w) for w in widths]
    if not widths or min(widths) < 1 or sum(widths) != channels:
        raise ContractError(f"group widths {widths} do not split {channels} channels")
    edges = np.cumsum([0] + widths).tolist()
    return list(zip(edges[:-1], edges[1:]))


def calibrate_weights(weight: np.ndarray, stats: GlobalStats, widths):
    """Fold the equalizers of each branch into the fusion layer:
    w_i' = w_i / sigma_i per channel group of the given widths.  Returns
    (w', correction, pad): b' = b - correction, where correction = sum_i
    mu_i/sigma_i * sum(w_i) over the group's channels and kernel taps (b' = b
    under a following batchnorm); pad gives each input channel its branch's
    mean, so that mean padding of x_i is zero padding of the equalized x_i."""
    weight = np.asarray(weight, dtype=np.float64)
    spans = channel_spans(widths, weight.shape[1])
    if len(spans) != stats.n_branches:
        raise ContractError(f"{len(spans)} groups vs {stats.n_branches} branches in stats")
    new_w = weight.copy()
    correction = np.zeros(weight.shape[0])
    pad = np.zeros(weight.shape[1])
    for (a, b), mu, sigma in zip(spans, stats.mu, stats.sigma):
        if sigma <= 0:
            raise DegenerateFeatureError(f"sigma <= 0 for group {(a, b)}")
        new_w[:, a:b] = weight[:, a:b] / sigma
        correction += (mu / sigma) * weight[:, a:b].sum(axis=tuple(range(1, weight.ndim)))
        pad[a:b] = mu
    return new_w, correction, pad


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
        raise FileFormatError(f"{path} is not a {STATS_HEADER!r} file with branch rows")
    mu, sigma, counts = [], [], set()
    for i, ln in enumerate(lines[2:]):
        try:
            branch, m, s, c = ln.split(",")
            mu.append(float(m))
            sigma.append(float(s))
            counts.add(int(c))
        except ValueError:
            raise FileFormatError(f"{path}: malformed stats row {ln!r}") from None
        if branch != str(i):
            raise FileFormatError(f"{path}: row {ln!r} is not branch {i}")
    if len(counts) != 1:
        raise FileFormatError(f"{path}: rows give counts {sorted(counts)}")
    return GlobalStats(tuple(mu), tuple(sigma), counts.pop())
