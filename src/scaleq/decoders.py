"""Toy-scale segmentation decoder heads built from the ops vocabulary.

Each head realizes the general fusion form: parallel branches ending in a
convolutional unit block, optional bilinear upsampling to a shared size,
channel concatenation, and a fusion unit block h, followed by a 1x1
classifier convolution and a final upsampling back to the input size.
The concatenation is never made: h's conv, and UPerHead's PPM conv, take
the list of subjects and fill their operand from each at its channel
offset (`autodiff.conv2d`).

The encoder returns every stage as a dict keyed by its downsampling ratio,
described once by `ToyEncoder.stage_channels()`.  Every head takes that
stage map in one constructor, `(rng, in_channels, channels, n_classes)`;
the single-stage heads read the deepest stage as C5.  A head defines its
branch list, each branch at its own size, and the base builds h and the
classifier.  `pooled_branches` is the one pool -> unit block routine of
UPerHead's PPM, PSPHead's pyramid and ASPPHead's image pool.
`SegModel.branches` is the one site where a fusion's branches are upsampled
to the shared size (`to_shared_size`, also inside UPerHead's PPM branch),
right before the equalizers.  The head tail `_classify` runs up to the
logits on that grid; `SegModel.forward` adds the logits upsample to the
input size, and `SegModel.project` is its adjoint.

All parameters are autodiff Vars so the same forwards serve the moment
audits, the statistics pass, and the toy training loop; `Module` finds
them by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import ops
from .errors import ConfigError, ContractError, ShapeError
from .equalizer import GlobalStats, calibrate_weights
from .tensor import Rng, randn

EQUALIZE_MODES = ("off", "injected", "calibrated")


def he_normal(rng: Rng, cout: int, cin: int, k: int, groups: int = 1) -> np.ndarray:
    """He fan-in initialization for ReLU unit blocks."""
    cin_g = cin // groups
    std = np.sqrt(2.0 / (cin_g * k * k))
    return randn((cout, cin_g, k, k), 0.0, std, rng)


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------

class Module:
    """Parameter registry after the named_parameters() idiom of
    torch.nn.Module: a unit's Vars are found by walking its Var, Module,
    list and dict attributes in definition order."""

    def named_params(self, prefix: str = ""):
        """Yield (dotted name, Var) pairs such as "head.fpn_units.8.weight"."""
        for name, value in vars(self).items():
            yield from _named(prefix + name, value)

    def params(self) -> list:
        return [p for _, p in self.named_params()]


def _named(name: str, value):
    if isinstance(value, ad.Var):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_params(name + ".")
    elif isinstance(value, (list, dict)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _named(f"{name}.{key}", item)


# ---------------------------------------------------------------------------
# unit blocks
# ---------------------------------------------------------------------------

class ConvUnit(Module):
    """One [Conv - BatchNorm - ReLU] unit block (gamma=1, beta=0 at init).
    `ad.unit_block` records its conv, batchnorm and relu nodes and releases
    the conv and batchnorm outputs; a subclass supplies only its `conv`."""

    def __init__(self, rng: Rng, cin: int, cout: int, k: int = 3, *,
                 stride: int = 1, dilation: int = 1):
        self.weight = ad.Var(he_normal(rng, cout, cin, k), requires_grad=True)
        self.gamma = ad.Var(np.ones(cout), requires_grad=True)
        self.beta = ad.Var(np.zeros(cout), requires_grad=True)
        self.stride = stride
        self.dilation = dilation
        self.pad_value = 0.0

    def conv(self, x: ad.Var) -> ad.Var:
        return ad.conv2d(x, self.weight, stride=self.stride, dilation=self.dilation,
                         pad_value=self.pad_value)

    def __call__(self, x: ad.Var) -> ad.Var:
        return ad.unit_block(self.conv, x, self.gamma, self.beta)


class SepConvUnit(ConvUnit):
    """Depthwise-separable unit block: its convolution is a depthwise conv
    then a pointwise conv, followed by ConvUnit's one BatchNorm + ReLU."""

    def __init__(self, rng: Rng, cin: int, cout: int, k: int = 3, *,
                 dilation: int = 1):
        self.dw_weight = ad.Var(he_normal(rng.split("dw"), cin, cin, k, groups=cin),
                                requires_grad=True)
        self.pw_weight = ad.Var(he_normal(rng.split("pw"), cout, cin, 1),
                                requires_grad=True)
        self.gamma = ad.Var(np.ones(cout), requires_grad=True)
        self.beta = ad.Var(np.zeros(cout), requires_grad=True)
        self.cin = cin
        self.dilation = dilation

    def conv(self, x: ad.Var) -> ad.Var:
        y = ad.conv2d(x, self.dw_weight, dilation=self.dilation, groups=self.cin)
        return ad.conv2d(y, self.pw_weight)


class Classifier(Module):
    """Final 1x1 convolution to N_c logits."""

    def __init__(self, rng: Rng, cin: int, n_classes: int):
        self.weight = ad.Var(he_normal(rng, n_classes, cin, 1), requires_grad=True)
        self.bias = ad.Var(np.zeros(n_classes), requires_grad=True)

    def __call__(self, x: ad.Var) -> ad.Var:
        return ad.conv2d(x, self.weight, self.bias)


class HeadOutput:
    """Logits plus the fusion subjects, raw and as fused, for the audits."""

    def __init__(self, logits, subjects_raw, subjects):
        self.logits = logits
        self.subjects_raw = subjects_raw      # post-upsample, pre-equalizer
        self.subjects = subjects              # as concatenated


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

class ToyEncoder(Module):
    """Randomly initialized strided unit blocks standing in for a pretrained
    backbone on RGB input: one stride-2 block per width.  Block i halves the
    size, so the forward returns every stage keyed by its ratio 2^(i+1), as
    `stage_channels` describes; the caller picks the depth (five stages for
    a multi-stage head, log2 of the output stride for a single-stage one)."""

    def __init__(self, rng: Rng, widths=(8, 16, 16, 32, 32)):
        self.widths = tuple(widths)
        self.blocks = []
        cin = 3
        for i, w in enumerate(self.widths):
            self.blocks.append(ConvUnit(rng.split(f"enc{i}"), cin, w, 3, stride=2))
            cin = w

    def forward(self, x) -> dict:
        x = ad.as_var(x)
        h, w = x.data.shape[2], x.data.shape[3]
        down = 2 ** len(self.blocks)
        if h % down or w % down:
            raise ShapeError(f"input {h}x{w} not divisible by {down}")
        feats = {}
        for ratio, blk in zip(self.stage_channels(), self.blocks):
            x = blk(x)
            feats[ratio] = x
        return feats

    def stage_channels(self) -> dict:
        return {2 ** (i + 1): w for i, w in enumerate(self.widths)}


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

class _HeadBase(Module):
    """Every head has one fixed configuration, built by one constructor
    `(rng, in_channels, channels, n_classes)` from the encoder's stage map;
    the single-stage heads read C5 as its deepest stage.  `branch_channels`
    is the width of each concatenation subject, in order: the fusion groups,
    whose count and sum are the branch count and the fusion block's input
    width.  `branches` returns the branch list at the branches' own sizes;
    `SegModel.branches` upsamples it to the shared size.  The base builds
    the fusion block and the classifier.  All upsampling is bilinear with
    align_corners=False."""

    kind = None
    fusion_stream = "fusion"            # rng stream of the fusion block

    def __init__(self, rng: Rng, branch_channels, channels: int, n_classes: int):
        self.equalize = "off"               # off | injected | calibrated
        self.stats: GlobalStats | None = None
        self.branch_channels = tuple(branch_channels)
        self.fusion_block = ConvUnit(rng.split(self.fusion_stream),
                                     sum(self.branch_channels), channels, 3)
        self.classifier = Classifier(rng.split("cls"), channels, n_classes)

    @property
    def n_branches(self) -> int:
        return len(self.branch_channels)

    def set_equalize(self, mode: str, stats: GlobalStats | None) -> None:
        """Set the equalizer mode.  "calibrated" folds the equalizers into
        the fusion weight and its padding once (the auxiliary
        initialization), so a calibrated head refuses any further call."""
        if self.equalize == "calibrated":
            raise ContractError(f"{self.kind} is calibrated already; build a "
                                f"fresh head for another mode")
        if mode not in EQUALIZE_MODES:
            raise ConfigError(f"unknown equalize mode {mode!r}")
        if mode != "off" and stats is None:
            raise ContractError("equalize mode requires global stats")
        if stats is not None and stats.n_branches != self.n_branches:
            raise ContractError(f"stats carry {stats.n_branches} branches, "
                                f"{self.kind} fuses {self.n_branches}")
        if mode == "calibrated":
            fusion = self.fusion_block
            # a batchnorm follows the fusion conv, so the bias correction goes
            fusion.weight.data, _, fusion.pad_value = calibrate_weights(
                fusion.weight.data, stats, self.branch_channels)
        self.equalize = mode
        self.stats = stats

    def branches(self, feats: dict) -> list:
        """The branch list, in `branch_channels` order, at its own sizes."""
        raise NotImplementedError

    def _classify(self, subjects_raw) -> HeadOutput:
        """The head tail up to the logits, on the subjects' grid: equalize
        (if injected), fuse the subject list, read as its concatenation,
        and classify."""
        if self.equalize == "injected":
            subjects = [ad.scale_equalize(s, mu, sigma)
                        for s, mu, sigma in zip(subjects_raw, self.stats.mu,
                                                self.stats.sigma)]
        else:
            subjects = subjects_raw
        z = self.fusion_block(subjects)
        return HeadOutput(self.classifier(z), subjects_raw, subjects)


def to_shared_size(branches) -> tuple:
    """Upsample every branch to the largest branch's size.  Returns
    (subjects_raw, ratios): the post-upsample, pre-equalizer subjects and
    each branch's ratio, shared height over the branch's height."""
    size = max(b.data.shape[2:] for b in branches)
    subjects = [ad.upsample_to(b, size) for b in branches]
    return subjects, tuple(size[0] / b.data.shape[2] for b in branches)


def pooled_branches(c5: ad.Var, bins, units) -> list:
    """The pyramid pooling module of PSPNet (Zhao et al., 2017), also
    UPerHead's PPM and ASPP's image pool: per bin b, adaptive average
    pooling of C5 to b x b and its unit block; a bin larger than C5 is the
    pool's ShapeError."""
    return [unit(ad.avgpool_to(c5, (b, b))) for b, unit in zip(bins, units)]


class UPerHead(_HeadBase):
    """Multi-stage fusion: laterals, PPM on C5, FPN top-down pathway, then
    fusion of {P2, UP2(P3), UP4(P4), UP8(P5)}."""

    kind = "uperhead"
    ppm_bins = (1, 2)

    def __init__(self, rng: Rng, in_channels: dict, channels: int, n_classes: int):
        super().__init__(rng, (channels,) * 4, channels, n_classes)
        self.laterals = {r: ConvUnit(rng.split(f"lat{r}"), in_channels[r],
                                     channels, 1) for r in (4, 8, 16)}
        self.ppm_units = [ConvUnit(rng.split(f"ppm{b}"), in_channels[32], channels, 1)
                          for b in self.ppm_bins]
        self.ppm_out = ConvUnit(rng.split("ppm_out"),
                                in_channels[32] + channels * len(self.ppm_bins),
                                channels, 3)
        self.fpn_units = {r: ConvUnit(rng.split(f"fpn{r}"), channels, channels, 3)
                          for r in (4, 8, 16, 32)}

    def branches(self, feats: dict):
        if not {4, 8, 16, 32} <= set(feats):
            raise ShapeError(f"uperhead needs features at ratios 4/8/16/32, "
                             f"got {sorted(feats)}")
        c5 = feats[32]
        ppm, _ = to_shared_size([c5] + pooled_branches(c5, self.ppm_bins,
                                                       self.ppm_units))
        laterals = {32: self.ppm_out(ppm)}
        for r in (16, 8, 4):
            laterals[r] = self.laterals[r](feats[r])
        merged = {32: laterals[32]}
        for r in (16, 8, 4):
            up = ad.upsample_to(merged[r * 2], laterals[r].data.shape[2:])
            merged[r] = ad.add(laterals[r], up)
        return [self.fpn_units[r](merged[r]) for r in (4, 8, 16, 32)]


class PSPHead(_HeadBase):
    """Single-stage fusion via the pyramid pooling module: adaptive average
    pooling to bins (1, 2, 3, 6), unit blocks, upsampling to C5 size,
    concatenation with C5 itself."""

    kind = "psphead"
    bins = (1, 2, 3, 6)

    def __init__(self, rng: Rng, in_channels: dict, channels: int, n_classes: int):
        self.stride = max(in_channels)            # C5 is the deepest stage
        cin = in_channels[self.stride]
        super().__init__(rng, (cin,) + (channels,) * len(self.bins),
                         channels, n_classes)
        self.units = [ConvUnit(rng.split(f"bin{b}"), cin, channels, 1)
                      for b in self.bins]

    def branches(self, feats: dict):
        c5 = feats[self.stride]
        return [c5] + pooled_branches(c5, self.bins, self.units)


class ASPPHead(_HeadBase):
    """Atrous spatial pyramid pooling: a global-average branch plus four
    unit blocks with atrous rates {1, a, 2a, 3a}, a = 96/s, s the ratio of
    C5."""

    kind = "aspphead"
    separable = False                 # depthwise-separable atrous units

    def __init__(self, rng: Rng, in_channels: dict, channels: int, n_classes: int):
        super().__init__(rng, (channels,) * 5, channels, n_classes)
        self.stride = max(in_channels)            # C5 is the deepest stage
        cin = in_channels[self.stride]
        if 96 % self.stride:
            raise ConfigError(f"atrous rate 96/{self.stride} is not an integer")
        a = 96 // self.stride
        self.rates = (1, a, 2 * a, 3 * a)
        self.gap_unit = ConvUnit(rng.split("gap"), cin, channels, 1)
        atrous = SepConvUnit if self.separable else ConvUnit
        self.rate_units = []
        for r in self.rates:
            sub = rng.split(f"rate{r}")
            self.rate_units.append(ConvUnit(sub, cin, channels, 1) if r == 1 else
                                   atrous(sub, cin, channels, 3, dilation=r))

    def branches(self, feats: dict):
        c5 = feats[self.stride]
        return (pooled_branches(c5, (1,), [self.gap_unit])
                + [unit(c5) for unit in self.rate_units])


class SepASPPHead(ASPPHead):
    kind = "sepaspphead"
    separable = True


class FCNHead(_HeadBase):
    """No-fusion baseline: two unit blocks on C5, then the classifier.  The
    second unit block is the fusion block, h over a single ratio-1 subject."""

    kind = "fcnhead"
    fusion_stream = "blk1"

    def __init__(self, rng: Rng, in_channels: dict, channels: int, n_classes: int):
        super().__init__(rng, (channels,), channels, n_classes)
        self.stride = max(in_channels)            # C5 is the deepest stage
        cin = in_channels[self.stride]
        self.unit = ConvUnit(rng.split("blk0"), cin, channels, 3)

    def branches(self, feats: dict):
        return [self.unit(feats[self.stride])]


HEADS = {"uperhead": UPerHead, "psphead": PSPHead, "aspphead": ASPPHead,
         "sepaspphead": SepASPPHead, "fcnhead": FCNHead}
HEAD_KINDS = tuple(HEADS)


class SegModel(Module):
    """Encoder + head, with the branch taps exposed for the stats pass."""

    def __init__(self, encoder: ToyEncoder, head):
        self.encoder = encoder
        self.head = head

    def forward(self, images) -> HeadOutput:
        out = self.head._classify(self.branches(images)[0])
        out.logits = ad.upsample_to(out.logits, images.shape[2:])
        return out

    def branches(self, images):
        """Encoder, the head's branches and their upsampling to the shared
        size, up to the equalizers: (subjects_raw, ratios)."""
        return to_shared_size(self.head.branches(self.encoder.forward(images)))

    def project(self, subjects_raw, upstream: np.ndarray) -> np.ndarray:
        """An input-size upstream U of `forward`'s logits, projected onto
        the logit grid (the subjects' size) by the adjoint of `forward`'s
        logits upsample, so that sum(`_classify` logits * projection) has
        the gradient of sum(`forward` logits * U)."""
        return ops.upsample_adjoint(upstream, subjects_raw[0].data.shape[2:])

    def tap_fn(self, batch) -> list:
        """Post-upsample, pre-concat branch features of one batch, from a
        forward pass that records no tape."""
        with ad.no_tape():
            return [s.data for s in self.branches(batch)[0]]


def build_head(kind: str, rng: Rng, encoder: ToyEncoder, channels: int,
               n_classes: int):
    if kind not in HEADS:
        raise ConfigError(f"unknown head kind {kind!r}")
    return HEADS[kind](rng, encoder.stage_channels(), channels, n_classes)
