"""Channel and spatial attention over [C, H, W] feature maps.

The channel module squeezes spatial extent with parallel avg/max pooling,
pushes both descriptors through one shared two-layer MLP (ReLU hidden),
sums, and gates with a sigmoid.  The spatial module stacks channel-wise
avg/max maps and convolves them with a single 7x7 filter before the
sigmoid.  ``refine`` multiplies the feature map by one gate, and the
gate's shape says which: [..., C, 1, 1] gates channels and [..., 1, H, W]
gates pixels.  ``gate`` is the one entry point for an insertion point's
parameters: a channel + spatial pair, or one gate alone.  It calls
``refine`` once, so each ``refine`` call is one attention application.

All ops accept an optional leading batch axis in front of [C, H, W].
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import InvalidParam, ShapeMismatch
from .tensor import Tensor

SPATIAL_KERNEL_SIZE = 7
SPATIAL_PAD = 3


def effective_reduction(channels, ratio):
    """Largest divisor of ``channels`` that does not exceed ``ratio``."""
    if ratio < 1:
        raise InvalidParam(f"reduction ratio must be >= 1, got {ratio}")
    return max(d for d in range(1, ratio + 1) if channels % d == 0)


@dataclass
class ChannelAttentionParams:
    """Shared-MLP weights: w0 [C/r, C] squeezes, w1 [C, C/r] restores."""

    w0: Tensor
    w1: Tensor
    reduction: int

    def __post_init__(self):
        c_hidden, c = self.w0.shape
        if self.w1.shape != (c, c_hidden):
            raise ShapeMismatch(f"w1 {self.w1.shape} must be transpose-shaped to w0 {self.w0.shape}")
        if c % self.reduction != 0 or c // self.reduction != c_hidden:
            raise ShapeMismatch(f"reduction {self.reduction} does not divide {c} into {c_hidden}")

    @property
    def channels(self):
        return self.w0.shape[1]

    @classmethod
    def init(cls, channels, reduction, rng):
        r = effective_reduction(channels, reduction)
        hidden = channels // r
        std = (2.0 / (hidden + channels)) ** 0.5
        w0 = Tensor(rng.normal(0.0, std, (hidden, channels)), requires_grad=True)
        w1 = Tensor(rng.normal(0.0, std, (channels, hidden)), requires_grad=True)
        return cls(w0=w0, w1=w1, reduction=r)


@dataclass
class SpatialAttentionParams:
    """Single 7x7 conv filter over the stacked [avg; max] channel maps."""

    kernel: Tensor  # [1, 2, 7, 7]

    def __post_init__(self):
        if self.kernel.shape != (1, 2, SPATIAL_KERNEL_SIZE, SPATIAL_KERNEL_SIZE):
            raise ShapeMismatch(f"spatial kernel must be (1, 2, 7, 7), got {self.kernel.shape}")

    @classmethod
    def init(cls, rng):
        fan_in = 2 * SPATIAL_KERNEL_SIZE * SPATIAL_KERNEL_SIZE
        std = (2.0 / (fan_in + 1)) ** 0.5
        k = Tensor(rng.normal(0.0, std, (1, 2, SPATIAL_KERNEL_SIZE, SPATIAL_KERNEL_SIZE)),
                   requires_grad=True)
        return cls(kernel=k)


def channel_attention_map(f, params):
    """Per-channel gate in (0, 1): sigmoid(MLP(avgpool) + MLP(maxpool))."""
    if f.ndim < 3:
        raise ShapeMismatch(f"channel_attention_map needs [..., C, H, W], got {f.shape}")
    c = f.shape[-3]
    if c != params.channels:
        raise ShapeMismatch(f"feature channels {c} != params channels {params.channels}")

    def mlp(pooled):
        vec = T.reshape(pooled, pooled.shape[:-2])  # [..., C]
        return T.linear(T.relu(T.linear(vec, params.w0)), params.w1)

    logits = mlp(T.pool_spatial(f, "avg")) + mlp(T.pool_spatial(f, "max"))
    return T.reshape(T.sigmoid(logits), logits.shape + (1, 1))


def spatial_attention_map(f, params):
    """Per-pixel gate in (0, 1): sigmoid(conv7x7([avgpool_c; maxpool_c]))."""
    if f.ndim < 3:
        raise ShapeMismatch(f"spatial_attention_map needs [..., C, H, W], got {f.shape}")
    stacked = T.concat([T.pool_channel(f, "avg"), T.pool_channel(f, "max")], axis=-3)
    return T.sigmoid(T.conv2d(stacked, params.kernel, stride=1, pad=SPATIAL_PAD))


def refine(f, m):
    """Gate features with one attention map: ``f * m``, shaped like ``f``.

    ``m`` is a channel gate [..., C, 1, 1] or a spatial gate [..., 1, H, W]
    for features [..., C, H, W]; any other shape is a ShapeMismatch.
    """
    if f.ndim < 3 or m.shape[-3:] not in ((f.shape[-3], 1, 1), (1,) + f.shape[-2:]):
        raise ShapeMismatch(f"refine: gate {m.shape} does not gate {f.shape}")
    return f * m


@dataclass
class CbamParams:
    """Paired channel + spatial parameters for one insertion point."""

    cam: ChannelAttentionParams
    sam: SpatialAttentionParams

    @classmethod
    def init(cls, channels, reduction, rng):
        return cls(cam=ChannelAttentionParams.init(channels, reduction, rng),
                   sam=SpatialAttentionParams.init(rng))


def gate(f, params):
    """Apply one insertion point's attention parameters to [..., C, H, W] features.

    ``CbamParams`` run the channel gate, then the spatial gate on the refined
    features, with one ``refine`` call: ``(f * m_c) * m_s``.  Channel or
    spatial parameters alone run that one gate.
    """
    if isinstance(params, CbamParams):
        f = f * channel_attention_map(f, params.cam)
        return refine(f, spatial_attention_map(f, params.sam))
    if isinstance(params, ChannelAttentionParams):
        return refine(f, channel_attention_map(f, params))
    return refine(f, spatial_attention_map(f, params))
