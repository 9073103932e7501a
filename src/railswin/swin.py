"""Four-stage windowed-attention backbone with optional attention inserts.

The backbone follows the standard hierarchy: a 4x4 patch stem with linear
embedding, then four stages of alternating plain / shifted window
attention blocks, with 2x2 patch merging between stages.  Channel/spatial
attention can be inserted at one of three levels:

* ``model``: one full attention pass on the raw image before the stem.
* ``stage``: one pass on the partitioned (pre-projection) patch map at
  every stage entry.
* ``block``: a channel gate before each plain-window block's attention
  and a spatial gate before each shifted-window block's, applied to the
  normalized grid, seen as a [D, H, W] map, inside the residual branch.

Layouts: grids are [..., H, W, D], carried from the stem to every stage
output; maps are [..., D, H, W], the gates' view and the stage features.
A single leading batch axis is supported everywhere.

A block's attention branch records five tape nodes: ``window_partition``
(cyclic shift and windowing), the qkv ``linear``, the attention core
(q/k/v split, scaling, QK^T, relative-position bias, shift mask, softmax,
attn @ V and the head merge), the output ``linear``, and
``window_reverse`` (un-windowing and the shift back).  Each of the three
fused nodes has a hand-written backward that runs the numpy calls of the
single-op chain it replaces, in the same order and on the same memory
layouts, so forward values and every gradient are bit-identical to that
chain (``tests/_oracles.py`` keeps it as the reference).  The zero pad and
crop for grids smaller than a window stay ordinary ops.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .cbam import CbamParams, ChannelAttentionParams, SpatialAttentionParams, gate
from .errors import IndivisibleInput, InvalidParam, ShapeMismatch
from .tensor import Tensor

MASK_NEG = -1e9


class CbamPlacement(enum.Enum):
    NONE = "none"
    MODEL = "model"
    STAGE = "stage"
    BLOCK = "block"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SwinConfig:
    embed_dim: int
    depths: tuple[int, ...]
    num_heads: tuple[int, ...]
    window_size: int
    mlp_ratio: float
    placement: CbamPlacement
    cbam_reduction: int
    patch_size: int
    input_size: tuple[int, int]
    seed: int

    def __post_init__(self):
        self.depths = tuple(int(d) for d in self.depths)
        self.num_heads = tuple(int(h) for h in self.num_heads)
        self.input_size = tuple(int(v) for v in self.input_size)
        if isinstance(self.placement, str):
            self.placement = CbamPlacement(self.placement)
        self.validate()

    def validate(self):
        if len(self.depths) != 4 or len(self.num_heads) != 4:
            raise InvalidParam("depths and num_heads must both have 4 entries")
        if any(d < 1 for d in self.depths) or any(h < 1 for h in self.num_heads):
            raise InvalidParam("depths and num_heads must be positive")
        for s, heads in enumerate(self.num_heads):
            if (self.embed_dim * 2**s) % heads != 0:
                raise InvalidParam(
                    f"stage {s} dim {self.embed_dim * 2**s} not divisible by {heads} heads")
        if self.window_size < 1:
            raise InvalidParam("window_size must be >= 1")
        if self.mlp_ratio <= 0:
            raise InvalidParam("mlp_ratio must be positive")
        if self.patch_size < 1:
            raise InvalidParam("patch_size must be >= 1")
        if self.cbam_reduction < 1:
            raise InvalidParam("cbam_reduction must be >= 1")
        if self.seed < 0:
            raise InvalidParam("swin seed must be >= 0")
        if len(self.input_size) != 2:
            raise InvalidParam("input_size must be (H, W)")
        step = self.stage_stride(3)
        if any(v < 1 or v % step for v in self.input_size):
            raise InvalidParam(f"input_size {self.input_size} must be positive multiples "
                               f"of patch_size * 8 = {step}")

    def stage_dim(self, stage):
        return self.embed_dim * 2**stage

    def stage_stride(self, stage):
        """Input pixels along one side of a cell of a stage's map: the stem
        divides by patch_size and each merging before the stage halves."""
        return self.patch_size * 2**stage


def nano_config(placement=CbamPlacement.NONE, seed=0):
    """Laptop-scale config: every mechanism exercised in milliseconds."""
    return SwinConfig(embed_dim=16, depths=(2, 2, 2, 2), num_heads=(1, 2, 4, 8),
                      window_size=2, mlp_ratio=2.0, placement=placement,
                      cbam_reduction=4, patch_size=4, input_size=(32, 32), seed=seed)


def tiny_config(placement=CbamPlacement.NONE, seed=0):
    """Full-size config (embed 96, depths 2-2-6-2, window 7, 224x224 input)."""
    return SwinConfig(embed_dim=96, depths=(2, 2, 6, 2), num_heads=(3, 6, 12, 24),
                      window_size=7, mlp_ratio=4.0, placement=placement,
                      cbam_reduction=16, patch_size=4, input_size=(224, 224), seed=seed)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class BlockParams:
    dim: int
    num_heads: int
    window: int
    norm1_g: Tensor
    norm1_b: Tensor
    qkv_w: Tensor
    qkv_b: Tensor
    proj_w: Tensor
    proj_b: Tensor
    norm2_g: Tensor
    norm2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    # declared after the MLP so checkpoint names keep their order
    bias_table: Tensor | None
    cbam: object = None  # ChannelAttentionParams | SpatialAttentionParams | None


@dataclass
class PatchMergeParams:
    norm_g: Tensor
    norm_b: Tensor
    w: Tensor  # [2D, 4D]


@dataclass
class StageParams:
    merge: PatchMergeParams | None
    cbam: CbamParams | None
    blocks: list = field(default_factory=list)


@dataclass
class BackboneParams:
    embed_w: Tensor  # [C, C_img * patch^2]
    embed_b: Tensor
    model_cbam: CbamParams | None
    stages: list = field(default_factory=list)


def _xavier(rng, shape):
    fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, shape), requires_grad=True)


def _init_block(dim, num_heads, window, mlp_ratio, rng, cbam=None):
    hidden = int(dim * mlp_ratio)
    n = (2 * window - 1) ** 2

    def w(*shape):
        return _xavier(rng, shape)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    # residual-branch outputs (proj, second MLP layer) start at zero so every
    # block opens as the identity map; stabilizes short constant-lr runs
    return BlockParams(
        dim=dim, num_heads=num_heads, window=window,
        norm1_g=Tensor(np.ones(dim), requires_grad=True), norm1_b=zeros(dim),
        qkv_w=w(3 * dim, dim), qkv_b=zeros(3 * dim),
        proj_w=zeros(dim, dim), proj_b=zeros(dim),
        bias_table=Tensor(rng.normal(0.0, 0.02, (n, num_heads)), requires_grad=True),
        norm2_g=Tensor(np.ones(dim), requires_grad=True), norm2_b=zeros(dim),
        mlp_w1=w(hidden, dim), mlp_b1=zeros(hidden),
        mlp_w2=zeros(dim, hidden), mlp_b2=zeros(dim),
        cbam=cbam,
    )


def init_backbone_params(cfg, in_channels=1):
    """Build all parameters, deterministically from cfg.seed.

    The placement is decided here alone: the forward gates wherever gate
    parameters exist.
    """
    rng = np.random.default_rng(cfg.seed)
    p = cfg.patch_size
    patch_dim = in_channels * p * p
    embed_w = _xavier(rng, (cfg.embed_dim, patch_dim))
    embed_b = Tensor(np.zeros(cfg.embed_dim), requires_grad=True)

    model_cbam = None
    if cfg.placement is CbamPlacement.MODEL:
        model_cbam = CbamParams.init(in_channels, cfg.cbam_reduction, rng)

    stages = []
    for s in range(4):
        dim = cfg.stage_dim(s)
        merge = None
        stage_entry_channels = patch_dim
        if s > 0:
            prev = cfg.stage_dim(s - 1)
            stage_entry_channels = 4 * prev
            merge = PatchMergeParams(
                norm_g=Tensor(np.ones(4 * prev), requires_grad=True),
                norm_b=Tensor(np.zeros(4 * prev), requires_grad=True),
                w=_xavier(rng, (2 * prev, 4 * prev)),
            )
        stage_cbam = None
        if cfg.placement is CbamPlacement.STAGE:
            stage_cbam = CbamParams.init(stage_entry_channels, cfg.cbam_reduction, rng)
        blocks = []
        for i in range(cfg.depths[s]):
            cbam = None
            if cfg.placement is CbamPlacement.BLOCK:
                if i % 2 == 0:
                    cbam = ChannelAttentionParams.init(dim, cfg.cbam_reduction, rng)
                else:
                    cbam = SpatialAttentionParams.init(rng)
            blocks.append(_init_block(dim, cfg.num_heads[s], cfg.window_size,
                                      cfg.mlp_ratio, rng, cbam=cbam))
        stages.append(StageParams(merge=merge, cbam=stage_cbam, blocks=blocks))
    return BackboneParams(embed_w=embed_w, embed_b=embed_b,
                          model_cbam=model_cbam, stages=stages)


# ---------------------------------------------------------------------------
# layout helpers


def _grid_to_map(grid):
    n = grid.ndim
    return T.transpose(grid, tuple(range(n - 3)) + (n - 1, n - 3, n - 2))


def map_to_grid(f):
    """[..., D, H, W] map -> [..., H, W, D] grid, undoing ``_grid_to_map``."""
    n = f.ndim
    return T.transpose(f, tuple(range(n - 3)) + (n - 2, n - 1, n - 3))


def _partition(d, window, shift):
    """numpy body of :func:`window_partition`; also its inverse's backward."""
    lead = d.shape[:-3]
    n = len(lead)
    H, W, D = d.shape[-3:]
    if shift:
        d = np.roll(d, (-shift, -shift), axis=(n, n + 1))
    d = d.reshape(lead + (H // window, window, W // window, window, D))
    d = d.transpose(tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
    return d.reshape(lead + ((H // window) * (W // window), window * window, D))


def _reverse(d, H, W, shift):
    """numpy body of :func:`window_reverse`; also its inverse's backward."""
    lead = d.shape[:-3]
    n = len(lead)
    D = d.shape[-1]
    window = math.isqrt(d.shape[-2])
    d = d.reshape(lead + (H // window, W // window, window, window, D))
    d = d.transpose(tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
    d = d.reshape(lead + (H, W, D))
    if shift:
        d = np.roll(d, (shift, shift), axis=(n, n + 1))
    return d


def window_partition(grid, window, shift=0):
    """[..., H, W, D] -> [..., num_windows, window^2, D], row-major windows.

    With ``shift`` the grid is first rolled by (-shift, -shift), the cyclic
    shift of a shifted-window block.  One tape node.
    """
    if grid.ndim < 3:
        raise ShapeMismatch(f"window_partition needs [..., H, W, D], got {grid.shape}")
    H, W, _ = grid.shape[-3:]
    if H % window or W % window:
        raise IndivisibleInput(f"grid {H}x{W} not divisible by window {window}")

    def backward(out):
        T._accum(grid, _reverse(out.grad, H, W, shift))

    return T._make(_partition(grid.data, window, shift), (grid,), backward)


def window_reverse(windows, H, W, shift=0):
    """Exact inverse of :func:`window_partition` for an H x W grid and ``shift``."""
    if windows.ndim < 3:
        raise ShapeMismatch(f"window_reverse needs [..., nW, T, D], got {windows.shape}")
    nW, Tsz, _ = windows.shape[-3:]
    if nW * Tsz != H * W:
        raise ShapeMismatch(f"{nW} windows of {Tsz} tokens cannot tile {H}x{W}")
    window = math.isqrt(Tsz)
    if window * window != Tsz or H % window or W % window:
        raise ShapeMismatch(f"window tokens {Tsz} do not form a square tile of {H}x{W}")

    def backward(out):
        T._accum(windows, _partition(out.grad, window, shift))

    return T._make(_reverse(windows.data, H, W, shift), (windows,), backward)


@functools.lru_cache(maxsize=None)
def _shift_mask_array(H, W, window, shift):
    # region bands on the unshifted grid: [0, shift), [shift, H-window+shift),
    # [H-window+shift, H); tokens may only attend within their own band pair
    def bands(extent):
        b = np.zeros(extent, dtype=np.int64)
        b[shift:extent - window + shift] = 1
        b[extent - window + shift:] = 2
        return b

    ids = bands(H)[:, None] * 3 + bands(W)[None, :]
    ids = np.roll(ids, (-shift, -shift), axis=(0, 1))
    idw = ids.reshape(H // window, window, W // window, window)
    idw = idw.transpose(0, 2, 1, 3).reshape(-1, window * window)
    same = idw[:, :, None] == idw[:, None, :]
    mask = np.where(same, 0.0, MASK_NEG)
    mask.setflags(write=False)  # shared by every shifted block through the cache
    return mask


def build_shift_mask(H, W, window, shift):
    """Attention mask ndarray [nW, T, T] hiding cross-band pairs after a cyclic shift.

    A shifted mask is the cached, read-only array itself, not a copy.
    """
    if H % window or W % window:
        raise IndivisibleInput(f"grid {H}x{W} not divisible by window {window}")
    if shift not in (0, window // 2):
        raise InvalidParam(f"shift must be 0 or window//2 = {window // 2}, got {shift}")
    nW = (H // window) * (W // window)
    Tsz = window * window
    if shift == 0:
        return np.zeros((nW, Tsz, Tsz))
    return _shift_mask_array(H, W, window, shift)


@functools.lru_cache(maxsize=None)
def relative_position_index(window):
    """[T, T] lookup into the (2w-1)^2 relative-offset bias table."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    rel = rel.transpose(1, 2, 0).copy()
    rel[:, :, 0] += window - 1
    rel[:, :, 1] += window - 1
    rel[:, :, 0] *= 2 * window - 1
    idx = rel.sum(-1)
    idx.setflags(write=False)
    return idx


# ---------------------------------------------------------------------------
# attention and blocks


def _attention_core(qkv, heads, bias_table=None, index=None, mask=None):
    """Scaled dot-product attention per window and head, as one tape node.

    qkv: [..., T, 3D] projections; returns the heads' outputs merged back to
    [..., T, D].  ``bias_table`` [(2w-1)^2, heads] is gathered through
    ``index`` [T, T]; ``mask`` ([nW, T, T] ndarray) is a constant.  Forward
    and backward run the numpy calls of the composed ops this node replaces
    (slice, reshape, transpose, mul, matmul, take, add, softmax), in their
    order and on their memory layouts, so values and gradients are
    bit-identical to them.
    """
    lead = qkv.shape[:-2]
    n = len(lead)
    Tsz = qkv.shape[-2]
    D = qkv.shape[-1] // 3
    hd = D // heads
    heads_first = tuple(range(n)) + (n + 1, n, n + 2)  # [..., T, h, hd] <-> [..., h, T, hd]
    q, k, v = (qkv.data[..., i * D:(i + 1) * D].reshape(lead + (Tsz, heads, hd))
               .transpose(heads_first) for i in range(3))
    scale = 1.0 / math.sqrt(hd)
    scores = np.matmul(q * scale, np.swapaxes(k, -1, -2))
    if bias_table is not None:
        np.add(scores, bias_table.data[index].transpose(2, 0, 1), out=scores)
    if mask is not None:
        try:
            np.add(scores, mask.reshape((mask.shape[0], 1, Tsz, Tsz)), out=scores)
        except ValueError as e:
            raise ShapeMismatch(f"mask {mask.shape} does not fit windows {lead}") from e
    # softmax over keys
    np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
    np.exp(scores, out=scores)
    attn = np.divide(scores, scores.sum(axis=-1, keepdims=True), out=scores)
    merged = np.matmul(attn, v).transpose(heads_first).reshape(lead + (Tsz, D))

    def backward(out):
        go = np.ascontiguousarray(out.grad.reshape(lead + (Tsz, heads, hd)).transpose(heads_first))
        ds = np.matmul(go, np.swapaxes(v, -1, -2))
        np.subtract(ds, (ds * attn).sum(axis=-1, keepdims=True), out=ds)
        np.multiply(attn, ds, out=ds)  # d scores
        if bias_table is not None and bias_table.requires_grad:
            gb = T._unbroadcast(ds, (heads, Tsz, Tsz))
            g_table = np.zeros_like(bias_table.data)
            np.add.at(g_table, index, np.ascontiguousarray(gb.transpose(1, 2, 0)))
            T._accum(bias_table, g_table)
        if qkv.requires_grad:
            dq = np.matmul(ds, k)
            dq *= scale
            dkt = np.matmul(np.swapaxes(q * scale, -1, -2), ds)  # q * scale is not kept
            dv = np.matmul(np.swapaxes(attn, -1, -2), go)
            dqkv = np.empty(qkv.shape)
            parts = dqkv.reshape(lead + (Tsz, 3, heads, hd))
            parts[..., 0, :, :] = np.swapaxes(dq, -3, -2)
            parts[..., 1, :, :] = np.moveaxis(dkt, -1, -3)
            parts[..., 2, :, :] = np.swapaxes(dv, -3, -2)
            T._accum(qkv, dqkv)

    inputs = (qkv,) if bias_table is None else (qkv, bias_table)
    return T._make(merged, inputs, backward)


def window_msa(x, params, mask=None):
    """Multi-head self-attention within each window.

    x: [..., nW, T, D].  Scores are QK^T / sqrt(D / heads), plus the
    relative-position bias (when the params carry a table) and the
    additive mask (a constant [nW, T, T] ndarray, when given), softmaxed
    over keys.  Three tape nodes: the qkv projection, the attention core and
    the output projection.
    """
    heads = params.num_heads
    D = x.shape[-1]
    Tsz = x.shape[-2]
    if D % heads:
        raise ShapeMismatch(f"dim {D} not divisible by {heads} heads")
    index = None
    if params.bias_table is not None:
        if params.bias_table.shape != ((2 * params.window - 1) ** 2, heads):
            raise ShapeMismatch(f"bias table {params.bias_table.shape} for window {params.window}")
        if Tsz != params.window**2:
            raise ShapeMismatch(f"{Tsz} tokens per window, expected {params.window**2}")
        index = relative_position_index(params.window)
    if mask is not None and mask.shape[-2:] != (Tsz, Tsz):
        raise ShapeMismatch(f"mask {mask.shape} does not fit {Tsz} tokens")

    qkv = T.linear(x, params.qkv_w, params.qkv_b)  # [..., T, 3D]
    out = _attention_core(qkv, heads, params.bias_table, index, mask)
    return T.linear(out, params.proj_w, params.proj_b)


def _gate(grid, params):
    """Gate a [..., H, W, D] grid, seen as a [..., D, H, W] map, with ``cbam.gate``.

    ``None`` returns the grid unchanged.
    """
    if params is None:
        return grid
    return map_to_grid(gate(_grid_to_map(grid), params))


def swin_block_forward(x, params, shift):
    """One block on a [..., H, W, D] grid, returning a grid of the same shape.

    LN -> [gate] -> (shift) window attention -> +residual -> MLP.  The gate
    runs when the block carries attention parameters.
    """
    if x.ndim < 3:
        raise ShapeMismatch(f"block needs a [..., H, W, D] grid, got {x.shape}")
    H, W, D = x.shape[-3:]
    if D != params.dim:
        raise ShapeMismatch(f"grid dim {D} != block dim {params.dim}")
    window = params.window
    n = x.ndim - 3

    shortcut = x
    grid = _gate(T.layer_norm(x, params.norm1_g, params.norm1_b), params.cbam)

    pad_h = (-H) % window
    pad_w = (-W) % window
    if pad_h or pad_w:
        grid = T.zero_pad(grid, [(0, 0)] * n + [(0, pad_h), (0, pad_w), (0, 0)])
    Hp, Wp = H + pad_h, W + pad_w

    mask = build_shift_mask(Hp, Wp, window, shift) if shift else None
    windows = window_partition(grid, window, shift)
    attended = window_msa(windows, params, mask=mask)
    grid = window_reverse(attended, Hp, Wp, shift)

    if pad_h or pad_w:
        grid = T.slice_axis(grid, n, 0, H)
        grid = T.slice_axis(grid, n + 1, 0, W)

    x = grid + shortcut
    y = T.layer_norm(x, params.norm2_g, params.norm2_b)
    y = T.linear(y, params.mlp_w1, params.mlp_b1, batch_axes=n)
    y = T.gelu(y)
    y = T.linear(y, params.mlp_w2, params.mlp_b2, batch_axes=n)
    return x + y


# ---------------------------------------------------------------------------
# stem, merging, full forward


def patch_partition_embed(image, cfg, params, stage_cbam=None):
    """Split into patch_size^2 patches, flatten channel-first, embed to C.

    image: [..., C_img, H, W] with H, W divisible by patch_size (no silent
    padding at the stem).  Returns the embedded grid [..., H/p, W/p, C].
    When ``stage_cbam`` is given the partitioned patch map is gated before
    the linear embedding.
    """
    p = cfg.patch_size
    if image.ndim < 3:
        raise ShapeMismatch(f"image must be [..., C, H, W], got {image.shape}")
    C_img, H, W = image.shape[-3:]
    if H % p or W % p:
        raise IndivisibleInput(f"image {H}x{W} not divisible by patch size {p}")
    if params.embed_w.shape[1] != C_img * p * p:
        raise ShapeMismatch(
            f"image channels {C_img} do not match embedding input {params.embed_w.shape[1]}")
    lead = image.shape[:-3]
    n = len(lead)
    Hp, Wp = H // p, W // p

    x = T.reshape(image, lead + (C_img, Hp, p, Wp, p))
    x = T.transpose(x, tuple(range(n)) + (n + 1, n + 3, n, n + 2, n + 4))
    x = _gate(T.reshape(x, lead + (Hp, Wp, C_img * p * p)), stage_cbam)
    return T.linear(x, params.embed_w, params.embed_b, batch_axes=n)


def patch_merging(x, params, stage_cbam=None):
    """Concatenate 2x2 neighborhoods (row-major), normalize, project to 2D.

    x: [..., H, W, D] with H, W even -> [..., H/2, W/2, 2D].
    """
    if x.ndim < 3:
        raise ShapeMismatch(f"patch_merging needs [..., H, W, D], got {x.shape}")
    H, W, D = x.shape[-3:]
    if H % 2 or W % 2:
        raise IndivisibleInput(f"grid {H}x{W} not divisible by 2")
    if params.w.shape != (2 * D, 4 * D):
        raise ShapeMismatch(f"merge weight {params.w.shape} != ({2 * D}, {4 * D})")
    lead = x.shape[:-3]
    n = len(lead)
    x = T.reshape(x, lead + (H // 2, 2, W // 2, 2, D))
    x = T.transpose(x, tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
    x = _gate(T.reshape(x, lead + (H // 2, W // 2, 4 * D)), stage_cbam)
    x = T.layer_norm(x, params.norm_g, params.norm_b)
    return T.linear(x, params.w, batch_axes=n)


def backbone_forward(image, cfg, params, stages=4):
    """Run stages 0 .. stages-1; returns their outputs as [..., D, H, W] maps."""
    if params.model_cbam is not None:
        image = gate(image, params.model_cbam)

    grid = patch_partition_embed(image, cfg, params, stage_cbam=params.stages[0].cbam)
    shift = cfg.window_size // 2
    features = []
    for s, st in enumerate(params.stages[:stages]):
        if s > 0:
            grid = patch_merging(grid, st.merge, stage_cbam=st.cbam)
        for i, bp in enumerate(st.blocks):
            grid = swin_block_forward(grid, bp, shift=0 if i % 2 == 0 else shift)
        features.append(_grid_to_map(grid))
    return features


class SwinBackbone:
    """Config + parameters bundle with a forward convenience method."""

    def __init__(self, cfg, in_channels=1):
        cfg.validate()
        self.cfg = cfg
        self.in_channels = in_channels
        self.params = init_backbone_params(cfg, in_channels)

    def forward(self, image, stages=4):
        return backbone_forward(image, self.cfg, self.params, stages)

    def named_parameters(self):
        return T.named_parameters(self.params)
