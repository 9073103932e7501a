"""Minimal dense-tensor autograd engine on numpy float64.

Every operation records its inputs and an adjoint callback on the output
tensor; ``backward(loss)`` topologically sorts that implicit tape and
replays it in reverse.  Gradients are zeroed at the start of each backward
call, so repeated calls never accumulate across calls.
``backward(loss, release=True)`` frees each non-leaf node's gradient,
inputs and closure as soon as its own backward has run, as training does;
a released graph cannot be walked again.  ``backward(loss, on_final=fn)``
hands each leaf to ``fn`` as soon as its gradient is final, so training
can step a parameter and drop its gradient in the middle of the walk.

A ``.grad`` may share memory with an upstream gradient (or with another
tensor's ``.grad``) and is never modified in place: copy it before writing
into it.  A backward computes gradients only for the inputs whose
``requires_grad`` is set; a constant operand never gets a ``.grad``.

All data is float64, the headroom finite-difference checking
(``grad_check``) needs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from .errors import InvalidParam, NoTape, NonFinite, NotScalar, ShapeMismatch

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / benchmarks)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; the heavy lifting lives in the module-level ops
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise InvalidParam("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, Tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, inputs, backward_fn):
    """Build an op output, recording the tape edge only when needed."""
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(inputs)
        out._backward = backward_fn
    return out


def _accum(t, g):
    """Add ``g`` into ``t.grad``, never writing into either array.

    A C-contiguous first gradient is stored as given, so ``t.grad`` may
    share memory with an upstream gradient (``add`` hands the same array to
    both inputs, ``reshape`` hands on a view).  Any other gradient is summed
    into a fresh array laid out like ``t.data``, in arrival order.  Numpy
    reductions round differently on differently strided inputs, so keeping
    that layout keeps every downstream gradient bit-identical.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if g.flags.c_contiguous and t.data.flags.c_contiguous:
            t.grad = g
            return
        acc = np.zeros_like(t.data)
    else:
        acc = t.grad
    t.grad = np.add(acc, g, out=np.empty_like(t.data))


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / broadcasting arithmetic


def add(a, b):
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}") from e

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}") from e

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def neg(a):
    def backward(out):
        _accum(a, -out.grad)

    return _make(-a.data, (a,), backward)


def matmul(a, b):
    """Matrix product over the last two axes; batch prefixes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul needs rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul inner extents differ: {a.shape} x {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeMismatch(f"matmul batch prefixes not broadcastable: {a.shape} x {b.shape}") from e

    def backward(out):
        g = out.grad
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _make(data, (a, b), backward)


def linear(x, w, bias=None, batch_axes=None):
    """Affine map on the trailing axis: y = x @ w.T (+ bias).

    w has shape [D_out, D_in]; bias, when present, [D_out].  numpy runs one
    GEMM per index of x's leading axes.  With ``batch_axes`` = k only the
    first k are looped over and the axes after them fold into each GEMM's
    rows, so a [B, H, W, D] grid with k = 1 costs B GEMMs, not B * H.
    """
    if w.ndim != 2:
        raise ShapeMismatch(f"linear weight must be 2-D, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatch(f"linear: input dim {x.shape[-1]} != weight dim {w.shape[1]}")
    if bias is not None and bias.shape != (w.shape[0],):
        raise ShapeMismatch(f"linear: bias shape {bias.shape} != ({w.shape[0]},)")
    xd = x.data
    if batch_axes is not None:
        xd = xd.reshape(x.shape[:batch_axes] + (math.prod(x.shape[batch_axes:-1]), x.shape[-1]))
    data = (xd @ w.data.T).reshape(x.shape[:-1] + (w.shape[0],))
    if bias is not None:
        data += bias.data

    def backward(out):
        g = out.grad
        g2 = g.reshape(-1, w.data.shape[0])
        if x.requires_grad:
            gx = g.reshape(xd.shape[:-1] + (w.shape[0],)) @ w.data
            _accum(x, gx.reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, g2.T @ xd.reshape(-1, w.data.shape[1]))
        if bias is not None and bias.requires_grad:
            _accum(bias, g2.sum(axis=0))

    inputs = (x, w) if bias is None else (x, w, bias)
    return _make(data, inputs, backward)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, kernel, stride=1, pad=0):
    """2-D convolution (cross-correlation) with zero padding.

    x: [C_in, H, W] or [B, C_in, H, W]; kernel: [C_out, C_in, k, k].
    Output spatial extent: floor((H + 2*pad - k) / stride) + 1.
    """
    if stride < 1:
        raise InvalidParam(f"conv2d stride must be >= 1, got {stride}")
    if pad < 0:
        raise InvalidParam(f"conv2d pad must be >= 0, got {pad}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeMismatch(f"conv2d kernel must be [C_out, C_in, k, k], got {kernel.shape}")
    squeeze = x.ndim == 3
    if x.ndim not in (3, 4):
        raise ShapeMismatch(f"conv2d input must be rank 3 or 4, got {x.shape}")
    cin = x.shape[-3]
    if cin != kernel.shape[1]:
        raise ShapeMismatch(f"conv2d: input channels {cin} != kernel channels {kernel.shape[1]}")
    k = kernel.shape[2]
    H, W = x.shape[-2], x.shape[-1]
    if k > H + 2 * pad or k > W + 2 * pad:
        raise ShapeMismatch(f"conv2d: kernel {k} exceeds padded input {H + 2 * pad}x{W + 2 * pad}")

    xd = x.data if not squeeze else x.data[None]
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # [B, C_in, H', W', k, k]
    data = np.einsum("bchwij,ocij->bohw", windows, kernel.data)
    Hp_out, Wp_out = data.shape[2], data.shape[3]

    def backward(out):
        g = out.grad if not squeeze else out.grad[None]
        if kernel.requires_grad:
            _accum(kernel, np.einsum("bchwij,bohw->ocij", windows, g))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for i in range(k):
                for j in range(k):
                    patch = np.einsum("bohw,oc->bchw", g, kernel.data[:, :, i, j])
                    gxp[:, :, i : i + stride * Hp_out : stride, j : j + stride * Wp_out : stride] += patch
            gx = gxp[:, :, pad : pad + H, pad : pad + W]
            _accum(x, gx[0] if squeeze else gx)

    return _make(data[0] if squeeze else data, (x, kernel), backward)


# ---------------------------------------------------------------------------
# activations / normalization


def _sigmoid(x):
    # two-sided form avoids overflow warnings for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    y = _sigmoid(x.data)

    def backward(out):
        _accum(x, out.grad * y * (1.0 - y))

    return _make(y, (x,), backward)


def relu(x):
    def backward(out):
        _accum(x, out.grad * (x.data > 0))

    return _make(np.maximum(x.data, 0.0), (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x):
    """GELU, tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    xd = x.data
    # t = tanh(C * (x + A * (x*x*x))), then y = (0.5*x) * (1 + t), each step
    # written into a buffer this op allocated (asarray: numpy returns a scalar
    # for 0-d operands).  x*x*x, not x**3, which would go through libm pow,
    # about 40x slower than two multiplies.
    t = np.asarray(xd * xd)
    t *= xd
    t *= _GELU_A
    np.add(xd, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * xd
    y *= 1.0 + t

    def backward(out):
        # dy = 0.5*(1 + t) + ((0.5*x) * (1 - t*t)) * (C * (1 + 3A * (x*x)))
        dinner = xd * xd
        dinner *= 3.0 * _GELU_A
        dinner += 1.0
        dinner *= _GELU_C
        dy = np.asarray(t * t)
        np.subtract(1.0, dy, out=dy)
        rest = 0.5 * xd
        rest *= dy
        rest *= dinner
        np.add(1.0, t, out=dy)
        dy *= 0.5
        dy += rest
        dy *= out.grad
        _accum(x, dy)

    return _make(y, (x,), backward)


def softmax(x, axis=-1):
    """Shift-invariant softmax along ``axis``; slices sum to 1."""
    if not -x.ndim <= axis < x.ndim:
        raise InvalidParam(f"softmax axis {axis} invalid for shape {x.shape}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(out):
        g = out.grad
        gx = g * y
        np.subtract(g, gx.sum(axis=axis, keepdims=True), out=gx)
        gx *= y
        _accum(x, gx)

    return _make(y, (x,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise ShapeMismatch(f"layer_norm: gamma/beta {gamma.shape}/{beta.shape} != ({D},)")
    # The centred input becomes xhat in place, and the buffer of its squares
    # becomes y.  Only mean and inv ([..., 1] each) are kept for backward,
    # which rebuilds xhat from x.data with the same two ufuncs.
    mean = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mean
    y = np.square(xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(gamma.data, xhat, out=y)
    y += beta.data

    def backward(out):
        g = out.grad
        xhat = x.data - mean
        xhat *= inv
        tmp = None
        if x.requires_grad:
            # gx = (inv/D) * (D*gxhat - sum(gxhat) - xhat * sum(gxhat*xhat)), gxhat = g*gamma
            gx = g * gamma.data
            tmp = gx * xhat
            s = tmp.sum(axis=-1, keepdims=True)
            s_gxhat = gx.sum(axis=-1, keepdims=True)
            gx *= D
            gx -= s_gxhat
            np.multiply(xhat, s, out=tmp)
            gx -= tmp
            np.multiply(inv / D, gx, out=gx)
            _accum(x, gx)
        if gamma.requires_grad:
            tmp = np.multiply(g, xhat, out=tmp)
            _accum(gamma, tmp.reshape(-1, D).sum(axis=0))
        _accum(beta, g.reshape(-1, D).sum(axis=0))

    return _make(y, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# reductions and pooling


def tsum(x, axis=None, keepdims=False):
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(data, (x,), backward)


def tmean(x, axis=None, keepdims=False):
    count = x.data.size if axis is None else np.prod([x.data.shape[a] for a in np.atleast_1d(axis)])
    data = x.data.mean(axis=axis, keepdims=keepdims)

    def backward(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.data.shape) / count)

    return _make(data, (x,), backward)


def amax(x, axis, keepdims=False):
    """Max over ``axis``; gradient splits equally among tied maxima."""
    data = x.data.max(axis=axis, keepdims=keepdims)

    def backward(out):
        g = out.grad
        full = data if keepdims else np.expand_dims(data, axis)
        mask = x.data == full
        counts = mask.sum(axis=axis, keepdims=True)
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, mask * (g / counts))

    return _make(data, (x,), backward)


def pool_spatial(x, mode):
    """Reduce the trailing H, W axes of a [..., C, H, W] map to [..., C, 1, 1]."""
    if x.ndim < 3:
        raise ShapeMismatch(f"pool_spatial needs [..., C, H, W], got {x.shape}")
    if mode == "avg":
        return tmean(x, axis=(-2, -1), keepdims=True)
    if mode == "max":
        return amax(x, axis=(-2, -1), keepdims=True)
    raise InvalidParam(f"pool_spatial mode must be 'avg' or 'max', got {mode!r}")


def pool_channel(x, mode):
    """Reduce the channel axis of a [..., C, H, W] map to [..., 1, H, W]."""
    if x.ndim < 3:
        raise ShapeMismatch(f"pool_channel needs [..., C, H, W], got {x.shape}")
    if mode == "avg":
        return tmean(x, axis=-3, keepdims=True)
    if mode == "max":
        return amax(x, axis=-3, keepdims=True)
    raise InvalidParam(f"pool_channel mode must be 'avg' or 'max', got {mode!r}")


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    shape = tuple(shape)
    try:
        data = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(f"reshape {x.shape} -> {shape}") from e

    def backward(out):
        _accum(x, out.grad.reshape(x.data.shape))

    return _make(data, (x,), backward)


def transpose(x, axes):
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward(out):
        _accum(x, out.grad.transpose(inv))

    return _make(x.data.transpose(axes), (x,), backward)


def concat(tensors, axis):
    tensors = [_wrap(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeMismatch("concat: incompatible shapes") from e
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(start, stop)
            _accum(t, out.grad[tuple(idx)])

    return _make(data, tuple(tensors), backward)


def slice_axis(x, axis, start, stop):
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(out):
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[idx] = out.grad
            _accum(x, g)

    return _make(x.data[idx], (x,), backward)


def roll(x, shifts, axes):
    def backward(out):
        _accum(x, np.roll(out.grad, tuple(-s for s in shifts), axis=axes))

    return _make(np.roll(x.data, shifts, axis=axes), (x,), backward)


def zero_pad(x, pad_width):
    """Zero-pad with numpy-style per-axis (before, after) widths."""
    pad_width = tuple(tuple(p) for p in pad_width)
    if len(pad_width) != x.ndim:
        raise ShapeMismatch(f"zero_pad: {len(pad_width)} pad pairs for rank {x.ndim}")
    inner = tuple(slice(b, b + s) for (b, _), s in zip(pad_width, x.data.shape))

    def backward(out):
        _accum(x, out.grad[inner])

    return _make(np.pad(x.data, pad_width), (x,), backward)


def take(x, indices):
    """Gather rows along axis 0: out = x[indices] (indices may be n-D)."""
    indices = np.asarray(indices)
    data = x.data[indices]

    def backward(out):
        if x.requires_grad:
            g = np.zeros_like(x.data)
            np.add.at(g, indices, out.grad)
            _accum(x, g)

    return _make(data, (x,), backward)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits, targets):
    """Mean softmax cross-entropy. logits [N, K], targets [N] int class ids."""
    if logits.ndim != 2:
        raise ShapeMismatch(f"cross_entropy logits must be [N, K], got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeMismatch(f"cross_entropy targets {targets.shape} != ({logits.shape[0]},)")
    n = logits.shape[0]
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = (lse - z[np.arange(n), targets]).mean()

    def backward(out):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        _accum(logits, out.grad * p / n)

    return _make(loss, (logits,), backward)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy on raw logits (numerically stable form)."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeMismatch(f"bce: targets {t.shape} != logits {logits.shape}")
    z = logits.data
    loss = (np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    n = z.size

    def backward(out):
        _accum(logits, out.grad * (_sigmoid(z) - t) / n)

    return _make(loss, (logits,), backward)


def smooth_l1(pred, target):
    """Mean smooth-L1 (Huber, beta 1) distance between pred and a constant target."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise ShapeMismatch(f"smooth_l1: target {t.shape} != pred {pred.shape}")
    d = pred.data - t
    ad = np.abs(d)
    loss = np.where(ad < 1.0, 0.5 * d**2, ad - 0.5).mean()
    n = d.size

    def backward(out):
        _accum(pred, out.grad * np.clip(d, -1.0, 1.0) / n)

    return _make(loss, (pred,), backward)


# ---------------------------------------------------------------------------
# parameter trees


def named_parameters(tree, prefix=""):
    """(name, Tensor) pairs of a parameter dataclass tree, in field order.

    A nested dataclass field ``cbam`` names its tensors ``cbam.*``; an
    element of a list field takes the field's singular name and its index
    (``stages`` -> ``stage0.*``).  Fields holding no tensor are skipped.
    """
    out = []
    for f in dataclasses.fields(tree):
        value = getattr(tree, f.name)
        if isinstance(value, Tensor):
            out.append((prefix + f.name, value))
        elif dataclasses.is_dataclass(value):
            out += named_parameters(value, f"{prefix}{f.name}.")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                out += named_parameters(item, f"{prefix}{f.name.removesuffix('s')}{i}.")
    return out


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss, release=False, on_final=None):
    """Populate .grad on every requires_grad tensor reachable from ``loss``.

    Gradients of all tensors in the graph are reset first, so each call
    yields exactly dLoss/dLeaf regardless of prior calls.

    With ``release`` set, each non-leaf node drops its gradient, inputs
    and closure right after its own backward has run, so a node nothing
    else references is freed during the walk with its activation.  Leaves
    keep their ``.grad``.  A released graph cannot be walked again.

    ``on_final(leaf)`` is called once for each reachable ``requires_grad``
    leaf, right after the backward of its last consumer in the walk: from
    then on its ``.grad`` (None if no consumer passed it a gradient) is
    final, and the callback may use, drop or write the leaf.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss._prev:
        raise NoTape("loss has no tape: it was not produced through recorded operations, "
                     "or backward(..., release=True) already released it")
    order = _topo_order(loss)
    # The walk runs ``order`` backwards, so a leaf's last consumer in the walk
    # is the first node of ``order`` that lists it as an input.
    finals, seen = {}, set()  # id(node) -> leaves whose gradient is final after it
    for node in order:
        node.grad = None
        if on_final is not None:
            for p in node._prev:
                if p._backward is None and p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    finals.setdefault(id(node), []).append(p)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node)
        if finals:
            for p in finals.pop(id(node), ()):
                on_final(p)
        if release:
            node.grad, node._prev, node._backward = None, (), None


def grad_check(f, x, eps=1e-5, max_coords=None):
    """Compare backward() gradients of scalar ``f(x)`` against central differences.

    Returns the max relative error over checked coordinates, using
    max(|analytic|, |numeric|, 1e-8) as the denominator.  When
    ``max_coords`` is given, a random subset of coordinates, drawn with
    seed 0, is checked instead of all of them.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise InvalidParam(f"grad_check eps must be in [1e-7, 1e-3], got {eps}")
    had_grad = x.requires_grad
    x.requires_grad = True
    try:
        y = f(x)
        if not np.isfinite(y.data).all():
            raise NonFinite("f(x) is not finite")
        backward(y)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        x.requires_grad = had_grad

    flat = x.data.reshape(-1)
    aflat = analytic.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        coords = np.random.default_rng(0).choice(flat.size, size=max_coords, replace=False)

    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x).data)
        flat[i] = orig - eps
        fm = float(f(x).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFinite("f produced NaN/Inf during finite differencing")
        numeric = (fp - fm) / (2.0 * eps)
        rel = abs(numeric - aflat[i]) / max(abs(numeric), abs(aflat[i]), 1e-8)
        worst = max(worst, rel)
    return worst
