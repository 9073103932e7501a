"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def init(cls, params):
        # np.zeros leaves the pages untouched until the first step writes them
        return cls(m=[np.zeros(p.data.shape) for p in params],
                   v=[np.zeros(p.data.shape) for p in params], t=0)


# Elements per cache block: 128 KB per float64 operand, so the blocks of p,
# g, m and v and the two scratch blocks stay resident in a 2 MiB L2.
CHUNK = 16384


def adamw_update(p, g, m, v, t, lr, betas, eps, weight_decay, scratch):
    """Step ``t`` of AdamW, in place, for tensor ``p`` with gradient ``g`` and moments ``m``, ``v``.

    Weight decay is decoupled and applied to the pre-update parameter
    (param -= lr * wd * param) before the bias-corrected moment update.  A
    ``g`` of None (parameter unused this step) still decays ``p`` but leaves
    the moments untouched.  The caller advances the step counter ``t`` once
    per step of all its tensors.  An update reads no other tensor, so the
    order in which tensors are updated changes no byte.  ``scratch`` is a
    pair of CHUNK-sized buffers to reuse.
    """
    b1, b2 = betas
    decay = 1.0 - lr * weight_decay
    if g is None:
        if weight_decay:
            p.data *= decay
        return
    if g.shape != p.data.shape:
        raise ShapeMismatch(f"adamw_update: grad {g.shape} != param {p.data.shape}")
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    # Each tensor is updated CHUNK elements at a time, decay included, so
    # each block is read from memory once.  Two block-sized scratch buffers
    # hold every temporary.  Each ufunc call below is one operation of
    #   p *= 1 - lr*wd;  m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    #   p -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps)
    # in that order, so the update is bit-identical to the expression form.
    for pc, gc, mc, vc, s1, s2 in _blocks(p.data, g, m, v, *scratch):
        if weight_decay:
            pc *= decay
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=s1)
        mc += s1
        vc *= b2
        np.multiply(gc, 1.0 - b2, out=s1)
        s1 *= gc
        vc += s1
        np.divide(mc, bc1, out=s1)
        s1 *= lr
        np.divide(vc, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        pc -= s1


def _blocks(p, g, m, v, buf1, buf2):
    """Matching (p, g, m, v, scratch, scratch) blocks of one tensor's update.

    The blocks are views, so writes land in ``p``, ``m`` and ``v``.  A
    tensor that is not C-contiguous throughout has no flat view; it is one
    block, with scratch of its own shape.
    """
    if not all(a.flags.c_contiguous for a in (p, g, m, v)):
        yield p, g, m, v, np.empty(g.shape), np.empty(g.shape)
        return
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for i in range(0, g.size, CHUNK):
        j, n = i + CHUNK, min(CHUNK, g.size - i)
        yield p[i:j], g[i:j], m[i:j], v[i:j], buf1[:n], buf2[:n]
