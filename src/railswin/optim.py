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
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params], t=0)


def adamw_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One AdamW update, in place.

    Weight decay is decoupled and applied to the pre-update parameter
    (param -= lr * wd * param) before the bias-corrected moment update.
    ``grads`` entries may be None (parameter unused this step); such
    parameters still decay but their moments are left untouched.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("adamw_step: params/grads/state length mismatch")
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    # Two scratch buffers, sized for the largest gradient, hold every
    # temporary.  Each ufunc call below is one operation of
    #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    #   p -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps)
    # in that order, so the update is bit-identical to the expression form.
    size = max((g.size for g in grads if g is not None), default=0)
    buf1, buf2 = np.empty(size), np.empty(size)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"adamw_step: grad {g.shape} != param {p.data.shape}")
        s1 = buf1[:g.size].reshape(g.shape)
        s2 = buf2[:g.size].reshape(g.shape)
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(g, 1.0 - b2, out=s1)
        s1 *= g
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        p.data -= s1
    return state
