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
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"adamw_step: grad {g.shape} != param {p.data.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state
