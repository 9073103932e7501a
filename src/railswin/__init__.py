"""Desk-scale rail-surface defect detection toolkit.

A numpy-backed autograd tensor core, channel/spatial attention modules,
a four-stage windowed-attention backbone with three attention-insertion
variants, a COCO-style data pipeline, detection metrics, and a seeded
training/ablation harness with a CLI.
"""

from . import cbam, config, data, metrics, optim, swin, synth, tensor, train
from .errors import (
    DanglingReference,
    DatasetEmpty,
    IndivisibleInput,
    InvalidParam,
    MissingStats,
    NonFinite,
    NonFiniteLoss,
    NoTape,
    NotScalar,
    ParseError,
    RailswinError,
    ShapeMismatch,
)
from .tensor import Tensor, backward, grad_check, no_grad

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "grad_check", "no_grad",
    "cbam", "config", "data", "metrics", "optim", "swin", "synth", "tensor", "train",
    "DanglingReference", "DatasetEmpty", "IndivisibleInput", "InvalidParam",
    "MissingStats", "NonFinite", "NonFiniteLoss", "NoTape", "NotScalar",
    "ParseError", "RailswinError", "ShapeMismatch",
    "__version__",
]
