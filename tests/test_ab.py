"""scripts/ab.py: the paired statistic, and two trees imported side by side."""

import importlib.util
import math
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the script pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_b_slower_in_every_round_excludes_zero(ab):
    ratios = [1.01, 1.015, 1.02, 1.025, 1.03, 1.018, 1.022, 1.012, 1.028, 1.02, 1.02]
    got = ab.paired_change(np.log(ratios))
    assert got["change_pct"] == 2.0  # the median ratio, 1.02
    assert got["b_slower"] == got["rounds"] == 11
    lo, hi = got["ci95_pct"]
    assert 1.0 <= lo <= 2.0 <= hi <= 3.0


def test_no_difference_contains_zero(ab):
    log_ratios = [-0.02, -0.015, -0.01, -0.005, 0.0, 0.0, 0.0, 0.005, 0.01, 0.015, 0.02]
    got = ab.paired_change(log_ratios)
    assert got["change_pct"] == 0.0
    assert (got["b_slower"], got["rounds"]) == (4, 11)
    lo, hi = got["ci95_pct"]
    assert lo < 0 < hi
    assert lo >= round(100 * math.expm1(-0.02), 2) and hi <= round(100 * math.expm1(0.02), 2)


def test_two_copies_of_src_are_independent_packages(ab, tmp_path):
    names = ("rs_test_a", "rs_test_b")
    try:
        a, b = (ab.load_tree(ROOT / "src", name, tmp_path) for name in names)
        assert a.tensor.Tensor is not b.tensor.Tensor
        xa = a.tensor.Tensor(np.ones(3), requires_grad=True)
        xb = b.tensor.Tensor(np.ones(3), requires_grad=True)
        with a.tensor.no_grad():
            ya, yb = a.tensor.gelu(xa), b.tensor.gelu(xb)
        assert not ya.requires_grad and ya._prev == ()
        assert yb.requires_grad and yb._prev == (xb,)
    finally:
        sys.path[:] = [p for p in sys.path if p != str(tmp_path)]
        for module in [m for m in sys.modules if m.split(".")[0] in names]:
            del sys.modules[module]
