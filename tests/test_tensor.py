"""Tensor-core op contracts, hand oracles, and finite-difference checks."""

import tracemalloc

import numpy as np
import pytest

from _oracles import (oracle_accum, oracle_gelu, oracle_gelu_op, oracle_layer_norm, oracle_linear,
                      oracle_softmax)
from railswin import tensor as T
from railswin.errors import InvalidParam, NoTape, NonFinite, NotScalar, ShapeMismatch
from railswin.tensor import Tensor, backward, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = T.matmul(eye, eye)
        assert np.array_equal(out.data, np.eye(2))

    def test_hand_sum_of_products(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        # oracle: out[i, 0] = sum_k a[i, k] * b[k, 0]
        expected = [[sum(a.data[i][k] * b.data[k][0] for k in range(2))] for i in range(2)]
        assert T.matmul(a, b).data.tolist() == expected == [[3.0], [7.0]]

    def test_grad_check(self):
        a = Tensor(rng(1).normal(size=(3, 4)))
        b = Tensor(rng(2).normal(size=(4, 2)))
        assert grad_check(lambda t: T.tsum(T.matmul(t, b)), a, eps=1e-5) < 1e-6
        assert grad_check(lambda t: T.tsum(T.matmul(a, t)), b, eps=1e-5) < 1e-6

    def test_batched_broadcast(self):
        a = Tensor(rng(3).normal(size=(5, 3, 4)))
        b = Tensor(rng(4).normal(size=(4, 2)))
        out = T.matmul(a, b)
        assert out.shape == (5, 3, 2)
        assert np.allclose(out.data, a.data @ b.data)
        probe = Tensor(rng(5).normal(size=(5, 3, 2)))
        assert grad_check(lambda t: T.tsum(T.matmul(a, t) * probe), b, eps=1e-5) < 1e-6

    def test_inner_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(rng(0).normal(size=(1, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, k, 1, 0).data, x.data)

    def test_ones_kernel_hand_oracle(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=1, pad=1)

        def oracle(r, c):
            total = 0.0
            for i in range(3):
                for j in range(3):
                    rr, cc = r + i - 1, c + j - 1
                    if 0 <= rr < 3 and 0 <= cc < 3:
                        total += 1.0
            return total

        for r in range(3):
            for c in range(3):
                assert out.data[0, r, c] == oracle(r, c)
        assert out.data[0, 1, 1] == 9.0
        assert out.data[0, 0, 0] == 4.0

    def test_grad_check(self):
        x = Tensor(rng(1).normal(size=(2, 5, 5)))
        k = Tensor(rng(2).normal(size=(3, 2, 3, 3)))
        assert grad_check(lambda t: T.tsum(T.conv2d(t, k, 1, 1)), x, eps=1e-5) < 1e-6
        assert grad_check(lambda t: T.tsum(T.conv2d(x, t, 1, 1)), k, eps=1e-5) < 1e-6

    def test_stride_and_shape_law(self):
        x = Tensor(rng(3).normal(size=(1, 7, 9)))
        k = Tensor(rng(4).normal(size=(2, 1, 3, 3)))
        out = T.conv2d(x, k, stride=2, pad=1)
        assert out.shape == (2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_errors(self):
        with pytest.raises(ShapeMismatch):
            T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))), 1, 0)
        with pytest.raises(InvalidParam):
            T.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), 0, 0)


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(rng(0).normal(size=(4, 3)))
        w = Tensor(np.eye(3))
        assert np.array_equal(T.linear(x, w).data, x.data)

    def test_hand_dot(self):
        out = T.linear(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0]]), Tensor([0.5]))
        assert out.data.tolist() == [3.5]

    def test_grad_check(self):
        x = Tensor(rng(1).normal(size=(4, 6)))
        w = Tensor(rng(2).normal(size=(3, 6)))
        b = Tensor(rng(3).normal(size=(3,)))
        assert grad_check(lambda t: T.tsum(T.linear(t, w, b)), x, eps=1e-5) < 1e-6
        assert grad_check(lambda t: T.tsum(T.linear(x, t, b)), w, eps=1e-5) < 1e-6
        assert grad_check(lambda t: T.tsum(T.linear(x, w, t)), b, eps=1e-5) < 1e-6

    def test_trailing_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.linear(Tensor(np.ones((2, 5))), Tensor(np.ones((3, 4))))

    @pytest.mark.parametrize("batch_axes, flat", [(0, (30, 4)), (1, (2, 15, 4))])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_batch_axes_equals_folded_input(self, batch_axes, flat, transposed):
        """Folding into the rows gives the values and gradients of a pre-folded input."""
        data = rng(4).normal(size=(2, 4, 3, 5) if transposed else (2, 3, 5, 4))
        if transposed:
            data = data.transpose(0, 2, 3, 1)  # a non-contiguous [2, 3, 5, 4] view
        probe = rng(5).normal(size=(2, 3, 5, 6))

        def run(x_data, **kw):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(rng(6).normal(size=(6, 4)), requires_grad=True)
            b = Tensor(rng(7).normal(size=(6,)), requires_grad=True)
            out = T.linear(x, w, b, **kw)
            T.backward(T.tsum(out * Tensor(probe.reshape(out.shape))))
            return out.data.reshape(probe.shape), x.grad.reshape(data.shape), w.grad, b.grad

        got = run(data, batch_axes=batch_axes)
        expected = run(np.ascontiguousarray(data).reshape(flat))
        for a, e in zip(got, expected):
            assert np.array_equal(a, e)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = T.softmax(Tensor([np.log(2.0), 0.0]), axis=-1)
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-14)

    def test_shift_invariance(self):
        a = T.softmax(Tensor([5.0, 5.0, 5.0]), axis=-1)
        b = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        assert np.array_equal(a.data, b.data)
        x = rng(0).normal(size=(3, 4))
        assert np.allclose(T.softmax(Tensor(x + 7.5), -1).data,
                           T.softmax(Tensor(x), -1).data, atol=1e-14)

    def test_slices_sum_to_one(self):
        x = Tensor(rng(1).uniform(-30, 30, size=(4, 7)))
        out = T.softmax(x, axis=1)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_bad_axis(self):
        with pytest.raises(InvalidParam):
            T.softmax(Tensor([1.0, 2.0]), axis=3)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_mirror_sums_to_one(self):
        x = rng(0).normal(size=(3, 3)) * 5
        total = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
        assert np.allclose(total, 1.0, atol=1e-14)

    def test_grad_check(self):
        x = Tensor(rng(1).normal(size=(2, 3)))
        assert grad_check(lambda t: T.tsum(T.sigmoid(t)), x, eps=1e-5) < 1e-6

    def test_extreme_inputs_stay_finite(self):
        out = T.sigmoid(Tensor([-1e9, -800.0, 800.0, 1e9]))
        assert np.all(np.isfinite(out.data))


class TestLayerNorm:
    def test_constant_slice(self):
        g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = T.layer_norm(Tensor([4.2, 4.2, 4.2]), g, b)
        assert np.array_equal(out.data, np.zeros(3))

    def test_two_point_closed_form(self):
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = T.layer_norm(Tensor([1.0, 3.0]), g, b, eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_normalized_moments(self):
        g, b = Tensor(np.ones(8)), Tensor(np.zeros(8))
        x = Tensor(rng(2).normal(size=(5, 8)) * 3 + 1)
        out = T.layer_norm(x, g, b)
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-10)
        assert np.all(np.abs(out.data.var(axis=-1) - 1.0) < 1e-4)

    def test_grad_check(self):
        x = Tensor(rng(3).normal(size=(2, 4)))
        g = Tensor(rng(4).normal(size=(4,)))
        b = Tensor(rng(5).normal(size=(4,)))
        probe = Tensor(rng(6).normal(size=(2, 4)))
        assert grad_check(lambda t: T.tsum(T.layer_norm(t, g, b) * probe), x, eps=1e-5) < 1e-5
        assert grad_check(lambda t: T.tsum(T.layer_norm(x, t, b) * probe), g, eps=1e-5) < 1e-5
        assert grad_check(lambda t: T.tsum(T.layer_norm(x, g, t) * probe), b, eps=1e-5) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotics(self):
        assert abs(T.gelu(Tensor([6.0])).data[0] - 6.0) < 1e-3
        assert abs(T.gelu(Tensor([-6.0])).data[0]) < 1e-3

    def test_grad_check(self):
        x = Tensor(rng(0).normal(size=(3, 3)))
        assert grad_check(lambda t: T.tsum(T.gelu(t)), x, eps=1e-5) < 1e-4

    def test_within_two_ulp_of_pow_form(self):
        """Products in place of ``xd**3``, ``xd**2``, ``t**2`` move each value by at most 2 ulp.

        The ulp is taken of the terms the formula adds: for x >= 0 that is
        the plain relative error.  For x < 0, ``1 + t`` and ``1 - t*t``
        cancel (t -> -1), and there a 1-ulp change of ``t`` is a relative
        change of up to 3e-13 in the result for either form.
        """
        xd = np.concatenate([rng(7).uniform(-10.0, 10.0, 100_000), [0.0, 1e3, -1e3]])
        x = Tensor(xd, requires_grad=True)
        backward(T.tsum(T.gelu(x)))
        y_ref, dy_ref = oracle_gelu(xd)
        t = np.abs(np.tanh(np.sqrt(2.0 / np.pi) * (xd + 0.044715 * xd**3)))
        dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * xd**2)
        y_scale = 0.5 * np.abs(xd) * (1.0 + t)
        dy_scale = 0.5 * (1.0 + t) + 0.5 * np.abs(xd) * (1.0 + t * t) * dinner
        assert np.all(np.abs(T.gelu(x).data - y_ref) <= 4.5e-16 * y_scale)
        assert np.all(np.abs(x.grad - dy_ref) <= 4.5e-16 * dy_scale)
        pos = xd >= 0
        assert np.all(y_scale[pos] == np.abs(y_ref[pos]))  # plain relative error for x >= 0
        assert T.gelu(Tensor([0.0, 1e3, -1e3])).data.tolist() == [0.0, 1e3, -0.0]


class TestPooling:
    def test_constant_channel(self):
        x = Tensor(np.full((3, 2, 2), 1.7))
        for mode in ("avg", "max"):
            out = T.pool_spatial(x, mode)
            assert out.shape == (3, 1, 1)
            assert np.allclose(out.data, 1.7)

    def test_enumeration(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        assert T.pool_spatial(x, "avg").data[0, 0, 0] == 2.5
        assert T.pool_spatial(x, "max").data[0, 0, 0] == 4.0

    def test_avg_le_max(self):
        x = Tensor(rng(0).normal(size=(5, 4, 4)))
        avg = T.pool_spatial(x, "avg").data
        mx = T.pool_spatial(x, "max").data
        assert np.all(avg < mx)  # equality needs a constant channel
        const = Tensor(np.full((1, 3, 3), 2.0))
        assert T.pool_spatial(const, "avg").data == T.pool_spatial(const, "max").data

    def test_channel_pool(self):
        x = Tensor(rng(1).normal(size=(1, 3, 3)))
        assert np.array_equal(T.pool_channel(x, "avg").data, x.data)
        two = Tensor(np.stack([np.full((1, 1), 1.0), np.full((1, 1), 3.0)]))
        assert T.pool_channel(two, "avg").data[0, 0, 0] == 2.0
        assert T.pool_channel(two, "max").data[0, 0, 0] == 3.0
        y = Tensor(rng(2).normal(size=(6, 4, 5)))
        assert T.pool_channel(y, "max").shape == (1, 4, 5)

    def test_pool_grads(self):
        x = Tensor(rng(3).normal(size=(2, 3, 3)))
        ps = Tensor(rng(4).normal(size=(2, 1, 1)))
        pc = Tensor(rng(5).normal(size=(1, 3, 3)))
        for mode in ("avg", "max"):
            assert grad_check(lambda t: T.tsum(T.pool_spatial(t, mode) * ps), x, eps=1e-5) < 1e-6
            assert grad_check(lambda t: T.tsum(T.pool_channel(t, mode) * pc), x, eps=1e-5) < 1e-6


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(rng(0).normal(size=(2, 3)), requires_grad=True)
        backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_closed_form(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(T.tsum(x * x))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_repeated_backward_does_not_accumulate(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(x * x)
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        assert np.array_equal(x.grad, first)

    def test_not_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NotScalar):
            backward(x * x)

    def test_no_tape(self):
        with pytest.raises(NoTape):
            backward(Tensor([1.0]))

    def test_shared_input_used_twice(self):
        x = Tensor([3.0], requires_grad=True)
        backward(T.tsum(x * x + x))
        assert x.grad.tolist() == [7.0]

    def test_stored_gradients_are_never_written(self):
        """A .grad may be an upstream gradient itself; accumulating more must not change it."""
        x = Tensor(rng(1).normal(size=(2, 3)), requires_grad=True)
        y = x + 0.0  # add hands its output gradient to x as is
        loss = T.tsum(y * 2.0 + y.reshape(3, 2).reshape(2, 3))
        backward(loss)
        assert np.array_equal(x.grad, np.full((2, 3), 3.0))
        assert np.array_equal(y.grad, np.full((2, 3), 3.0))


def _nano_loss(placement, task):
    """The loss of one nano training batch (4 images, 32x32), built as ``train`` builds it."""
    from railswin.swin import SwinBackbone, nano_config
    from railswin.synth import SyntheticSpec, generate_synthetic
    from railswin.train import (_class_label, _image_tensor, head_forward, init_head_params,
                                localization_loss)

    data = generate_synthetic(SyntheticSpec(num_images=4, image_size=(32, 32), seed=3))
    cat_index = {c: i for i, c in enumerate(sorted(data.categories))}
    backbone = SwinBackbone(nano_config(placement, seed=0))
    head = init_head_params(backbone.cfg, len(data.categories), task)
    features = backbone.forward(_image_tensor(data.images), head.stage + 1)
    out = head_forward(features, head)
    if task == "classification":
        return T.cross_entropy(out, np.array([_class_label(im, cat_index) for im in data.images]))
    return localization_loss(out, data.images, features[head.stage].shape[-2:],
                             backbone.cfg.stage_stride(head.stage), cat_index)


class TestRelease:
    @pytest.mark.parametrize("task", ["classification", "localization"])
    @pytest.mark.parametrize("placement", ["none", "model", "stage", "block"])
    def test_same_leaf_gradients_and_an_empty_tape(self, placement, task):
        """A released walk leaves every leaf the default walk's gradient, and no tape."""
        from railswin.swin import CbamPlacement

        loss = _nano_loss(CbamPlacement(placement), task)
        nodes = T._topo_order(loss)
        leaves = [n for n in nodes if n._backward is None]
        inner = [n for n in nodes if n._backward is not None]
        backward(loss)
        kept = [None if n.grad is None else n.grad.copy() for n in leaves]
        assert sum(g is not None for g in kept) > 20

        backward(loss, release=True)
        for n, g in zip(leaves, kept):
            assert (n.grad is None) == (g is None)
            if g is not None:
                assert np.array_equal(n.grad, g)
        assert len(inner) > 50
        for n in inner:
            assert n.grad is None and n._prev == () and n._backward is None
        with pytest.raises(NoTape, match="released"):
            backward(loss)


def _on_final_graph():
    """A loss over leaves a, b, d, e and constant c, and the leaves that get a callback.

    ``a`` has three consumers at different depths, ``e`` is one op's input
    twice (``mul(e, e)``), and ``d``'s only consumer gets no gradient: a node
    whose backward passes none on stands between it and the loss.
    """
    r = rng(7)
    a, b, d, e = (Tensor(r.normal(size=(3, 4)), requires_grad=True) for _ in range(4))
    c = Tensor(r.normal(size=(3, 4)))
    y1 = a * b
    y2 = T.gelu(y1) + a
    y3 = T.softmax(y2 * c) * a
    dd = d * 2.0
    cut = T._make(dd.data.copy(), (dd,), lambda out: None)
    loss = T.tsum(y3 + T.mul(e, e) + cut)
    return loss, [a, b, d, e], c


class TestOnFinal:
    def _run(self, build, release):
        """Callback order and gradients at call time, against a plain walk's."""
        loss, leaves, *_ = build()
        backward(loss)
        plain = [None if t.grad is None else t.grad.copy() for t in leaves]
        loss, leaves, *rest = build()
        position = {id(t): k for k, t in enumerate(leaves)}
        nodes = T._topo_order(loss)
        calls = []

        def fn(t):
            calls.append(t)
            g = plain[position[id(t)]]
            assert (t.grad is None) == (g is None)
            if g is not None:
                assert np.array_equal(t.grad, g)

        backward(loss, release=release, on_final=fn)
        return calls, leaves, nodes, rest

    @pytest.mark.parametrize("release", [False, True])
    def test_once_per_leaf_with_its_final_gradient(self, release):
        calls, leaves, nodes, (c,) = self._run(_on_final_graph, release)
        assert sorted(map(id, calls)) == sorted(map(id, leaves))
        assert all(t.requires_grad and t._backward is None for t in calls)
        assert all(t is not c for t in calls)
        assert leaves[2].grad is None  # d: its only consumer got no gradient
        assert len(nodes) > len(leaves) + 6

    @pytest.mark.parametrize("release", [False, True])
    def test_nano_block_localization(self, release):
        from railswin.swin import CbamPlacement

        def build():
            loss = _nano_loss(CbamPlacement.BLOCK, "localization")
            leaves = [n for n in T._topo_order(loss) if n._backward is None and n.requires_grad]
            return loss, leaves

        calls, leaves, nodes, _ = self._run(build, release)
        assert len(leaves) > 50
        assert sorted(map(id, calls)) == sorted(map(id, leaves))

    def test_callback_may_drop_the_gradient(self):
        """A leaf's gradient is not read again after its callback."""
        loss, leaves, _ = _on_final_graph()
        dropped = []

        def fn(t):
            dropped.append(t.grad)
            t.grad = None

        backward(loss, release=True, on_final=fn)
        assert all(t.grad is None for t in leaves)
        assert sum(g is not None for g in dropped) == 3


def _assert_grads_equal_to_oracle_accum(monkeypatch, build):
    """Run ``build()`` and backward twice, new ``_accum`` against the zeros-and-+= one."""
    def grads():
        loss = build()
        nodes = T._topo_order(loss)
        backward(loss)
        first = [None if n.grad is None else np.array(n.grad) for n in nodes]
        backward(loss)  # a second call in a row gives the same gradients
        for n, g in zip(nodes, first):
            assert (n.grad is None) == (g is None)
            if g is not None:
                assert np.array_equal(n.grad, g)
                assert n.grad.shape == n.data.shape and n.grad.dtype == np.float64
        return first

    mine = grads()
    with monkeypatch.context() as m:
        m.setattr(T, "_accum", oracle_accum)
        ref = grads()
    assert len(mine) == len(ref)
    for a, b in zip(mine, ref):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


class TestAccumOracle:
    def test_tensor_consumed_three_times(self, monkeypatch):
        r = rng(2)
        x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(r.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(r.normal(size=(4,)), requires_grad=True)

        def build():
            h = T.linear(x, w, b)
            return T.tsum(T.gelu(h) * h + T.softmax(h, -1) * x + T.transpose(h, (1, 0)).sum(axis=1))

        _assert_grads_equal_to_oracle_accum(monkeypatch, build)
        assert x.grad.shape == (3, 4) and b.grad.shape == (4,)

    def test_transposed_gradient_reaches_a_reduction(self, monkeypatch):
        """A transposed view stored as is would change layer_norm's summation order."""
        r = rng(5)
        x = Tensor(r.normal(size=(24, 40)), requires_grad=True)
        g = Tensor(r.normal(size=(40,)), requires_grad=True)
        b = Tensor(r.normal(size=(40,)), requires_grad=True)
        probe = Tensor(r.normal(size=(40, 24)))
        _assert_grads_equal_to_oracle_accum(
            monkeypatch, lambda: T.tsum(T.transpose(T.layer_norm(x, g, b), (1, 0)) * probe))

    def test_0d_operands(self, monkeypatch):
        s = Tensor(1.5, requires_grad=True)
        x = Tensor(rng(3).normal(size=(5,)), requires_grad=True)
        _assert_grads_equal_to_oracle_accum(monkeypatch, lambda: T.tsum(-(x * s)) * s + s)

    def test_nano_block_backward(self, monkeypatch):
        from railswin.swin import CbamPlacement, SwinBackbone, nano_config
        from railswin.synth import SyntheticSpec, generate_synthetic
        from railswin.train import _image_tensor, head_forward, init_head_params, localization_loss

        data = generate_synthetic(SyntheticSpec(num_images=4, image_size=(32, 32), seed=3))
        backbone = SwinBackbone(nano_config(CbamPlacement.BLOCK, seed=0))
        head = init_head_params(backbone.cfg, len(data.categories), "localization")
        r = rng(4)
        for _, t in backbone.named_parameters() + head.named_parameters():
            t.data = t.data + r.normal(0.0, 0.2, t.shape)  # no zero-initialized branch
        cat_index = {c: i for i, c in enumerate(sorted(data.categories))}
        stride = backbone.cfg.patch_size * 4
        grid = (32 // stride, 32 // stride)
        x = _image_tensor(data.images)

        def build():
            raw = head_forward(backbone.forward(x), head)
            return localization_loss(raw, data.images, grid, stride, cat_index)

        _assert_grads_equal_to_oracle_accum(monkeypatch, build)
        nonzero = [n for n, t in backbone.named_parameters() if t.grad is not None and t.grad.any()]
        assert len(nonzero) > 50 and any(".cbam." in n for n in nonzero)


# Stage-0 shapes: the nano config at batch 16 (32x32 input) and the full-size
# config at batch 1 (224x224): the block grid, its MLP width, and the
# attention scores [B, windows, heads, T, T].
KERNEL_SHAPES = {"nano": {"grid": (16, 8, 8, 16), "hidden": 32, "scores": (16, 16, 1, 4, 4)},
                 "full": {"grid": (1, 56, 56, 96), "hidden": 384, "scores": (1, 64, 3, 49, 49)}}


def _fortran(a):
    """The same values in column-major memory: not C-contiguous for rank >= 2."""
    return np.asfortranarray(a)


def _layout(a):
    """Strides of the axes longer than 1: the order an array's memory is walked in."""
    return tuple(st for st, n in zip(a.strides, a.shape) if n > 1)


def _forward_backward(op, args, upstream):
    """Output and input gradients of one node, back-propagating ``upstream``."""
    y = op(*args)
    y.grad = upstream
    y._backward(y)
    return y.data, [a.grad for a in args]


def _assert_kernel_matches_oracle(op, oracle, arrays, upstream, *extra):
    """New and previous body: outputs and gradients ==, in the same memory layout."""
    upstream_before = upstream.copy()

    def tensors():
        return [Tensor(a.copy(order="K"), requires_grad=True) for a in arrays] + list(extra)

    args = tensors()
    y, grads = _forward_backward(op, args, upstream)
    y_ref, grads_ref = _forward_backward(oracle, tensors(), upstream)
    assert np.array_equal(y, y_ref) and _layout(y) == _layout(y_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert (g is None) == (g_ref is None)
        if g is not None:
            assert np.array_equal(g, g_ref) and _layout(g) == _layout(g_ref)
    assert all(t.grad is not None for t in args[:len(arrays)])
    assert np.array_equal(upstream, upstream_before)  # an upstream gradient is never written
    for a, t in zip(arrays, args):
        assert np.array_equal(t.data, a)


@pytest.mark.parametrize("layout", ["contiguous", "fortran-grad", "fortran-input-and-grad"])
@pytest.mark.parametrize("size", ["nano", "full"])
class TestRewrittenKernelOracles:
    """linear, layer_norm, gelu and softmax write into arrays they allocate;
    their earlier bodies (``_oracles``) hold them to ==."""

    def _inputs(self, shape, layout, seed):
        r = rng(seed)
        x = r.normal(size=shape)
        return (_fortran(x) if layout == "fortran-input-and-grad" else x), r

    def _grad(self, r, shape, layout):
        g = r.normal(size=shape)
        return g if layout == "contiguous" else _fortran(g)

    def test_linear(self, size, layout):
        grid, hidden = KERNEL_SHAPES[size]["grid"], KERNEL_SHAPES[size]["hidden"]
        x, r = self._inputs(grid, layout, 11)
        w, b = r.normal(size=(hidden, grid[-1])), r.normal(size=(hidden,))
        g = self._grad(r, grid[:-1] + (hidden,), layout)
        _assert_kernel_matches_oracle(lambda x, w, b: T.linear(x, w, b, batch_axes=1),
                                      lambda x, w, b: oracle_linear(x, w, b, batch_axes=1),
                                      [x, w, b], g)

    def test_layer_norm(self, size, layout):
        grid = KERNEL_SHAPES[size]["grid"]
        x, r = self._inputs(grid, layout, 12)
        x = x * 3.0 + 1.5
        gamma, beta = r.normal(size=grid[-1:]), r.normal(size=grid[-1:])
        _assert_kernel_matches_oracle(T.layer_norm, oracle_layer_norm, [x, gamma, beta],
                                      self._grad(r, grid, layout))

    def test_layer_norm_constant_affine(self, size, layout):
        """gamma and beta without gradients: only the input's is computed."""
        grid = KERNEL_SHAPES[size]["grid"]
        x, r = self._inputs(grid, layout, 13)
        gamma, beta = Tensor(r.normal(size=grid[-1:])), Tensor(r.normal(size=grid[-1:]))
        _assert_kernel_matches_oracle(T.layer_norm, oracle_layer_norm, [x],
                                      self._grad(r, grid, layout), gamma, beta)

    def test_gelu(self, size, layout):
        shape = KERNEL_SHAPES[size]["grid"][:-1] + (KERNEL_SHAPES[size]["hidden"],)
        x, r = self._inputs(shape, layout, 14)
        _assert_kernel_matches_oracle(T.gelu, oracle_gelu_op, [x * 2.0],
                                      self._grad(r, shape, layout))

    def test_softmax(self, size, layout):
        shape = KERNEL_SHAPES[size]["scores"]
        x, r = self._inputs(shape, layout, 15)
        _assert_kernel_matches_oracle(T.softmax, oracle_softmax, [x * 4.0],
                                      self._grad(r, shape, layout))


def retained_bytes(build):
    """``build()``'s result and the bytes of memory still allocated after it returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_layer_norm_keeps_one_input_sized_array():
    """A recorded layer_norm holds its output, and only [..., 1] statistics
    besides it: backward rebuilds the normalised input from x."""
    r = rng(16)
    x = Tensor(r.normal(size=(8, 28, 28, 96)), requires_grad=True)
    gamma, beta = (Tensor(r.normal(size=(96,)), requires_grad=True) for _ in range(2))
    out, held = retained_bytes(lambda: T.layer_norm(x, gamma, beta))
    assert out._backward is not None
    assert x.data.nbytes <= held < 1.25 * x.data.nbytes


def test_gelu_0d_matches_oracle():
    x, x_ref = Tensor(-0.7, requires_grad=True), Tensor(-0.7, requires_grad=True)
    y, y_ref = T.gelu(x), oracle_gelu_op(x_ref)
    backward(y)
    backward(y_ref)
    assert y.shape == () and y.data == y_ref.data and x.grad == x_ref.grad


def _conv_pad1(x, k):
    return T.conv2d(x, k, pad=1)


class TestConstantOperands:
    """Backwards compute gradients only for inputs that require them."""

    @pytest.mark.parametrize("op, shapes, constant", [
        (T.add, [(3, 4), (4,)], 1),
        (T.add, [(4,), (3, 4)], 0),
        (T.mul, [(3, 4), (3, 1)], 1),
        (T.mul, [(3, 4), ()], 1),
        (T.matmul, [(4, 4), (2, 4, 3)], 0),
        (T.matmul, [(2, 3, 4), (4, 5)], 1),
        (T.linear, [(2, 3, 4), (5, 4), (5,)], 0),
        (T.linear, [(2, 3, 4), (5, 4), (5,)], 1),
        (T.linear, [(2, 3, 4), (5, 4), (5,)], 2),
        (_conv_pad1, [(2, 3, 5, 5), (4, 3, 3, 3)], 0),
        (_conv_pad1, [(2, 3, 5, 5), (4, 3, 3, 3)], 1),
    ])
    def test_same_gradients_and_none_on_the_constant(self, op, shapes, constant):
        r = rng(9)
        data = [r.normal(size=s) for s in shapes]
        probe = None

        def grads(const_index):
            nonlocal probe
            ts = [Tensor(d, requires_grad=i != const_index) for i, d in enumerate(data)]
            out = op(*ts)
            if probe is None:
                probe = r.normal(size=out.shape)
            backward(T.tsum(out * Tensor(probe)))
            return [t.grad for t in ts]

        full, part = grads(None), grads(constant)
        assert part[constant] is None
        for i, (a, b) in enumerate(zip(part, full)):
            if i != constant:
                assert np.array_equal(a, b)

    def test_constant_operand_is_not_reduced(self, monkeypatch):
        shapes = []
        unbroadcast = T._unbroadcast
        monkeypatch.setattr(T, "_unbroadcast",
                            lambda g, shape: shapes.append(shape) or unbroadcast(g, shape))
        x = Tensor(rng(10).normal(size=(2, 3, 3)), requires_grad=True)
        c = Tensor(rng(11).normal(size=(3, 3)))
        backward(T.tsum(T.matmul(T.mul(T.add(x, c), c), c)))
        assert shapes == [(2, 3, 3)] * 3

    def test_constant_kernel_is_not_differentiated(self, monkeypatch):
        x = Tensor(rng(12).normal(size=(1, 2, 4, 4)), requires_grad=True)
        out = T.conv2d(x, Tensor(rng(13).normal(size=(3, 2, 3, 3))), pad=1)
        loss = T.tsum(out)
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
        backward(loss)
        assert calls == ["bohw,oc->bchw"] * 9


class TestGradCheck:
    def test_linear_is_exact(self):
        x = Tensor(rng(0).normal(size=(3,)))
        w = Tensor(rng(1).normal(size=(3,)))
        assert grad_check(lambda t: T.tsum(t * w), x, eps=1e-5) < 1e-9

    def test_sigmoid_sum(self):
        x = Tensor(rng(2).normal(size=(4,)))
        assert grad_check(lambda t: T.tsum(T.sigmoid(t)), x, eps=1e-5) < 1e-6

    def test_softmax_cross_entropy(self):
        x = Tensor(rng(3).normal(size=(4, 5)))
        targets = rng(4).integers(0, 5, size=4)
        assert grad_check(lambda t: T.cross_entropy(t, targets), x, eps=1e-5) < 1e-5

    def test_eps_range(self):
        x = Tensor([1.0])
        with pytest.raises(InvalidParam):
            grad_check(lambda t: T.tsum(t), x, eps=1e-2)

    def test_non_finite(self):
        x = Tensor([2.0])

        def bad(t):
            out = t * float("nan")
            return T.tsum(out)

        with pytest.raises(NonFinite):
            grad_check(bad, x)


class TestStructuralOps:
    def test_roll_pad_slice_concat_take_grads(self):
        r = rng(7)
        x = Tensor(r.normal(size=(3, 4)))
        probes = {
            "roll": (lambda t: T.tsum(T.roll(t, (1, -1), (0, 1)) * probe_a), x),
            "pad": (lambda t: T.tsum(T.zero_pad(t, [(1, 0), (2, 1)]) * probe_b), x),
            "slice": (lambda t: T.tsum(T.slice_axis(t, 1, 1, 3) * probe_c), x),
            "concat": (lambda t: T.tsum(T.concat([t, t * 3.0], axis=0) * probe_d), x),
        }
        probe_a = Tensor(r.normal(size=(3, 4)))
        probe_b = Tensor(r.normal(size=(4, 7)))
        probe_c = Tensor(r.normal(size=(3, 2)))
        probe_d = Tensor(r.normal(size=(6, 4)))
        for name, (fn, arg) in probes.items():
            assert grad_check(fn, arg, eps=1e-5) < 1e-6, name
        table = Tensor(r.normal(size=(9, 2)))
        idx = r.integers(0, 9, size=(4, 4))
        probe_e = Tensor(r.normal(size=(4, 4, 2)))
        assert grad_check(lambda t: T.tsum(T.take(t, idx) * probe_e), table, eps=1e-5) < 1e-6

    def test_transpose_reshape_roundtrip(self):
        x = Tensor(rng(8).normal(size=(2, 3, 4)))
        y = T.transpose(x, (2, 0, 1))
        z = T.transpose(y, (1, 2, 0))
        assert np.array_equal(z.data, x.data)
        w = T.reshape(x, (6, 4))
        assert np.array_equal(w.data.reshape(2, 3, 4), x.data)

    def test_losses_grad(self):
        r = rng(9)
        x = Tensor(r.normal(size=(3, 4)))
        targets = (r.random((3, 4)) > 0.5).astype(float)
        assert grad_check(lambda t: T.bce_with_logits(t, targets), x, eps=1e-5) < 1e-6
        ref = r.normal(size=(3, 4))
        assert grad_check(lambda t: T.smooth_l1(t, ref), x, eps=1e-5) < 1e-6


class TestInvariants:
    def test_all_ops_pass_grad_check_on_seeded_shapes(self):
        """Every differentiable op, rank <= 4, extents <= 8, rel err < 1e-4."""
        r = rng(42)
        shapes = [(5,), (3, 7), (2, 3, 4), (2, 2, 3, 3)]
        for shape in shapes:
            x = Tensor(r.normal(size=shape))
            probe = Tensor(r.normal(size=shape))
            for fn in (T.sigmoid, T.gelu, T.relu):
                assert grad_check(lambda t: T.tsum(fn(t) * probe), x, eps=1e-5) < 1e-4
            assert grad_check(lambda t: T.tsum(T.softmax(t, -1) * probe), x, eps=1e-5) < 1e-4
            g = Tensor(r.normal(size=(shape[-1],)))
            b = Tensor(r.normal(size=(shape[-1],)))
            assert grad_check(lambda t: T.tsum(T.layer_norm(t, g, b) * probe), x, eps=1e-5) < 1e-4

    def test_determinism(self):
        def run():
            r = rng(11)
            x = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(r.normal(size=(4, 4)))
            loss = T.tsum(T.softmax(T.matmul(x, w), -1) * w)
            backward(loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)

    def test_finite_outputs(self):
        x = Tensor(rng(12).normal(size=(3, 3)) * 50)
        for out in (T.softmax(x, -1), T.sigmoid(x), T.gelu(x)):
            assert np.all(np.isfinite(out.data))
