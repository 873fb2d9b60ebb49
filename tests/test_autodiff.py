"""Tensor engine tests: values, gradients, and failure modes."""

import math

import numpy as np
import pytest

from distilforge.autodiff import (
    AutodiffError,
    Tensor,
    add,
    add_bias,
    backward,
    div,
    gather,
    huber_penalty,
    log_softmax_with_temperature,
    matmul,
    mul,
    pairwise_l2,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax_with_temperature,
    sqrt,
    sub,
)
from distilforge.verification import grad_check

GRAD_TOL = 1e-6


class TestTensorBasics:
    def test_data_is_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_non_finite_construction_rejected(self):
        with pytest.raises(AutodiffError):
            Tensor([1.0, float("nan")])
        with pytest.raises(AutodiffError):
            Tensor(float("inf"))

    def test_detach_copies_and_untracks(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        d.data[0] = 99.0
        assert t.data[0] == 1.0


class TestArithmetic:
    def test_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(add(a, b).data, [[6.0, 8.0], [10.0, 12.0]])
        np.testing.assert_array_equal(sub(a, b).data, [[-4.0, -4.0], [-4.0, -4.0]])
        np.testing.assert_array_equal(mul(a, b).data, [[5.0, 12.0], [21.0, 32.0]])
        np.testing.assert_array_equal(div(b, a).data, [[5.0, 3.0], [7.0 / 3.0, 2.0]])

    def test_scalar_and_size_one_operands(self):
        a = Tensor([[2.0, 4.0]])
        np.testing.assert_array_equal(add(a, 1.5).data, [[3.5, 5.5]])
        s = Tensor(2.0, requires_grad=True)
        out = reduce_sum(mul(a, s))
        backward(out)
        assert s.grad.shape == ()
        assert s.grad == 6.0

    def test_size_one_divisor_gradient(self):
        a = Tensor([[2.0, 4.0]], requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        backward(reduce_sum(div(a, s)))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])
        # d/ds sum(a/s) = -sum(a)/s^2 = -6/4
        np.testing.assert_allclose(s.grad, -1.5)

    def test_shape_mismatch_raises(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([1.0, 2.0, 3.0])
        for fn in (add, sub, mul, div):
            with pytest.raises(ValueError, match="shape mismatch"):
                fn(a, b)

    def test_div_guard(self):
        a = Tensor([1.0])
        with pytest.raises(AutodiffError, match="divisor"):
            div(a, Tensor([1e-13]))
        with pytest.raises(AutodiffError, match="divisor"):
            div(a, 0.0)

    @pytest.mark.parametrize("op", [add, sub, mul, div], ids=lambda op: op.__name__)
    def test_gradients(self, op):
        rng = np.random.default_rng([ord(c) for c in op.__name__])
        a = Tensor(rng.uniform(0.5, 1.5, (3, 4)))
        b = Tensor(rng.uniform(0.5, 1.5, (3, 4)))
        err = grad_check(lambda t: reduce_sum(op(t, b)), a)
        assert err < GRAD_TOL
        err = grad_check(lambda t: reduce_sum(op(a, t)), b)
        assert err < GRAD_TOL


class TestMatmul:
    def test_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[17.0], [39.0]])

    def test_requires_two_dimensional(self):
        with pytest.raises(ValueError, match="2-d"):
            matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-1.0, 1.0, (3, 5)))
        b = Tensor(rng.uniform(-1.0, 1.0, (5, 2)))
        assert grad_check(lambda t: reduce_sum(matmul(t, b)), a) < GRAD_TOL
        assert grad_check(lambda t: reduce_sum(matmul(a, t)), b) < GRAD_TOL


class TestReductions:
    def test_values(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert reduce_sum(x).data == 10.0
        assert reduce_mean(x).data == 2.5
        np.testing.assert_array_equal(reduce_sum(x, axis=0).data, [4.0, 6.0])
        np.testing.assert_array_equal(reduce_mean(x, axis=1).data, [1.5, 3.5])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))
        w = Tensor(rng.uniform(-1.0, 1.0, (3,)))
        assert grad_check(reduce_sum, x) < GRAD_TOL
        assert grad_check(reduce_mean, x) < GRAD_TOL
        assert grad_check(lambda t: reduce_sum(mul(reduce_sum(t, axis=1), w)), x) < GRAD_TOL
        assert grad_check(lambda t: reduce_sum(mul(reduce_mean(t, axis=0), w)), Tensor(x.data.T.copy())) < GRAD_TOL

    def test_axis_validation(self):
        x = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError, match="axis"):
            reduce_sum(x, axis=2)
        with pytest.raises(ValueError, match="axis"):
            reduce_sum(x, axis="rows")

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ValueError, match="zero elements"):
            reduce_mean(Tensor(np.zeros((0, 3))))


class TestNonlinearities:
    def test_relu_value_and_gradient(self):
        x = Tensor([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(relu(x).data, [[0.0, 0.0, 3.0]])
        y = Tensor([[-2.0, -0.5, 0.5, 3.0]], requires_grad=True)
        backward(reduce_sum(relu(y)))
        np.testing.assert_array_equal(y.grad, [[0.0, 0.0, 1.0, 1.0]])

    def test_sqrt(self):
        x = Tensor([[4.0, 9.0]])
        np.testing.assert_array_equal(sqrt(x).data, [[2.0, 3.0]])
        with pytest.raises(AutodiffError, match="negative"):
            sqrt(Tensor([-1.0]))
        rng = np.random.default_rng(5)
        t = Tensor(rng.uniform(0.5, 3.0, (2, 3)))
        assert grad_check(lambda u: reduce_sum(sqrt(u)), t) < GRAD_TOL

    def test_sqrt_zero_has_zero_subgradient(self):
        x = Tensor([0.0, 4.0], requires_grad=True)
        backward(reduce_sum(sqrt(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])

    def test_huber_penalty_values(self):
        x = Tensor([0.0, 0.5, 1.0, 2.0, -2.0, -0.5])
        np.testing.assert_array_equal(
            huber_penalty(x).data, [0.0, 0.125, 0.5, 1.5, 1.5, 0.125]
        )

    def test_huber_penalty_gradient(self):
        # Stay away from the seam at |x| = 1 where the test step straddles it.
        x = Tensor([-2.5, -0.6, 0.3, 1.7])
        assert grad_check(lambda t: reduce_sum(huber_penalty(t)), x) < GRAD_TOL


class TestSoftmax:
    def test_values(self):
        z = Tensor([[0.0, math.log(2.0)]])
        np.testing.assert_allclose(
            softmax_with_temperature(z, 1.0).data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15
        )
        np.testing.assert_allclose(
            log_softmax_with_temperature(Tensor([[0.0, 0.0]]), 1.0).data,
            [[-math.log(2.0), -math.log(2.0)]],
            atol=1e-15,
        )

    def test_temperature_softens(self):
        z = Tensor([[0.0, 2.0]])
        hot = softmax_with_temperature(z, 1.0).data[0]
        soft = softmax_with_temperature(z, 2.0).data[0]
        expected = math.e / (1.0 + math.e)
        assert abs(soft[1] - expected) < 1e-12
        assert soft[1] < hot[1]

    def test_large_logits_stable(self):
        z = Tensor([[1e4, -1e4, 0.0]])
        p = softmax_with_temperature(z, 1.0).data
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12
        lp = log_softmax_with_temperature(z, 1.0).data
        assert np.isfinite(lp).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            softmax_with_temperature(Tensor([[1.0]]), 0.0)
        with pytest.raises(ValueError, match="temperature"):
            log_softmax_with_temperature(Tensor([[1.0]]), -1.0)
        with pytest.raises(ValueError, match="2-d"):
            softmax_with_temperature(Tensor([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_gradients(self, t):
        rng = np.random.default_rng(6)
        z = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
        w = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))
        err = grad_check(lambda u: reduce_sum(mul(softmax_with_temperature(u, t), w)), z)
        assert err < GRAD_TOL * 10
        err = grad_check(
            lambda u: reduce_sum(mul(log_softmax_with_temperature(u, t), w)), z
        )
        assert err < GRAD_TOL * 10


class TestStructuralOps:
    def test_add_bias(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = add_bias(x, b)
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
        backward(reduce_sum(out))
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])
        with pytest.raises(ValueError, match="incompatible"):
            add_bias(x, Tensor([1.0, 2.0, 3.0]))

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = reshape(x, (6,))
        np.testing.assert_array_equal(out.data, np.arange(6, dtype=float))
        backward(reduce_sum(mul(out, Tensor(np.arange(6, dtype=float)))))
        np.testing.assert_array_equal(x.grad, np.arange(6, dtype=float).reshape(2, 3))

    def test_gather_values_and_repeats(self):
        x = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = gather(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, [30.0, 10.0, 30.0])
        backward(reduce_sum(out))
        # Repeated indices must accumulate.
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    @pytest.mark.parametrize("indices", [[4, 0, 4, 2, 4, 0], []], ids=["repeats", "empty"])
    def test_gather_backward_matches_add_at(self, shape, indices):
        rng = np.random.default_rng(len(shape) + len(indices))
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        idx = np.array(indices, dtype=np.int64)
        out = gather(x, idx)
        weights = rng.standard_normal(out.data.shape)
        backward(reduce_sum(mul(out, Tensor(weights))))
        reference = np.zeros(shape)
        np.add.at(reference, idx, weights)
        assert np.array_equal(x.grad, reference)

    def test_gather_validation(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            gather(x, np.array([2]))
        with pytest.raises(ValueError, match="one-dimensional"):
            gather(x, np.array([[0]]))

    def test_pairwise_l2_values(self):
        e = Tensor([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_l2(e).data
        np.testing.assert_array_equal(d, [[0.0, 5.0], [5.0, 0.0]])

    def test_pairwise_l2_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(7)
        e = Tensor(rng.uniform(-1.0, 1.0, (6, 3)))
        d = pairwise_l2(e).data
        np.testing.assert_array_equal(d, d.T)
        assert (np.diag(d) == 0.0).all()
        assert d[np.triu_indices(6, k=1)].min() > 0.0

    def test_pairwise_l2_gradient(self):
        rng = np.random.default_rng(8)
        e = Tensor(rng.uniform(-1.0, 1.0, (5, 3)))
        w = Tensor(rng.uniform(-1.0, 1.0, (5, 5)))
        err = grad_check(lambda t: reduce_sum(mul(pairwise_l2(t), w)), e)
        assert err < GRAD_TOL * 10

    def test_pairwise_l2_coincident_rows_subgradient(self):
        e = Tensor([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], requires_grad=True)
        backward(reduce_sum(pairwise_l2(e)))
        assert np.isfinite(e.grad).all()

    def test_pairwise_l2_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            pairwise_l2(Tensor([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least 2 rows"):
            pairwise_l2(Tensor([[1.0, 2.0]]))


class TestBackward:
    def test_chain_through_network_shapes(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
        w = Tensor(rng.uniform(-1.0, 1.0, (3, 2)), requires_grad=True)
        b = Tensor(rng.uniform(-1.0, 1.0, (2,)), requires_grad=True)
        loss = reduce_mean(relu(add_bias(matmul(x, w), b)))
        backward(loss)
        assert w.grad.shape == (3, 2)
        assert b.grad.shape == (2,)

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        backward(reduce_sum(mul(x, 3.0)))
        backward(reduce_sum(mul(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_reused_node_accumulates_within_one_tape(self):
        x = Tensor([2.0], requires_grad=True)
        y = mul(x, 3.0)
        loss = reduce_sum(add(y, y))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_scalar_required(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(mul(x, 2.0))
        with pytest.raises(TypeError):
            backward(np.float64(1.0))

    def test_leaf_loss_raises(self):
        with pytest.raises(AutodiffError, match="empty tape"):
            backward(Tensor(1.0))

    def test_constant_subgraph_loss_is_fine(self):
        # A loss built only from constants has no trainable inputs; running
        # backward on it is a no-op, not an error.
        x = Tensor([5.0], requires_grad=True)
        loss = reduce_mean(mul(Tensor([[1.0, 2.0]]), 3.0))
        backward(loss)
        assert x.grad is None

    def test_detached_branch_blocks_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        y = mul(x, 3.0)
        loss = reduce_sum(mul(y.detach(), x))
        backward(loss)
        # Only the direct factor contributes: d/dx (6 * x) = 6.
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_non_finite_intermediate_raises(self):
        x = Tensor([1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(AutodiffError, match="non-finite"):
                add(x, Tensor([1e308]))


class TestGradCheckHelper:
    def test_flags_wrong_gradient(self):
        # A function whose tape gradient is deliberately broken by detaching.
        def wrong(t):
            return reduce_sum(mul(t.detach(), t))

        x = Tensor(np.array([1.0, 2.0]))
        assert grad_check(wrong, x) > 1e-2

    def test_requires_scalar_function(self):
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda t: mul(t, 2.0), Tensor([1.0, 2.0]))
