"""Tensor engine tests: values, gradients, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from distilforge.autodiff import (
    AutodiffError,
    Tape,
    Tensor,
    add,
    add_bias,
    backward,
    div,
    gather,
    huber_penalty,
    legs,
    log_softmax_with_temperature,
    matmul,
    mul,
    pairwise_l2,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax_rows,
    sqrt,
    sub,
    triple_cosines,
)
from distilforge.losses import TupleSets, cross_entropy
from distilforge.models import NetworkConfig, init_network
from distilforge.verification import grad_check, op_cases, op_gradient_error

GRAD_TOL = 1e-6
OP_CASES = op_cases()


class TestTensorBasics:
    def test_data_is_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.shape == (2, 2)
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


class TestArithmetic:
    def test_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(add(a, b).data, [[6.0, 8.0], [10.0, 12.0]])
        np.testing.assert_array_equal(sub(a, b).data, [[-4.0, -4.0], [-4.0, -4.0]])
        np.testing.assert_array_equal(mul(a, b).data, [[5.0, 12.0], [21.0, 32.0]])
        np.testing.assert_array_equal(div(b, a).data, [[5.0, 3.0], [7.0 / 3.0, 2.0]])

    def test_scalar_and_size_one_operands(self):
        a = Tensor([[2.0, 4.0]], requires_grad=True)
        backward(reduce_sum(mul(a, 1.5)))
        np.testing.assert_array_equal(a.grad, [[1.5, 1.5]])
        np.testing.assert_array_equal(div(a, 2.0).data, [[1.0, 2.0]])
        np.testing.assert_array_equal(div(a, Tensor([4.0])).data, [[0.5, 1.0]])
        # add and sub take only equal-shape tensors; mul no size-one tensor.
        for op in (add, sub):
            with pytest.raises(TypeError, match=f"{op.__name__}: expected a Tensor, got float"):
                op(a, 1.5)
        for op in (add, sub, mul):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(a, Tensor(2.0))
        with pytest.raises(TypeError, match="mul: expected a Tensor or a number, got str"):
            mul(a, "2")
        assert not hasattr(a, "shape")

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

    @pytest.mark.parametrize("constant", ["a", "b"])
    def test_constant_operand_gets_no_gradient(self, constant):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-1.0, 1.0, (5, 4)), requires_grad=constant != "a")
        b = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=constant != "b")
        g = rng.uniform(-1.0, 1.0, (5, 3))
        grad_a, grad_b = matmul(a, b)._rule(g)
        backward(reduce_sum(mul(matmul(a, b), Tensor(g))))
        if constant == "a":
            assert grad_a is None and a.grad is None
            assert np.array_equal(grad_b, a.data.T @ g)
            assert np.array_equal(b.grad, a.data.T @ g)
        else:
            assert grad_b is None and b.grad is None
            assert np.array_equal(grad_a, g @ b.data.T)
            assert np.array_equal(a.grad, g @ b.data.T)


class TestConstantOperandGating:
    """The two-tensor rules of sub, mul and div give a constant operand None."""

    RULES = {
        "sub": (sub, (3, 2)),
        "mul": (mul, (3, 2)),
        "div": (div, (3, 2)),
        "div_by_size_one": (div, (1,)),
    }

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("constant", [0, 1], ids=["a", "b"])
    def test_constant_operand_gets_none(self, rule, constant):
        op, shape_b = self.RULES[rule]
        rng = np.random.default_rng(11)
        a_data, b_data = rng.uniform(1.0, 2.0, (3, 2)), rng.uniform(1.0, 2.0, shape_b)
        g = rng.uniform(-1.0, 1.0, (3, 2))
        a = Tensor(a_data, requires_grad=constant != 0)
        b = Tensor(b_data, requires_grad=constant != 1)
        gated = op(a, b)._rule(g)
        tracked = op(Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True))
        assert gated[constant] is None
        assert np.array_equal(gated[1 - constant], tracked._rule(g)[1 - constant])

class TestReductions:
    def test_values(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert reduce_sum(x).data == 10.0
        assert reduce_mean(x).data == 2.5
        np.testing.assert_array_equal(reduce_sum(x, axis=0).data, [4.0, 6.0])

    def test_axis_validation(self):
        x = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError, match="axis"):
            reduce_sum(x, axis=2)
        with pytest.raises(ValueError, match="axis"):
            reduce_sum(x, axis="rows")

    def test_bool_axis_rejected(self):
        # bool is an int subclass; True would silently reduce over axis 1.
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        for axis in (True, False):
            with pytest.raises(ValueError, match="reduce axis must be an int or None"):
                reduce_sum(x, axis=axis)

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

    def test_sqrt_zero_has_zero_subgradient(self):
        x = Tensor([0.0, 4.0], requires_grad=True)
        backward(reduce_sum(sqrt(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])

    def test_huber_penalty_values(self):
        x = Tensor([0.0, 0.5, 1.0, 2.0, -2.0, -0.5])
        np.testing.assert_array_equal(
            huber_penalty(x).data, [0.0, 0.125, 0.5, 1.5, 1.5, 0.125]
        )

class TestSoftmax:
    def test_values(self):
        p, log_p = softmax_rows(np.array([[0.0, math.log(2.0)]]), 1.0)
        np.testing.assert_allclose(p, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)
        np.testing.assert_allclose(log_p, np.log([[1.0 / 3.0, 2.0 / 3.0]]), atol=1e-15)
        np.testing.assert_allclose(
            log_softmax_with_temperature(Tensor([[0.0, 0.0]]), 1.0).data,
            [[-math.log(2.0), -math.log(2.0)]],
            atol=1e-15,
        )

    def test_temperature_softens(self):
        z = np.array([[0.0, 2.0]])
        hot = softmax_rows(z, 1.0)[0][0]
        soft = softmax_rows(z, 2.0)[0][0]
        expected = math.e / (1.0 + math.e)
        assert abs(soft[1] - expected) < 1e-12
        assert soft[1] < hot[1]

    def test_large_logits_stable(self):
        z = np.array([[1e4, -1e4, 0.0]])
        p, log_p = softmax_rows(z, 1.0)
        assert np.isfinite(p).all() and np.isfinite(log_p).all()
        assert abs(p.sum() - 1.0) < 1e-12
        lp = log_softmax_with_temperature(Tensor(z), 1.0).data
        assert np.array_equal(lp, log_p)

    def test_validation(self):
        for t in (0.0, -1.0, math.inf, math.nan, True):
            with pytest.raises(ValueError, match="temperature"):
                softmax_rows(np.array([[1.0]]), t)
        with pytest.raises(ValueError, match="temperature"):
            log_softmax_with_temperature(Tensor([[1.0]]), -1.0)
        with pytest.raises(ValueError, match="2-d"):
            softmax_rows(np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="2-d"):
            log_softmax_with_temperature(Tensor([1.0, 2.0]), 1.0)

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

    def test_triple_cosines_validation(self):
        legs, lengths = Tensor(np.eye(4).reshape(2, 2, 4)), Tensor(np.ones((2, 2)))
        # Two rows with two legs each, every off-diagonal cell selected.
        cells = np.broadcast_to(~np.eye(2, dtype=bool), (2, 2, 2))
        for bad_legs, bad_lengths in ((legs, Tensor(np.ones(4))), (Tensor(np.eye(4)), lengths)):
            with pytest.raises(ValueError, match="do not match"):
                triple_cosines(bad_legs, bad_lengths, cells)
        bad_masks = [cells.reshape(2, 4), cells.astype(float), np.ones((1, 4, 1), dtype=bool)]
        bad_masks += [np.ones(shape, dtype=bool) for shape in ((1, 3, 3), (4, 0, 0), (2, 1, 1))]
        # A mask of the wrong shape and one that is not boolean.
        bad_masks += [np.ones((2, 2, 3), dtype=bool), cells.astype(np.int8)]
        for bad in bad_masks:
            with pytest.raises(ValueError, match=r"must be a boolean \(2, 2, 2\) mask$"):
                triple_cosines(legs, lengths, bad)
        short = Tensor([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(AutodiffError, match="leg length"):
            triple_cosines(legs, short, cells)
        # A short leg that no selected cell reads is fine.
        second_group = cells & np.array([False, True])[:, None, None]
        assert triple_cosines(legs, short, second_group).data.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [3, 16, 17, 32, 128])
    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_legs_equal_the_gather_sub_chain(self, n, d):
        """Values and gradient bit for bit, with the rows also read by pairwise_l2.

        The second reader makes the rows an interior node whose gradient adds
        up three contributions, so a change in their order shows.
        """
        rng = np.random.default_rng(100 * n + d)
        tuples = TupleSets.build(n, rng)
        other = tuples.other
        middle = np.arange(n).repeat(other.shape[1])
        x = rng.standard_normal((n, d))
        leg_weights = Tensor(rng.standard_normal(other.shape + (d,)))
        dist_weights = Tensor(rng.standard_normal((n, n)))

        def run(make_legs):
            leaf = Tensor(x, requires_grad=True)
            e = mul(leaf, 1.0)
            out = make_legs(e)
            backward(add(
                reduce_sum(mul(out, leg_weights)), reduce_sum(mul(pairwise_l2(e), dist_weights))
            ))
            return out.data, leaf.grad

        got = run(lambda e: legs(e, other))
        chain = run(lambda e: reshape(
            sub(gather(e, other.reshape(-1)), gather(e, middle)), leg_weights.data.shape
        ))
        for g, c in zip(got, chain):
            assert g.shape == c.shape and g.tobytes() == c.tobytes()

    def test_legs_validation(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        other = TupleSets.build(3).other
        np.testing.assert_array_equal(
            legs(x, other).data,
            (x.data[[1, 2, 0, 2, 0, 1]] - x.data[[0, 0, 1, 1, 2, 2]]).reshape(3, 2, 2),
        )
        with pytest.raises(ValueError, match="2-d"):
            legs(Tensor(np.arange(3.0)), other)
        # A 1-d `other` and one with a row too few.
        with pytest.raises(ValueError, match=r"other of shape \(6,\) is not \(3, m\)"):
            legs(x, other.reshape(-1))
        with pytest.raises(ValueError, match=r"other of shape \(2, 2\) is not \(3, m\)"):
            legs(x, other[:-1])
        # Before the first row and past the last.
        for bad in ([[1, 2], [0, 2], [-1, 1]], [[1, 3], [0, 2], [0, 1]]):
            with pytest.raises(ValueError, match="other endpoint out of range for 3 rows"):
                legs(x, bad)

    @pytest.mark.parametrize("apart", [0.0, 1e-170], ids=["zero", "underflowing"])
    def test_triple_cosines_divides_unread_short_legs_safely(self, apart):
        """Legs no selected cell reads may be 0 long: results equal the masked division's.

        Rows 1 and 3 coincide or lie 1e-170 apart, so the legs between them
        have length 0 (the squares underflow), though the second pair's legs
        are not zero. Values and leg gradients are equal bit for bit. The
        length gradient of a 0-long leg is -0.0 where the masked division
        wrote +0.0; `sqrt`'s backward, which reads it in `RelationSide`,
        discards it. A read leg that short still raises.
        """
        rng = np.random.default_rng(11)
        e = rng.standard_normal((5, 3))
        e[1] = 0.0
        e[3] = [apart, -apart, 0.0]
        tuples = TupleSets.build(5)
        ld = e[tuples.other] - e[:, None, :]
        lens = np.sqrt((ld * ld).sum(axis=2))
        assert np.count_nonzero(lens == 0.0) == 2
        assert ld[lens == 0.0].any() == (apart > 0.0)
        off_diagonal = ~np.eye(4, dtype=bool)
        long_leg = lens > 0.0
        cells = long_leg[:, :, None] & long_leg[:, None, :] & off_diagonal
        weights = rng.standard_normal(np.count_nonzero(cells))
        lt, st = Tensor(ld, requires_grad=True), Tensor(lens, requires_grad=True)
        out = triple_cosines(lt, st, cells)
        backward(reduce_sum(mul(out, Tensor(weights))))
        reference = masked_division_cosines(ld, lens, cells, weights)
        for got, want in zip((out.data, lt.grad), reference):
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(st.grad, reference[2])
        with pytest.raises(AutodiffError, match="leg length below"):
            triple_cosines(lt, st, cells | off_diagonal)

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

    def test_pairwise_l2_coincident_rows_subgradient(self):
        e = Tensor([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], requires_grad=True)
        backward(reduce_sum(pairwise_l2(e)))
        assert np.isfinite(e.grad).all()

    def test_pairwise_l2_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            pairwise_l2(Tensor([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least 2 rows"):
            pairwise_l2(Tensor([[1.0, 2.0]]))


def masked_division_cosines(ld, lens, cells, weights):
    """triple_cosines' values and both gradients under upstream `weights`.

    The reference divides by the nonzero lengths only and writes zeros
    elsewhere.
    """
    nonzero = (lens > 0.0)[..., None]
    unit = np.divide(ld, lens[..., None], out=np.zeros_like(ld), where=nonzero)
    gram = unit @ unit.transpose(0, 2, 1)
    g_gram = np.zeros_like(gram)
    g_gram[cells] = weights
    g_unit = (g_gram + g_gram.transpose(0, 2, 1)) @ unit
    g_legs = np.divide(g_unit, lens[..., None], out=np.zeros_like(ld), where=nonzero)
    g_lens = np.divide(
        -(g_unit * unit).sum(axis=2), lens, out=np.zeros_like(lens), where=nonzero[..., 0]
    )
    return gram[cells], g_legs, g_lens


# Every finite float64, up to the largest magnitudes.
FINITE = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


class TestFiniteness:
    """Ops that skip the finiteness check cannot make a non-finite value; the others check."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2), elements=FINITE))
    @example(np.array([1.7e308, -1.7e308, 5e-324, -1.0, 0.0]))
    def test_unchecked_ops_keep_finite_inputs_finite(self, values):
        x = Tensor(values)
        # Every row, last first, and the first one again.
        picks = [*range(values.shape[0] - 1, -1, -1), 0]
        outputs = [
            relu(x),
            sqrt(Tensor(np.abs(values))),
            gather(x, picks),
            reshape(x, (-1,)),
            huber_penalty(x),
        ]
        for out in outputs:
            assert np.isfinite(out.data).all()

    def test_legs_checks_its_result(self):
        x = Tensor([[1.7e308], [-1.7e308], [0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(AutodiffError, match="non-finite result from 'legs'"):
                legs(x, TupleSets.build(3).other)

    @pytest.mark.parametrize("k", [2], ids=["gram"])
    def test_triple_cosines_checks_its_result(self, k):
        # `lengths` is an input of its own: legs far longer than it overflow.
        legs, lengths = Tensor(np.full((1, k, 3), 1e200)), Tensor(np.ones((1, k)))
        cells = ~np.eye(k, dtype=bool)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AutodiffError, match="non-finite result from 'triple_cosines'"):
                triple_cosines(legs, lengths, cells)


class TestOpGradients:
    @pytest.mark.parametrize("name, op, x", OP_CASES, ids=[name for name, _, _ in OP_CASES])
    def test_gradient(self, name, op, x):
        assert op_gradient_error(op, x) <= GRAD_TOL


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

    def test_second_backward_through_one_output_repeats_the_first(self):
        net = init_network(NetworkConfig(2, (4, 3), 2, init_seed=5))
        x = Tensor(np.random.default_rng(10).uniform(-1.0, 1.0, (6, 2)))
        out = net.forward(x)
        labels = Tensor(np.eye(2)[[0, 1, 1, 0, 1, 0]])
        grads = []
        for _ in range(2):
            net.zero_grads()
            backward(cross_entropy(out.logits, labels))
            grads.append(net.parameters["w0"].grad.copy())
        assert np.array_equal(grads[1], grads[0])

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

    def test_tape_order_is_post_order_depth_first(self):
        # A diamond: one parent with two children that meet again, over a shared leaf.
        x = Tensor([1.0, 2.0], requires_grad=True)
        parent = mul(x, 2.0)
        left, right = mul(parent, 3.0), mul(parent, 4.0)
        root = reduce_sum(add(left, mul(x, right)))
        joined = root.parents[0]
        product = joined.parents[1]
        assert Tape.from_root(root).nodes == [parent, right, product, left, joined, root]

    def test_record_of_constants_keeps_no_inputs(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        out = add(a, b)
        assert out.parents == () and not out.requires_grad
        trained = Tensor([1.0, 2.0], requires_grad=True)
        assert add(trained, b).parents[0] is trained

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
        loss = reduce_sum(mul(Tensor(y.data.copy()), x))
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
            return reduce_sum(mul(Tensor(t.data.copy()), t))

        x = Tensor(np.array([1.0, 2.0]))
        assert grad_check(wrong, x) > 1e-2

    def test_requires_scalar_function(self):
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda t: mul(t, 2.0), Tensor([1.0, 2.0]))
