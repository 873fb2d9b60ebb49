"""Loss-term tests built around independent scalar oracles and hand values."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from distilforge import losses
from distilforge.autodiff import (
    Tensor, add, backward, div, gather, huber_penalty, mul, pairwise_l2, reduce_mean,
    reduce_sum, reshape, sqrt, sub, triple_cosines,
)
from distilforge.losses import (
    COINCIDENCE_EPS,
    TRIPLE_CAP_COUNT,
    LossWeights,
    RelationSide,
    TupleSets,
    cross_entropy,
    kl_softened,
    relation_distill_loss,
    total_loss,
    _legs_per_middle,
)
from distilforge.models import ForwardOutput, NetworkConfig, init_network
from distilforge.verification import (
    max_param_grad_error,
    oracle_cross_entropy,
    oracle_distance_loss,
    oracle_angle_loss,
    oracle_kl,
    oracle_relation_loss,
)

# Three collinear points and a right-angle bend, small enough to hand-check.
COLLINEAR = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
BENT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

# Frozen outputs of the scalar double-loop oracles for the fixtures above
# and for one seeded 4-point batch.
FROZEN_DD_COLLINEAR_VS_BENT = 0.01655845398160842
FROZEN_AD_COLLINEAR_VS_BENT = 0.19526214587563503
E4A = np.array(
    [
        [0.548, -0.122, 0.717],
        [0.395, -0.812, 0.951],
        [0.522, 0.572, -0.744],
        [-0.099, -0.258, 0.854],
    ]
)
E4B = np.array(
    [
        [0.288, 0.646, -0.113],
        [-0.546, 0.109, -0.872],
        [0.655, 0.263, 0.516],
        [-0.291, 0.941, 0.786],
    ]
)
FROZEN_DD_E4 = 0.1408572336432885
FROZEN_AD_E4 = 0.08453028038141203


def leg_ends(tuples):
    """(middle, other) of every leg as (n, m) grids: the legs in row v meet at v."""
    other = tuples.other
    return np.broadcast_to(np.arange(tuples.n)[:, None], other.shape), other


def decode_triples(tuples):
    """(u, v, w) of every triple, read off its grid cell (v, a, b).

    The legs of middle v are other[v, 0 .. m-1]; the cell pairs u = other[v, a]
    with w = other[v, b].
    """
    n, m = tuples.other.shape
    v, a, b = np.nonzero(np.broadcast_to(~np.eye(m, dtype=bool), (n, m, m)))
    return tuples.other[v, a], v, tuples.other[v, b]


def coincide_first_leg(e, tuples):
    """Move the far end of row 0's first leg onto row 0, so some triple loses its angle."""
    e[tuples.other[0, 0]] = e[0]


def coincide_last_leg(e, tuples):
    """Move the far end of the last row's last leg onto that row."""
    e[tuples.other[-1, -1]] = e[-1]


def one_hot(labels, m):
    out = np.zeros((len(labels), m))
    out[np.arange(len(labels)), labels] = 1.0
    return Tensor(out)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma) == (0.4, 0.4, 0.6)
        assert (w.beta1, w.beta2, w.temperature) == (2.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1),
            dict(beta1=float("nan")),
            dict(alpha=0.0, beta=0.0, gamma=0.0),
            dict(temperature=0.0),
        ],
    )
    def test_rejects_bad_weights(self, kwargs):
        with pytest.raises(ValueError):
            LossWeights(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(alpha=True), "alpha must be a number, got True"),
            (dict(beta2=None), "beta2 must be a number, got None"),
            (dict(temperature=True), "temperature must be a number, got True"),
            (dict(temperature="3"), "temperature must be a number, got '3'"),
        ],
        ids=["alpha_bool", "beta2_none", "temperature_bool", "temperature_str"],
    )
    def test_rejects_mistyped_weights(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LossWeights(**kwargs)


class TestTupleSets:
    @pytest.mark.parametrize(
        "n, pairs, triples",
        [(0, 0, 0), (1, 0, 0), (2, 2, 0), (3, 6, 6), (4, 12, 24), (5, 20, 60), (16, 240, 3360)],
    )
    def test_counts(self, n, pairs, triples):
        t = TupleSets.build(n)
        assert (t.num_pairs, t.num_triples) == (pairs, triples)
        assert not t.capped

    def test_pairs_cover_all_ordered_pairs(self):
        t = TupleSets.build(4)
        got = list(zip(*(a.tolist() for a in np.divmod(t.pair_index, 4))))
        assert got == list(itertools.permutations(range(4), 2))

    def test_triples_are_distinct_indices(self):
        t = TupleSets.build(5)
        trip = set(zip(*(a.tolist() for a in decode_triples(t))))
        assert trip == set(itertools.permutations(range(5), 3))

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_full_sets_order_triples_by_middle_index(self, n):
        """Legs are the pairs, and triples run over (v, u, w) in lexicographic order."""
        t = TupleSets.build(n)
        np.testing.assert_array_equal(t.other, t.pair_index.reshape(n, n - 1) % n)
        v, u, w = np.array(list(itertools.permutations(range(n), 3))).T
        for got, expected in zip(decode_triples(t), (u, v, w)):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [5, 16, 17, 32])
    def test_head_and_tail_legs_share_the_middle_index(self, n):
        """Row v of `other` holds v's legs; the grid pairs the legs (v, u) and (v, w) of one row."""
        t = TupleSets.build(n, rng=np.random.default_rng(n))
        m = t.legs_per_middle
        assert m == {5: 4, 16: 15, 17: 14, 32: 10}[n]
        assert t.other.shape == (n, m) and t.n == n
        assert t.num_triples == n * m * (m - 1)
        middle, other = leg_ends(t)
        assert (other != middle).all()
        assert (np.diff(other, axis=1) > 0).all()
        u, v, w = decode_triples(t)
        assert u.shape == (t.num_triples,)
        np.testing.assert_array_equal(v, np.arange(n).repeat(m * (m - 1)))
        assert u.min() >= 0 and max(u.max(), v.max(), w.max()) < n
        assert ((u != v) & (u != w) & (v != w)).all()
        assert len(set(zip(u.tolist(), v.tolist(), w.tolist()))) == t.num_triples

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16])
    def test_full_sets_are_built_once_and_read_only(self, n):
        """A full set's legs are its pairs: one array per n, built once and shared read-only."""
        t = TupleSets.build(n)
        again = TupleSets.build(n, rng=np.random.default_rng(1))
        assert t.pair_index is losses._pairs(n)[0] and t.other is losses._pairs(n)[1]
        assert t.other is again.other and t.pair_index is again.pair_index
        assert t.other.shape == (n, max(n - 1, 0)) and t.n == n
        for array in (t.pair_index, t.other):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_capped_sets_are_built_per_rng(self):
        a = TupleSets.build(17, rng=np.random.default_rng(0))
        b = TupleSets.build(17, rng=np.random.default_rng(0))
        assert a is not b and a.other is not b.other
        assert a.other.flags.writeable
        np.testing.assert_array_equal(a.other, b.other)

    def test_large_batch_subsamples(self):
        """m is the largest value with n*m*(m-1) <= 16*15*14 triples, and at least 2."""
        rng = np.random.default_rng(0)
        for n, m in ((17, 14), (20, 13), (32, 10), (64, 7), (128, 5)):
            t = TupleSets.build(n, rng)
            assert t.capped
            assert t.num_pairs == n * (n - 1)
            assert t.legs_per_middle == m
            assert t.num_triples == n * m * (m - 1) <= TRIPLE_CAP_COUNT < n * (m + 1) * m
        assert [_legs_per_middle(n) for n in (1680, 1681, 5000)] == [2, 2, 2]

    def test_subsample_is_seed_deterministic(self):
        a = TupleSets.build(20, rng=np.random.default_rng(5))
        b = TupleSets.build(20, rng=np.random.default_rng(5))
        c = TupleSets.build(20, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a.other, b.other)
        assert not np.array_equal(a.other, c.other)

    @pytest.mark.parametrize("n", [17, 32, 128])
    def test_sampled_legs_are_distinct_other_rows(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            t = TupleSets.build(n, rng)
            middle, other = leg_ends(t)
            assert (np.diff(other, axis=1) > 0).all()
            assert (other != middle).all()
            assert other.min() >= 0 and other.max() < n

    def test_every_ordered_triple_is_drawn_at_the_same_rate(self):
        """Inclusion rate of each of the 6,840 ordered triples of 20 rows over 4,000 draws.

        With m = 13 legs per middle the rate is m*(m-1) / ((n-1)*(n-2)) = 0.456.
        A binomial rate over 4,000 draws has a standard deviation of 0.0079;
        the tolerance 0.05 is about 6.3 of them.
        """
        n, draws = 20, 4000
        rng = np.random.default_rng(2024)
        counts = np.zeros(n**3)
        for _ in range(draws):
            u, v, w = decode_triples(TupleSets.build(n, rng))
            counts += np.bincount((u * n + v) * n + w, minlength=n**3)
        u, v, w = np.array(list(itertools.permutations(range(n), 3))).T
        rates = counts[(u * n + v) * n + w] / draws
        assert counts.sum() == draws * rates.size * 13 * 12 / (19 * 18)
        assert np.abs(rates - 13 * 12 / (19 * 18)).max() < 0.05

    def test_pair_arrays_are_shared_and_read_only(self):
        a = TupleSets.build(17, rng=np.random.default_rng(0))
        b = TupleSets.build(17, rng=np.random.default_rng(1))
        assert a.pair_index is b.pair_index
        assert not a.pair_index.flags.writeable
        pairs = [u * 17 + v for u, v in itertools.permutations(range(17), 2)]
        np.testing.assert_array_equal(a.pair_index, pairs)

    def test_large_batch_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            TupleSets.build(17)

    def test_the_triple_budget_alone_decides_full_or_sampled(self):
        """Capped exactly past 16 rows, where n*(n-1)*(n-2) first exceeds TRIPLE_CAP_COUNT."""
        for n in range(41):
            t = TupleSets.build(n, rng=np.random.default_rng(n))
            assert t.capped == (n > 16)
            # A batch of 0 has no legs, not -1 per middle index.
            assert (t.legs_per_middle == max(n - 1, 0)) == (not t.capped)
            assert (t.num_triples == 0) == (n < 3)
            assert (n * (n - 1) * (n - 2) > TRIPLE_CAP_COUNT) == t.capped
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert TupleSets.build(16, rng).other is TupleSets.build(16).other
        assert rng.bit_generator.state == state


class TestHuber:
    def test_exact_values(self):
        x = Tensor(np.array([2.0, 0.5, 0.0, 1.0]))
        assert huber_penalty(x).data.tolist() == [1.5, 0.125, 0.0, 0.5]

    def test_large_inputs_do_not_overflow(self):
        x = Tensor(np.array([1e200, -1e300, 0.5]), requires_grad=True)
        with np.errstate(over="raise"):
            out = huber_penalty(x)
            backward(reduce_sum(out))
        assert out.data.tolist() == [1e200 - 0.5, 1e300 - 0.5, 0.125]
        assert x.grad.tolist() == [1.0, -1.0, 0.5]

    def test_symmetry(self):
        x = np.array([0.3, 1.6, 1.0, 2.5])
        np.testing.assert_array_equal(huber_penalty(Tensor(-x)).data, huber_penalty(Tensor(x)).data)


class TestCrossEntropy:
    def test_uniform_logits_give_log_m(self):
        logits = Tensor(np.zeros((5, 4)))
        labels = one_hot([0, 1, 2, 3, 0], 4)
        assert abs(cross_entropy(logits, labels).item() - math.log(4.0)) < 1e-12

    def test_hand_case(self):
        logits = Tensor(np.array([[0.0, math.log(3.0)], [math.log(2.0), 0.0]]))
        labels = one_hot([1, 0], 2)
        # Rows cost log(4/3) and log(3/2); their mean is log(2)/2.
        assert abs(cross_entropy(logits, labels).item() - 0.34657359027997264) < 1e-15

    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            z = rng.uniform(-3.0, 3.0, (6, 5))
            y = one_hot(rng.integers(0, 5, 6), 5)
            got = cross_entropy(Tensor(z), y).item()
            assert abs(got - oracle_cross_entropy(z, y.data)) < 1e-12

    def test_confident_correct_prediction_is_cheap(self):
        logits = Tensor(np.array([[30.0, 0.0]]))
        assert cross_entropy(logits, one_hot([0], 2)).item() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            cross_entropy(Tensor(np.zeros((1, 2))), Tensor(np.array([[0.5, 0.4]])))
        with pytest.raises(ValueError, match="2-d"):
            cross_entropy(Tensor(np.zeros(2)), Tensor(np.array([[1.0, 0.0]])))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((1, 2))), Tensor(np.array([[1.0, 0.0, 0.0]])))


class TestMutualKL:
    def test_identical_logits_zero(self):
        z = np.random.default_rng(21).uniform(-2.0, 2.0, (4, 6))
        assert abs(kl_softened(Tensor(z), Tensor(z.copy()), 1.0).item()) < 1e-12

    def test_hand_case(self):
        student = Tensor(np.zeros((1, 2)))
        teacher = Tensor(np.array([[0.0, math.log(3.0)]]))
        # KL([1/4, 3/4] || [1/2, 1/2]) = 0.75 ln 3 - ln 2.
        assert abs(kl_softened(student, teacher, 1.0).item() - 0.130812035941137) < 1e-15

    def test_positive_and_asymmetric(self):
        rng = np.random.default_rng(22)
        a = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
        b = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
        ab, ba = kl_softened(a, b, 1.0).item(), kl_softened(b, a, 1.0).item()
        assert ab > 0 and ba > 0
        assert abs(ab - ba) > 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = rng.uniform(-3.0, 3.0, (5, 4))
            t = rng.uniform(-3.0, 3.0, (5, 4))
            got = kl_softened(Tensor(s), Tensor(t), 1.0).item()
            assert abs(got - oracle_kl(s, t, 1.0)) < 1e-12

    def test_teacher_receives_no_gradient(self):
        rng = np.random.default_rng(24)
        s = Tensor(rng.uniform(-1.0, 1.0, (3, 4)), requires_grad=True)
        t = Tensor(rng.uniform(-1.0, 1.0, (3, 4)), requires_grad=True)
        backward(kl_softened(s, t, 1.0))
        assert s.grad is not None
        assert t.grad is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="logit shapes differ"):
            kl_softened(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), 1.0)


class TestSelfDistillKL:
    def test_temperature_scaling_hand_case(self):
        # At temperature t the logits are divided by t first, so a teacher
        # with logits t*ln3 lands on probabilities [1/4, 3/4] again.
        t = 3.0
        student = Tensor(np.zeros((1, 2)))
        teacher = Tensor(np.array([[0.0, t * math.log(3.0)]]))
        got = kl_softened(student, teacher, t).item()
        assert abs(got - 0.130812035941137) < 1e-14

    def test_matches_oracle(self):
        rng = np.random.default_rng(25)
        for t in (1.0, 2.0, 3.0, 5.0):
            s = rng.uniform(-3.0, 3.0, (4, 5))
            z = rng.uniform(-3.0, 3.0, (4, 5))
            got = kl_softened(Tensor(s), Tensor(z), t).item()
            assert abs(got - oracle_kl(s, z, t)) < 1e-12

    def test_higher_temperature_softens_penalty(self):
        s = Tensor(np.array([[0.0, 1.0, -1.0]]))
        z = Tensor(np.array([[2.0, -1.0, 0.5]]))
        assert kl_softened(s, z, 5.0).item() < kl_softened(s, z, 1.0).item()

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            kl_softened(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), 0.0)
        with pytest.raises(ValueError, match="logit shapes differ"):
            kl_softened(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), 2.0)


class TestDistancePotentials:
    def test_collinear_hand_values(self):
        tuples = TupleSets.build(3)
        side = RelationSide(Tensor(COLLINEAR)).measure(tuples)
        assert not side.degenerate
        # Distances (1, 2, 1, 1, 2, 1) have mean 4/3.
        expected = {
            (0, 1): 0.75, (0, 2): 1.5, (1, 0): 0.75,
            (1, 2): 0.75, (2, 0): 1.5, (2, 1): 0.75,
        }
        for u, v, p in zip(*np.divmod(tuples.pair_index, 3), side.potentials.data):
            assert abs(p - expected[(int(u), int(v))]) < 1e-15

    def test_mean_is_one(self):
        rng = np.random.default_rng(26)
        for n in (2, 5, 9):
            e = Tensor(rng.uniform(-3.0, 3.0, (n, 4)))
            pots = RelationSide(e).measure(TupleSets.build(n)).potentials
            assert abs(pots.data.mean() - 1.0) < 1e-12

    def test_collapsed_batch_flagged(self):
        e = Tensor(np.ones((4, 3)))
        side = RelationSide(e).measure(TupleSets.build(4))
        assert side.degenerate
        np.testing.assert_array_equal(side.potentials.data, np.zeros(12))

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError, match="built for batch"):
            RelationSide(Tensor(np.zeros((4, 2)))).measure(TupleSets.build(3))


class TestAnglePotentials:
    def test_right_angle_hand_values(self):
        tuples = TupleSets.build(3)
        side = RelationSide(Tensor(BENT)).measure(tuples)
        vals, valid = side.cosines(), side.valid
        assert valid.all()
        # Vertex 1 sees a right angle; vertices 0 and 2 see 45 degrees.
        expected = {1: 0.0, 0: math.cos(math.pi / 4), 2: math.cos(math.pi / 4)}
        for v, got in zip(decode_triples(tuples)[1], vals.data):
            assert abs(got - expected[int(v)]) < 1e-12

    def test_range_bound(self):
        rng = np.random.default_rng(27)
        e = Tensor(rng.uniform(-5.0, 5.0, (7, 3)))
        side = RelationSide(e).measure(TupleSets.build(7))
        vals, valid = side.cosines(), side.valid
        assert valid.all()
        assert vals.data.min() >= -1.0 - 1e-12
        assert vals.data.max() <= 1.0 + 1e-12

    def test_coincident_rows_masked_out(self):
        e = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 3.0]])
        tuples = TupleSets.build(4)
        side = RelationSide(Tensor(e)).measure(tuples)
        assert side.cosines().data.size == side.valid.sum() < tuples.num_triples
        for u, v, _, ok in zip(*decode_triples(tuples), side.valid):
            if {int(u), int(v)} == {0, 1}:
                assert not ok

    @pytest.mark.parametrize("n", [3, 16, 17, 32, 64, 128])
    @pytest.mark.parametrize("coincident", [False, True], ids=["distinct", "coincident"])
    def test_equal_to_per_triple_formula(self, n, coincident):
        rng = np.random.default_rng(n)
        e = rng.standard_normal((n, 5))
        tuples = TupleSets.build(n, rng)
        if coincident:
            coincide_first_leg(e, tuples)
        assert tuples.capped == (n > 16)
        side = RelationSide(Tensor(e)).measure(tuples)
        vals, valid = side.cosines(), side.valid
        assert valid.all() != coincident
        u, v, w = (x[valid] for x in decode_triples(tuples))
        head, tail = e[u] - e[v], e[w] - e[v]
        norm_head = np.sqrt((head * head).sum(axis=1))
        norm_tail = np.sqrt((tail * tail).sum(axis=1))
        formula = (head * tail).sum(axis=1) / norm_head / norm_tail
        # The cosines are read off a Gram matrix of unit legs.
        assert np.abs(vals.data - formula).max() <= 4 * np.finfo(float).eps


class TestTripleCosines:
    @pytest.mark.parametrize("n", [3, 16, 17, 32, 64, 128])
    @pytest.mark.parametrize("coincident", [False, True], ids=["distinct", "coincident"])
    def test_matches_reference_chain(self, n, coincident):
        """Values and gradients against the gather, mul, reduce_sum and div chain."""
        rng = np.random.default_rng(40 + n)
        e = rng.standard_normal((n, 5))
        tuples = TupleSets.build(n, rng)
        if coincident:
            coincide_first_leg(e, tuples)
        middle, other = leg_ends(tuples)
        legs = e[other] - e[middle]
        lengths = np.sqrt((legs * legs).sum(axis=2))
        k = tuples.legs_per_middle
        long_leg = lengths >= COINCIDENCE_EPS
        cells = long_leg[:, :, None] & long_leg[:, None, :] & ~np.eye(k, dtype=bool)
        # The reference chain reads the legs as n*k flat rows.
        v, a, b = np.nonzero(cells)
        head, tail = v * k + a, v * k + b
        assert (head.size < tuples.num_triples) == coincident
        weights = rng.standard_normal(head.size)

        def run(cosines):
            lt, st = Tensor(legs, requires_grad=True), Tensor(lengths, requires_grad=True)
            out = cosines(lt, st)
            backward(reduce_sum(mul(out, Tensor(weights))))
            return out.data, lt.grad, st.grad

        got = run(lambda lt, st: triple_cosines(lt, st, cells))
        def chain(lt, st):
            lt, st = reshape(lt, (n * k, 5)), reshape(st, (n * k,))
            dots = reduce_sum(mul(gather(lt, head), gather(lt, tail)), axis=1)
            return div(div(dots, gather(st, head)), gather(st, tail))

        reference = run(chain)
        assert tuples.capped == (n > 16)
        for g, r in zip(got, reference):
            assert g.shape == r.shape
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


class TestRelationLoss:
    @pytest.mark.parametrize("loss", ["angle", "relation"])
    @pytest.mark.parametrize("built_for", [3, 17])
    def test_tuple_sets_for_another_batch_rejected(self, loss, built_for):
        e = Tensor(np.random.default_rng(27).standard_normal((4, 2)))
        tuples = TupleSets.build(built_for, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"built for batch {built_for}, embeddings have 4"):
            if loss == "angle":
                RelationSide(e).measure(tuples)
            else:
                relation_distill_loss(e, e, LossWeights(), tuples)

    def test_frozen_hand_geometries(self):
        rel = relation_distill_loss(
            Tensor(COLLINEAR), Tensor(BENT), LossWeights(), TupleSets.build(3)
        )
        assert abs(rel.distance.item() - FROZEN_DD_COLLINEAR_VS_BENT) < 1e-12
        assert abs(rel.angle.item() - FROZEN_AD_COLLINEAR_VS_BENT) < 1e-12
        expected_total = FROZEN_DD_COLLINEAR_VS_BENT + 2.0 * FROZEN_AD_COLLINEAR_VS_BENT
        assert abs(rel.total.item() - expected_total) < 1e-12

    def test_frozen_four_point_batch(self):
        rel = relation_distill_loss(
            Tensor(E4A), Tensor(E4B), LossWeights(), TupleSets.build(4)
        )
        assert abs(rel.distance.item() - FROZEN_DD_E4) < 1e-12
        assert abs(rel.angle.item() - FROZEN_AD_E4) < 1e-12

    def test_matches_oracle_on_random_batches(self):
        rng = np.random.default_rng(28)
        w = LossWeights()
        for n in (3, 4, 5):
            ea = rng.uniform(-1.0, 1.0, (n, 3))
            eb = rng.uniform(-1.0, 1.0, (n, 3))
            rel = relation_distill_loss(Tensor(ea), Tensor(eb), w, TupleSets.build(n))
            assert abs(rel.distance.item() - oracle_distance_loss(ea, eb)) < 1e-10
            assert abs(rel.angle.item() - oracle_angle_loss(ea, eb)) < 1e-10

    @pytest.mark.parametrize("n", range(3, 17))
    def test_full_sets_match_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        ea, eb = rng.uniform(-1.0, 1.0, (2, n, 3))
        w = LossWeights()
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), w, TupleSets.build(n))
        assert abs(rel.total.item() - oracle_relation_loss(ea, eb, w.beta1)) < 1e-10

    @pytest.mark.parametrize("n", [6, 32])
    def test_zero_beta1_computes_no_cosine(self, n, monkeypatch):
        """beta1 = 0 computes no cosine: the angle reads 0, the gradient is the distance term's."""
        rng = np.random.default_rng(38)
        ea, eb = rng.uniform(-1.0, 1.0, (2, n, 3))
        tuples = TupleSets.build(n, rng)
        coincide_first_leg(ea, tuples)
        calls = []

        def spy(*args):
            calls.append(args)
            return triple_cosines(*args)

        monkeypatch.setattr(losses, "triple_cosines", spy)

        def relation(weights):
            student = Tensor(ea, requires_grad=True)
            return student, relation_distill_loss(student, Tensor(eb), weights, tuples)

        reference, full = relation(LossWeights())
        backward(full.distance)
        assert len(calls) == 2
        calls.clear()
        student, rel = relation(LossWeights(beta1=0.0))
        backward(rel.total)
        assert calls == []
        assert rel.angle.item() == 0.0
        assert rel.total.item() == rel.distance.item() == full.distance.item()
        assert rel.triples_skipped == full.triples_skipped > 0
        assert np.array_equal(student.grad, reference.grad)

    def test_value_symmetric_in_arguments(self):
        rng = np.random.default_rng(29)
        ea, eb = rng.uniform(-1.0, 1.0, (2, 5, 3))
        t = TupleSets.build(5)
        w = LossWeights()
        ab = relation_distill_loss(Tensor(ea), Tensor(eb), w, t).total.item()
        ba = relation_distill_loss(Tensor(eb), Tensor(ea), w, t).total.item()
        assert abs(ab - ba) < 1e-15

    def test_invariant_to_scale_and_shift(self):
        rng = np.random.default_rng(30)
        e = rng.uniform(-1.0, 1.0, (5, 3))
        t = TupleSets.build(5)
        for lam in (0.5, 2.0, 10.0):
            other = lam * e + rng.uniform(-2.0, 2.0, (1, 3))
            rel = relation_distill_loss(Tensor(e), Tensor(other), LossWeights(), t)
            assert abs(rel.total.item()) < 1e-9

    def test_detached_side_gets_no_gradient(self):
        rng = np.random.default_rng(31)
        ea = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=True)
        eb = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=True)
        rel = relation_distill_loss(ea, Tensor(eb.data.copy()), LossWeights(), TupleSets.build(4))
        backward(rel.total)
        assert ea.grad is not None
        assert eb.grad is None

    def test_tiny_batch_contributes_nothing(self):
        rel = relation_distill_loss(
            Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))), LossWeights(), TupleSets.build(1)
        )
        assert rel.total.item() == 0.0
        assert rel.angle.item() == 0.0

    def test_two_sample_batch_skips_angle_only(self):
        rng = np.random.default_rng(32)
        ea = rng.uniform(-1.0, 1.0, (2, 3))
        eb = rng.uniform(-1.0, 1.0, (2, 3))
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), LossWeights(), TupleSets.build(2))
        assert rel.angle.item() == 0.0
        # With one distance per side the potentials normalize to exactly 1,
        # so a two-sample batch has a well-defined but vanishing distance gap.
        assert rel.distance.item() == 0.0
        assert not rel.pi_collapses

    def test_coincident_rows_counted_as_skipped(self):
        ea = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 3.0]])
        eb = np.random.default_rng(33).uniform(-1.0, 1.0, (4, 2))
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), LossWeights(), TupleSets.build(4))
        assert rel.triples_skipped > 0
        assert np.isfinite(rel.total.item())

    @pytest.mark.parametrize("side", ["a", "b", "both"])
    def test_coincident_rows_match_oracle(self, side):
        rng = np.random.default_rng(34)
        ea, eb = rng.uniform(-1.0, 1.0, (2, 6, 3))
        if side in ("a", "both"):
            ea[4] = ea[1]
        if side in ("b", "both"):
            eb[5] = eb[0]
            eb[3] = eb[0]
        w = LossWeights()
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), w, TupleSets.build(6))
        assert abs(rel.total.item() - oracle_relation_loss(ea, eb, w.beta1)) < 1e-10
        skipped = 0
        for u, v, x in itertools.permutations(range(6), 3):
            legs = [math.dist(e[u], e[v]) for e in (ea, eb)] + [
                math.dist(e[x], e[v]) for e in (ea, eb)
            ]
            skipped += min(legs) < 1e-8
        assert skipped > 0
        assert rel.triples_skipped == skipped

    @pytest.mark.parametrize("n", [16, 17, 32, 64, 128])
    def test_gradient_matches_finite_differences(self, n):
        rng = np.random.default_rng(35)
        ea = Tensor(rng.uniform(-1.0, 1.0, (n, 3)), requires_grad=True)
        eb = Tensor(rng.uniform(-1.0, 1.0, (n, 3)))
        tuples = TupleSets.build(n, rng)
        assert tuples.capped == (n > 16)
        err = max_param_grad_error(
            lambda: relation_distill_loss(ea, eb, LossWeights(), tuples).total, [ea]
        )
        assert err < 1e-4

    def test_peers_of_different_widths_match_oracle(self):
        rng = np.random.default_rng(36)
        w = LossWeights()
        for n in (3, 6):
            wide, narrow = rng.uniform(-1.0, 1.0, (n, 16)), rng.uniform(-1.0, 1.0, (n, 4))
            for ea, eb in ((wide, narrow), (narrow, wide)):
                rel = relation_distill_loss(Tensor(ea), Tensor(eb), w, TupleSets.build(n))
                assert abs(rel.distance.item() - oracle_distance_loss(ea, eb)) < 1e-10
                assert abs(rel.angle.item() - oracle_angle_loss(ea, eb)) < 1e-10
        with pytest.raises(ValueError, match="embedding row counts differ: 4 vs 3"):
            relation_distill_loss(
                Tensor(np.ones((4, 16))), Tensor(np.ones((3, 4))), w, TupleSets.build(4)
            )

    def test_collapsed_embeddings_counted(self):
        ea = np.ones((3, 2))
        eb = np.ones((3, 2)) * 5.0
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), LossWeights(), TupleSets.build(3))
        assert rel.pi_collapses == 2
        assert rel.total.item() == 0.0


def fresh_pair_relation(student, peer, tuples, beta1):
    """(distance, angle, total) with both sides' geometry built for this pair alone.

    The reference composition: the peer is detached, and each side's
    cosines are computed for the pair's valid triples only, not for its own.
    """
    peer = Tensor(peer.data.copy())

    n, m = tuples.n, tuples.legs_per_middle
    pairs = [u * n + v for u, v in itertools.permutations(range(n), 2)]
    middle, other = leg_ends(tuples)

    def potentials_and_long_legs(e):
        dist = pairwise_l2(e)
        mean = div(reduce_sum(dist), float(tuples.num_pairs))
        pots = div(gather(reshape(dist, (n * n,)), pairs), mean)
        return pots, dist.data[middle, other] >= COINCIDENCE_EPS

    def cosines(e, cells):
        flat = sub(gather(e, other.reshape(-1)), gather(e, middle.reshape(-1)))
        legs = reshape(flat, (n, m, e.data.shape[1]))
        lengths = sqrt(reduce_sum(mul(legs, legs), axis=2))
        return triple_cosines(legs, lengths, cells)

    (pots_s, long_s), (pots_p, long_p) = map(potentials_and_long_legs, (student, peer))
    long_leg = long_s & long_p
    cells = long_leg[:, :, None] & long_leg[:, None, :] & ~np.eye(m, dtype=bool)
    dd = reduce_mean(huber_penalty(sub(pots_s, pots_p)))
    ad = reduce_mean(huber_penalty(sub(cosines(student, cells), cosines(peer, cells))))
    return dd, ad, add(dd, mul(ad, beta1))


class TestRelationSide:
    @pytest.mark.parametrize("n", [16, 17, 32, 64, 128])
    @pytest.mark.parametrize("coincident", ["none", "peer_only", "both"])
    def test_shared_sides_match_fresh_geometry(self, n, coincident):
        """Each side measured once and read in both roles, as a simultaneous batch does.

        Values and student gradients are bit-equal to geometry built fresh
        per call. With rows coinciding in b alone, the pair's valid triples
        are a strict subset of a's own, so a's cosines are narrowed as the
        student and b's read whole. With other rows coinciding in each side,
        both sides are narrowed in both roles.
        """
        rng = np.random.default_rng(60 + n)
        ea, eb = rng.standard_normal((2, n, 5))
        tuples = TupleSets.build(n, rng)
        if coincident != "none":
            coincide_first_leg(eb, tuples)
        if coincident == "both":
            coincide_last_leg(ea, tuples)
        assert tuples.capped == (n > 16)
        w = LossWeights()
        a, b = Tensor(ea, requires_grad=True), Tensor(eb, requires_grad=True)
        side_a, side_b = RelationSide(a), RelationSide(b)
        shared_ab = relation_distill_loss(side_a, side_b, w, tuples)
        backward(shared_ab.total)
        shared_ba = relation_distill_loss(side_b, side_a, w, tuples)
        backward(shared_ba.total)
        pair = side_a.valid & side_b.valid
        assert (pair != side_a.valid).any() == (coincident != "none")
        assert (pair != side_b.valid).any() == (coincident == "both")
        assert side_b.valid.all() == (coincident == "none")

        roles = ((ea, eb, shared_ab, a.grad), (eb, ea, shared_ba, b.grad))
        for student, peer, shared, grad in roles:
            fresh = Tensor(student, requires_grad=True)
            dd, ad, total = fresh_pair_relation(fresh, Tensor(peer), tuples, w.beta1)
            backward(total)
            assert np.array_equal(shared.distance.data, dd.data)
            assert np.array_equal(shared.angle.data, ad.data)
            assert np.array_equal(shared.total.data, total.data)
            assert np.array_equal(grad, fresh.grad)

    @pytest.mark.parametrize("n", [4, 17, 32])
    def test_valid_matches_per_triple_flags(self, n):
        """`valid`, read off the cell mask, is one flag per triple in triple order.

        A triple's flag says both its legs are long; the skipped count is
        the triples whose pair of flags is not both set.
        """
        rng = np.random.default_rng(63 + n)
        ea, eb = rng.standard_normal((2, n, 3))
        tuples = TupleSets.build(n, rng)
        coincide_first_leg(ea, tuples)
        coincide_last_leg(eb, tuples)
        u, v, w = decode_triples(tuples)

        def flags(e):
            return ((np.linalg.norm(e[u] - e[v], axis=1) >= COINCIDENCE_EPS)
                    & (np.linalg.norm(e[w] - e[v], axis=1) >= COINCIDENCE_EPS))

        side_a, side_b = (RelationSide(Tensor(e)).measure(tuples) for e in (ea, eb))
        flags_a, flags_b = flags(ea), flags(eb)
        assert not flags_a.all() and not flags_b.all() and (flags_a != flags_b).any()
        assert np.array_equal(side_a.valid, flags_a) and np.array_equal(side_b.valid, flags_b)
        rel = relation_distill_loss(side_a, side_b, LossWeights(), tuples)
        assert rel.triples_skipped == tuples.num_triples - np.count_nonzero(flags_a & flags_b)

    def test_peer_side_gets_no_gradient(self):
        rng = np.random.default_rng(61)
        a = Tensor(rng.uniform(-1.0, 1.0, (5, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1.0, 1.0, (5, 3)), requires_grad=True)
        backward(relation_distill_loss(a, b, LossWeights(), TupleSets.build(5)).total)
        assert a.grad is not None
        assert b.grad is None

    def test_remeasured_for_another_tuple_set(self):
        rng = np.random.default_rng(62)
        side = RelationSide(Tensor(rng.standard_normal((17, 3))))
        first = side.measure(TupleSets.build(17, np.random.default_rng(0))).cosines().data
        again = side.measure(TupleSets.build(17, np.random.default_rng(1))).cosines().data
        fresh = RelationSide(side.embeddings).measure(side.tuples).cosines()
        assert not np.array_equal(first, again)
        assert np.array_equal(again, fresh.data)


class TestMutualLoss:
    """total_loss with alpha = gamma = 0 is beta times the mutual term alone."""

    MUTUAL_ONLY = LossWeights(alpha=0.0, gamma=0.0)

    def _outputs(self, seed, n=4, m=3, d=5):
        rng = np.random.default_rng(seed)
        return ForwardOutput(
            embedding=Tensor(rng.uniform(-1.0, 1.0, (n, d)), requires_grad=True),
            logits=Tensor(rng.uniform(-1.0, 1.0, (n, m)), requires_grad=True),
        )

    def _mutual(self, a, b, tuples, weights=MUTUAL_ONLY):
        return total_loss(a, b, None, Tensor(np.eye(4, 3)), weights, tuples)

    def test_combines_relation_and_kl(self):
        a, b = self._outputs(34), self._outputs(35)
        w = self.MUTUAL_ONLY
        tl = self._mutual(a, b, TupleSets.build(4))
        rel = relation_distill_loss(
            a.embedding, Tensor(b.embedding.data.copy()), w, TupleSets.build(4)
        )
        assert tl.loss_kl_mutual == kl_softened(a.logits, b.logits, 1.0).item()
        expected = w.beta * (rel.total.item() + w.beta2 * tl.loss_kl_mutual)
        assert abs(tl.total.item() - expected) < 1e-12
        assert tl.loss_ce == 0.0 and tl.loss_sd == 0.0

    def test_zero_beta2_skips_kl(self):
        a, b = self._outputs(36), self._outputs(37)
        w = dataclasses.replace(self.MUTUAL_ONLY, beta2=0.0)
        tl = self._mutual(a, b, TupleSets.build(4), w)
        rel = relation_distill_loss(
            a.embedding, Tensor(b.embedding.data.copy()), w, TupleSets.build(4)
        )
        assert tl.loss_kl_mutual == 0.0
        assert tl.total.data == mul(rel.total, w.beta).data

    def test_relation_off_leaves_kl_only(self):
        a, b = self._outputs(38), self._outputs(39)
        w = self.MUTUAL_ONLY
        tl = self._mutual(a, b, None)
        assert tl.loss_dd == 0.0 and tl.loss_ad == 0.0
        kl = kl_softened(a.logits, b.logits, 1.0)
        assert tl.total.data == mul(mul(kl, w.beta2), w.beta).data

    def test_relation_runs_only_with_tuples(self):
        a, b = self._outputs(40), self._outputs(41)
        backward(self._mutual(a, b, None).total)
        assert a.embedding.grad is None
        tl = self._mutual(a, b, TupleSets.build(4))
        assert tl.loss_dd > 0.0
        backward(tl.total)
        assert a.embedding.grad is not None

    def test_peer_gets_no_gradient(self):
        a, b = self._outputs(42), self._outputs(43)
        backward(self._mutual(a, b, TupleSets.build(4)).total)
        assert a.embedding.grad is not None
        assert a.logits.grad is not None
        assert b.embedding.grad is None
        assert b.logits.grad is None


class TestTotalLoss:
    def _scenario(self, seed=44, n=5, m=3):
        rng = np.random.default_rng(seed)
        net = init_network(NetworkConfig(4, (6, 5), m, init_seed=seed))
        peer = init_network(NetworkConfig(4, (6, 5), m, init_seed=seed + 1))
        snap = init_network(NetworkConfig(4, (6, 5), m, init_seed=seed + 2)).snapshot()
        x = Tensor(rng.uniform(-1.0, 1.0, (n, 4)))
        labels = one_hot(rng.integers(0, m, n), m)
        return net, peer, snap, x, labels

    def test_weighted_composition(self):
        net, peer, snap, x, labels = self._scenario()
        w = LossWeights()
        tuples = TupleSets.build(5)
        out, pout, sout = net.forward(x), peer.forward(x), snap.forward(x)
        tl = total_loss(out, pout, sout.logits, labels, w, tuples)
        mutual = total_loss(
            out, pout, None, labels, dataclasses.replace(w, alpha=0.0, gamma=0.0), tuples
        )
        expected = (
            w.alpha * cross_entropy(out.logits, labels).item()
            + mutual.total.item()
            + w.gamma * kl_softened(out.logits, sout.logits, w.temperature).item()
        )
        assert abs(tl.total.item() - expected) < 1e-12

    def test_component_fields_are_raw_values(self):
        net, peer, snap, x, labels = self._scenario(45)
        w = LossWeights()
        tuples = TupleSets.build(5)
        out, pout, sout = net.forward(x), peer.forward(x), snap.forward(x)
        tl = total_loss(out, pout, sout.logits, labels, w, tuples)
        assert tl.loss_ce == cross_entropy(out.logits, labels).item()
        assert tl.loss_kl_mutual == kl_softened(out.logits, pout.logits, 1.0).item()
        rel = relation_distill_loss(out.embedding, Tensor(pout.embedding.data.copy()), w, tuples)
        assert tl.loss_dd == rel.distance.item()
        assert tl.loss_ad == rel.angle.item()
        assert tl.loss_sd == kl_softened(out.logits, sout.logits, w.temperature).item()

    def test_zero_weight_terms_reduce_bitwise(self):
        net, _, _, x, labels = self._scenario(46)
        out = net.forward(x)
        w = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)
        tl = total_loss(out, None, None, labels, w)
        ce = cross_entropy(net.forward(x).logits, labels)
        assert tl.total.data == ce.data
        net.zero_grads()
        backward(tl.total)
        grads_total = {k: p.grad.copy() for k, p in net.parameters.items()}
        net.zero_grads()
        backward(cross_entropy(net.forward(x).logits, labels))
        for name, p in net.parameters.items():
            np.testing.assert_array_equal(grads_total[name], p.grad)

    def test_relation_flag_passthrough(self):
        net, peer, snap, x, labels = self._scenario(47)
        w = LossWeights()
        out, pout, sout = net.forward(x), peer.forward(x), snap.forward(x)
        tl = total_loss(out, pout, sout.logits, labels, w, None)
        assert tl.loss_dd == 0.0 and tl.loss_ad == 0.0
        assert tl.triples_skipped == 0 and tl.pi_collapses == 0
        assert tl.loss_kl_mutual > 0.0

    def test_missing_inputs_rejected(self):
        net, peer, snap, x, labels = self._scenario(48)
        out = net.forward(x)
        with pytest.raises(ValueError, match="peer outputs"):
            total_loss(out, None, None, labels, LossWeights(gamma=0.0), TupleSets.build(5))
        with pytest.raises(ValueError, match="snapshot logits"):
            total_loss(out, peer.forward(x), None, labels, LossWeights(beta=0.0))
