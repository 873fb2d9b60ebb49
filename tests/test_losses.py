"""Loss-term tests built around independent scalar oracles and hand values."""

import itertools
import math

import numpy as np
import pytest

from distilforge.autodiff import Tensor, backward, mul
from distilforge.losses import (
    LossWeights,
    TupleSets,
    angle_potentials,
    cross_entropy,
    distance_potentials,
    huber,
    kl_mutual,
    mutual_distill_loss,
    relation_distill_loss,
    self_distill_kl,
    total_loss,
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
        got = set(zip(t.pair_u.tolist(), t.pair_v.tolist()))
        assert got == {(u, v) for u in range(4) for v in range(4) if u != v}

    def test_triples_are_distinct_indices(self):
        t = TupleSets.build(5)
        trip = set(zip(t.triple_u.tolist(), t.triple_v.tolist(), t.triple_w.tolist()))
        assert len(trip) == 60
        for u, v, w in trip:
            assert len({u, v, w}) == 3

    def test_large_batch_subsamples(self):
        t = TupleSets.build(17, rng=np.random.default_rng(0))
        assert t.capped
        assert t.num_pairs == 17 * 16
        assert t.num_triples == 3360
        stacked = np.stack([t.triple_u, t.triple_v, t.triple_w], axis=1)
        assert stacked.min() >= 0 and stacked.max() < 17
        assert (stacked[:, 0] != stacked[:, 1]).all()
        assert (stacked[:, 0] != stacked[:, 2]).all()
        assert (stacked[:, 1] != stacked[:, 2]).all()

    def test_subsample_is_seed_deterministic(self):
        a = TupleSets.build(20, rng=np.random.default_rng(5))
        b = TupleSets.build(20, rng=np.random.default_rng(5))
        c = TupleSets.build(20, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a.triple_u, b.triple_u)
        np.testing.assert_array_equal(a.triple_w, b.triple_w)
        assert not np.array_equal(a.triple_u, c.triple_u)

    def test_large_batch_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            TupleSets.build(17)


class TestHuber:
    def test_exact_values(self):
        assert huber(2.0, 0.0) == 1.5
        assert huber(0.5, 0.0) == 0.125
        assert huber(7.0, 7.0) == 0.0
        assert huber(1.0, 0.0) == 0.5

    def test_symmetry(self):
        assert huber(0.3, 1.9) == huber(1.9, 0.3)


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
        assert abs(kl_mutual(Tensor(z), Tensor(z.copy())).item()) < 1e-12

    def test_hand_case(self):
        student = Tensor(np.zeros((1, 2)))
        teacher = Tensor(np.array([[0.0, math.log(3.0)]]))
        # KL([1/4, 3/4] || [1/2, 1/2]) = 0.75 ln 3 - ln 2.
        assert abs(kl_mutual(student, teacher).item() - 0.130812035941137) < 1e-15

    def test_positive_and_asymmetric(self):
        rng = np.random.default_rng(22)
        a = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
        b = Tensor(rng.uniform(-2.0, 2.0, (3, 4)))
        ab, ba = kl_mutual(a, b).item(), kl_mutual(b, a).item()
        assert ab > 0 and ba > 0
        assert abs(ab - ba) > 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = rng.uniform(-3.0, 3.0, (5, 4))
            t = rng.uniform(-3.0, 3.0, (5, 4))
            got = kl_mutual(Tensor(s), Tensor(t)).item()
            assert abs(got - oracle_kl(s, t, 1.0)) < 1e-12

    def test_teacher_receives_no_gradient(self):
        rng = np.random.default_rng(24)
        s = Tensor(rng.uniform(-1.0, 1.0, (3, 4)), requires_grad=True)
        t = Tensor(rng.uniform(-1.0, 1.0, (3, 4)), requires_grad=True)
        backward(kl_mutual(s, t))
        assert s.grad is not None
        assert t.grad is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_mutual(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestSelfDistillKL:
    def test_temperature_scaling_hand_case(self):
        # At temperature t the logits are divided by t first, so a teacher
        # with logits t*ln3 lands on probabilities [1/4, 3/4] again.
        t = 3.0
        student = Tensor(np.zeros((1, 2)))
        teacher = Tensor(np.array([[0.0, t * math.log(3.0)]]))
        got = self_distill_kl(student, teacher, t).item()
        assert abs(got - 0.130812035941137) < 1e-14

    def test_matches_oracle(self):
        rng = np.random.default_rng(25)
        for t in (1.0, 2.0, 3.0, 5.0):
            s = rng.uniform(-3.0, 3.0, (4, 5))
            z = rng.uniform(-3.0, 3.0, (4, 5))
            got = self_distill_kl(Tensor(s), Tensor(z), t).item()
            assert abs(got - oracle_kl(s, z, t)) < 1e-12

    def test_higher_temperature_softens_penalty(self):
        s = Tensor(np.array([[0.0, 1.0, -1.0]]))
        z = Tensor(np.array([[2.0, -1.0, 0.5]]))
        assert self_distill_kl(s, z, 5.0).item() < self_distill_kl(s, z, 1.0).item()

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            self_distill_kl(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), 0.0)


class TestDistancePotentials:
    def test_collinear_hand_values(self):
        tuples = TupleSets.build(3)
        pots, degenerate = distance_potentials(Tensor(COLLINEAR), tuples)
        assert not degenerate
        # Distances (1, 2, 1, 1, 2, 1) have mean 4/3.
        expected = {
            (0, 1): 0.75, (0, 2): 1.5, (1, 0): 0.75,
            (1, 2): 0.75, (2, 0): 1.5, (2, 1): 0.75,
        }
        for u, v, p in zip(tuples.pair_u, tuples.pair_v, pots.data):
            assert abs(p - expected[(int(u), int(v))]) < 1e-15

    def test_mean_is_one(self):
        rng = np.random.default_rng(26)
        for n in (2, 5, 9):
            e = Tensor(rng.uniform(-3.0, 3.0, (n, 4)))
            pots, _ = distance_potentials(e, TupleSets.build(n))
            assert abs(pots.data.mean() - 1.0) < 1e-12

    def test_collapsed_batch_flagged(self):
        e = Tensor(np.ones((4, 3)))
        pots, degenerate = distance_potentials(e, TupleSets.build(4))
        assert degenerate
        np.testing.assert_array_equal(pots.data, np.zeros(12))

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError, match="built for batch"):
            distance_potentials(Tensor(np.zeros((4, 2))), TupleSets.build(3))


class TestAnglePotentials:
    def test_right_angle_hand_values(self):
        tuples = TupleSets.build(3)
        vals, valid = angle_potentials(Tensor(BENT), tuples)
        assert valid.all()
        # Vertex 1 sees a right angle; vertices 0 and 2 see 45 degrees.
        expected = {1: 0.0, 0: math.cos(math.pi / 4), 2: math.cos(math.pi / 4)}
        for v, got in zip(tuples.triple_v, vals.data):
            assert abs(got - expected[int(v)]) < 1e-12

    def test_range_bound(self):
        rng = np.random.default_rng(27)
        e = Tensor(rng.uniform(-5.0, 5.0, (7, 3)))
        vals, valid = angle_potentials(e, TupleSets.build(7))
        assert valid.all()
        assert vals.data.min() >= -1.0 - 1e-12
        assert vals.data.max() <= 1.0 + 1e-12

    def test_coincident_rows_masked_out(self):
        e = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 3.0]])
        vals, valid = angle_potentials(Tensor(e), TupleSets.build(4))
        assert not valid.all()
        tuples = TupleSets.build(4)
        for u, v, ok in zip(tuples.triple_u, tuples.triple_v, valid):
            if {int(u), int(v)} == {0, 1}:
                assert not ok

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            angle_potentials(Tensor(np.zeros((2, 2))), TupleSets.build(2))

    @pytest.mark.parametrize("n", [3, 16, 17, 32])
    @pytest.mark.parametrize("coincident", [False, True], ids=["distinct", "coincident"])
    def test_equal_to_per_triple_formula(self, n, coincident):
        rng = np.random.default_rng(n)
        e = rng.standard_normal((n, 5))
        if coincident:
            e[n - 1] = e[0]
        tuples = TupleSets.build(n, rng)
        assert tuples.capped == (n > 16)
        vals, valid = angle_potentials(Tensor(e), tuples)
        assert valid.all() != coincident
        tu, tv, tw = tuples.triple_u[valid], tuples.triple_v[valid], tuples.triple_w[valid]
        head, tail = e[tu] - e[tv], e[tw] - e[tv]
        norm_head = np.sqrt((head * head).sum(axis=1))
        norm_tail = np.sqrt((tail * tail).sum(axis=1))
        assert np.array_equal(vals.data, (head * tail).sum(axis=1) / norm_head / norm_tail)


class TestRelationLoss:
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
        rel = relation_distill_loss(ea, eb.detach(), LossWeights(), TupleSets.build(4))
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

    def test_gradient_matches_finite_differences_on_capped_batch(self):
        rng = np.random.default_rng(35)
        ea = Tensor(rng.uniform(-1.0, 1.0, (17, 3)), requires_grad=True)
        eb = Tensor(rng.uniform(-1.0, 1.0, (17, 3)))
        tuples = TupleSets.build(17, rng)
        assert tuples.capped
        err = max_param_grad_error(
            lambda: relation_distill_loss(ea, eb, LossWeights(), tuples).total, [ea]
        )
        assert err < 1e-4

    def test_collapsed_embeddings_counted(self):
        ea = np.ones((3, 2))
        eb = np.ones((3, 2)) * 5.0
        rel = relation_distill_loss(Tensor(ea), Tensor(eb), LossWeights(), TupleSets.build(3))
        assert rel.pi_collapses == 2
        assert rel.total.item() == 0.0


class TestMutualLoss:
    def _outputs(self, seed, n=4, m=3, d=5):
        rng = np.random.default_rng(seed)
        return ForwardOutput(
            embedding=Tensor(rng.uniform(-1.0, 1.0, (n, d)), requires_grad=True),
            logits=Tensor(rng.uniform(-1.0, 1.0, (n, m)), requires_grad=True),
        )

    def test_combines_relation_and_kl(self):
        a, b = self._outputs(34), self._outputs(35)
        w = LossWeights()
        md = mutual_distill_loss(a, b, w, TupleSets.build(4))
        expected = md.relation.total.item() + w.beta2 * md.kl.item()
        assert abs(md.total.item() - expected) < 1e-12
        assert md.kl.item() == kl_mutual(a.logits, b.logits).item()

    def test_zero_beta2_skips_kl(self):
        a, b = self._outputs(36), self._outputs(37)
        md = mutual_distill_loss(a, b, LossWeights(beta2=0.0), TupleSets.build(4))
        assert md.kl.item() == 0.0
        assert md.total.item() == md.relation.total.item()

    def test_relation_off_leaves_kl_only(self):
        a, b = self._outputs(38), self._outputs(39)
        w = LossWeights()
        md = mutual_distill_loss(a, b, w, None)
        assert md.relation.total.item() == 0.0
        assert md.total.data == mul(kl_mutual(a.logits, b.logits), w.beta2).data

    def test_relation_runs_only_with_tuples(self):
        a, b = self._outputs(40), self._outputs(41)
        backward(mutual_distill_loss(a, b, LossWeights(), None).total)
        assert a.embedding.grad is None
        md = mutual_distill_loss(a, b, LossWeights(), TupleSets.build(4))
        assert md.relation.total.item() > 0.0
        backward(md.total)
        assert a.embedding.grad is not None

    def test_peer_gets_no_gradient(self):
        a, b = self._outputs(42), self._outputs(43)
        md = mutual_distill_loss(a, b, LossWeights(), TupleSets.build(4))
        backward(md.total)
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
        md = mutual_distill_loss(out, pout, w, tuples)
        expected = (
            w.alpha * cross_entropy(out.logits, labels).item()
            + w.beta * md.total.item()
            + w.gamma * self_distill_kl(out.logits, sout.logits, w.temperature).item()
        )
        assert abs(tl.total.item() - expected) < 1e-12

    def test_component_fields_are_raw_values(self):
        net, peer, snap, x, labels = self._scenario(45)
        w = LossWeights()
        tuples = TupleSets.build(5)
        out, pout, sout = net.forward(x), peer.forward(x), snap.forward(x)
        tl = total_loss(out, pout, sout.logits, labels, w, tuples)
        assert tl.ce == cross_entropy(out.logits, labels).item()
        assert tl.kl_mutual == kl_mutual(out.logits, pout.logits).item()
        rel = relation_distill_loss(out.embedding, pout.embedding.detach(), w, tuples)
        assert tl.distance == rel.distance.item()
        assert tl.angle == rel.angle.item()
        assert tl.self_distill == self_distill_kl(out.logits, sout.logits, w.temperature).item()

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
        assert tl.distance == 0.0 and tl.angle == 0.0
        assert tl.triples_skipped == 0 and tl.pi_collapses == 0
        assert tl.kl_mutual > 0.0

    def test_missing_inputs_rejected(self):
        net, peer, snap, x, labels = self._scenario(48)
        out = net.forward(x)
        with pytest.raises(ValueError, match="peer outputs"):
            total_loss(out, None, None, labels, LossWeights(gamma=0.0), TupleSets.build(5))
        with pytest.raises(ValueError, match="snapshot logits"):
            total_loss(out, peer.forward(x), None, labels, LossWeights(beta=0.0))
