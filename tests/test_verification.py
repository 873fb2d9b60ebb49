"""The check suite itself: oracles on hand cases, checks, and their teeth."""

import math
import re

import numpy as np
import pytest

from distilforge import autodiff, losses
from distilforge import verification
from distilforge.autodiff import Tensor, mul, reduce_sum
from distilforge.verification import (
    CHECKS,
    VerificationFailure,
    grad_scenario,
    loss_builders,
    grad_check,
    max_param_grad_error,
    oracle_angle_loss,
    oracle_cross_entropy,
    oracle_distance_loss,
    oracle_huber,
    oracle_kl,
    oracle_relation_loss,
    run_checks,
)


class TestOracles:
    """The scalar oracles must themselves be right on hand-computable cases."""

    def test_cross_entropy_uniform(self):
        logits = np.zeros((3, 5))
        one_hot = np.eye(5)[:3]
        assert abs(oracle_cross_entropy(logits, one_hot) - math.log(5.0)) < 1e-12

    def test_huber_hand_values(self):
        assert oracle_huber(2.0, 0.0) == 1.5
        assert oracle_huber(0.0, 0.5) == 0.125
        assert oracle_huber(1.0, 0.0) == 0.5
        assert oracle_huber(3.0, 3.0) == 0.0

    def test_cross_entropy_two_row_case(self):
        logits = np.array([[0.0, math.log(3.0)], [math.log(2.0), 0.0]])
        one_hot = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(oracle_cross_entropy(logits, one_hot) - math.log(2.0) / 2.0) < 1e-14

    def test_kl_identical_is_zero(self):
        z = np.random.default_rng(0).uniform(-2.0, 2.0, (4, 3))
        assert abs(oracle_kl(z, z, 1.0)) < 1e-14
        assert abs(oracle_kl(z, z, 3.0)) < 1e-14

    def test_kl_hand_case(self):
        student = np.zeros((1, 2))
        teacher = np.array([[0.0, math.log(3.0)]])
        expected = 0.75 * math.log(3.0) - math.log(2.0)
        assert abs(oracle_kl(student, teacher, 1.0) - expected) < 1e-14

    def test_distance_loss_identical_embeddings(self):
        e = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 3))
        assert oracle_distance_loss(e, e.copy()) == 0.0

    def test_distance_loss_hand_case(self):
        # Potentials (0.75, 1.5, ...) vs identical-1 potentials of an
        # equilateral layout: gaps 0.25 (x4) and 0.5 (x2), all inside the
        # quadratic zone: (4 * 0.03125 + 2 * 0.125) / 6 = 0.0625.
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        equilateral = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert abs(oracle_distance_loss(collinear, equilateral) - 0.0625) < 1e-12

    def test_angle_loss_hand_case(self):
        # Collinear cosines are (+/-)1; the bent layout gives 0 at the corner
        # and cos 45 degrees elsewhere. Gaps: |-1 - 0| = 1 (x2, huber 0.5)
        # and |1 - cos45| (x4, quadratic zone).
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        bent = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        gap = 1.0 - math.cos(math.pi / 4.0)
        expected = (2 * 0.5 + 4 * 0.5 * gap * gap) / 6.0
        assert abs(oracle_angle_loss(collinear, bent) - expected) < 1e-12

    def test_angle_loss_skips_coincident_legs(self):
        a = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 2))
        value = oracle_angle_loss(a, b)
        assert np.isfinite(value)

    def test_relation_combines_terms(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (4, 3))
        b = rng.uniform(-1.0, 1.0, (4, 3))
        expected = oracle_distance_loss(a, b) + 2.0 * oracle_angle_loss(a, b)
        assert abs(oracle_relation_loss(a, b, 2.0) - expected) < 1e-14


class TestMaxParamGradError:
    def test_accepts_correct_gradients(self):
        w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        err = max_param_grad_error(lambda: reduce_sum(mul(w, w)), [w])
        assert err < 1e-8

    def test_flags_wrong_gradients(self):
        w = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        # The detached factor hides half of the true derivative of w^2.
        err = max_param_grad_error(lambda: reduce_sum(mul(Tensor(w.data.copy()), w)), [w])
        assert err > 0.1

    def test_restores_parameter_values(self):
        w = Tensor(np.array([0.3, -0.7]), requires_grad=True)
        before = w.data.copy()
        max_param_grad_error(lambda: reduce_sum(mul(w, w)), [w])
        np.testing.assert_array_equal(w.data, before)


class TestGradScenario:
    def test_builders_cover_every_loss_term(self):
        scn = grad_scenario()
        names = set(loss_builders(scn))
        assert names == {
            "cross_entropy",
            "mutual_kl",
            "self_distill_kl",
            "distance_loss",
            "angle_loss",
            "relation_loss",
            "mutual_loss",
            "total_objective",
        }

    def test_builders_are_repeatable(self):
        scn = grad_scenario()
        for name, build in loss_builders(scn).items():
            assert build().item() == build().item(), name


# op_cases() split by op family (case-name pattern), so a failure names its family too.
OP_FAMILIES = {
    "arithmetic_gradients": r"(add|sub|mul|div|div_size_one)_[ab]|(mul|div)_number",
    "matmul_reduce_gradients": r"matmul_[ab]|reduce_\w+",
    "softmax_properties": r"log_softmax_t\d",
    "pairwise_l2_properties": r"pairwise_l2",
    "misc_op_gradients": (
        r"add_bias_[ab]|relu|sqrt|huber_penalty|reshape|gather|legs|triple_cosines_\w+"
    ),
}


def _op_family_check(family):
    """op_gradients on one family's op_cases(); the *_properties families add op_values."""

    def check():
        cases = [c for c in verification.op_cases() if re.fullmatch(OP_FAMILIES[family], c[0])]
        assert cases, family
        for name, op, x in cases:
            err = verification.op_gradient_error(op, x)
            assert err < verification.GRAD_TOL, f"op '{name}' gradient error {err:.3e}"
        if family.endswith("_properties"):
            verification.check_op_values()

    return check


OP_FAMILY_CHECKS = [(family, _op_family_check(family)) for family in OP_FAMILIES]


class TestChecks:
    @pytest.mark.parametrize(
        "name, fn", CHECKS + OP_FAMILY_CHECKS, ids=[name for name, _ in CHECKS + OP_FAMILY_CHECKS]
    )
    def test_check_passes(self, name, fn):
        fn()

    def test_op_families_partition_op_cases(self):
        for name, _, _ in verification.op_cases():
            families = [f for f, pattern in OP_FAMILIES.items() if re.fullmatch(pattern, name)]
            assert len(families) == 1, (name, families)

    def test_run_checks_reports_all(self):
        results = run_checks()
        assert [r.name for r in results] == [name for name, _ in CHECKS]
        assert all(r.passed for r in results)

    def test_huber_check_detects_mutation(self, monkeypatch):
        # Break the implementation and make sure the check notices;
        # otherwise the suite proves nothing.
        def absolute(x):
            xd = x.data
            return autodiff._record(np.abs(xd), "huber_penalty", (x,), lambda g: (g * np.sign(xd),))

        monkeypatch.setattr(verification, "huber_penalty", absolute)
        with pytest.raises(VerificationFailure):
            verification.check_huber_values()

    def test_huber_check_detects_backward_jump(self, monkeypatch):
        # Right values, but a backward that steps from slope 1 to 2 past |x| = 1.
        def jumping(x):
            xd = x.data
            slope = np.where(np.abs(xd) <= 1.0, xd, 2.0 * np.sign(xd))
            return autodiff._record(
                autodiff.huber_penalty(x).data, "huber_penalty", (x,), lambda g: (g * slope,)
            )

        monkeypatch.setattr(verification, "huber_penalty", jumping)
        with pytest.raises(VerificationFailure, match="backward jumps"):
            verification.check_huber_values()

    def test_op_gradient_check_detects_transposed_backward(self, monkeypatch):
        # x @ x.T whose backward drops the transpose of its upstream gradient:
        # right under any symmetric one, such as the all-ones of a plain sum.
        def gram(x):
            xd = x.data
            return autodiff._record(xd @ xd.T, "gram", (x,), lambda g: ((g + g) @ xd,))

        x = Tensor(np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3)))
        assert grad_check(lambda t: reduce_sum(gram(t)), x) < 1e-6
        monkeypatch.setattr(verification, "op_cases", lambda: [("gram", gram, x)])
        with pytest.raises(VerificationFailure, match="op 'gram' gradient error"):
            verification.check_op_gradients()

    def test_op_cases_call_every_engine_op(self, monkeypatch):
        exempt = {"Tensor", "Tape", "backward", "softmax_rows", "AutodiffError", "DIV_GUARD"}
        ops = set(autodiff.__all__) - exempt
        # `triple_cosines` is reached through `RelationSide.cosines`; every
        # other op, `legs` too, is called from verification itself.
        home = {name: verification if name in vars(verification) else losses for name in ops}
        assert home["triple_cosines"] is losses and home["legs"] is verification
        assert all(name in vars(module) for name, module in home.items()), "an op is not imported"
        called = set()

        def spy(name, op):
            def wrapped(*args, **kwargs):
                called.add(name)
                return op(*args, **kwargs)

            return wrapped

        for name, module in home.items():
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for _, op, x in verification.op_cases():
            op(x)
        assert sorted(ops - called) == []

    def test_lr_check_detects_mutation(self, monkeypatch):
        monkeypatch.setattr(verification, "lr_at", lambda epoch, config: config.lr)
        with pytest.raises(VerificationFailure):
            verification.check_lr_schedule()

    def test_run_checks_survives_failures(self, monkeypatch):
        def boom():
            raise RuntimeError("synthetic explosion")

        monkeypatch.setattr(verification, "CHECKS", [("boom", boom), ("ok", lambda: None)])
        results = run_checks()
        assert not results[0].passed
        assert "synthetic explosion" in results[0].detail
        assert results[1].passed
