"""Optimizer, schedule, metrics, and the two-stage training loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distilforge.autodiff import Tensor
from distilforge.data import synth_blobs, mean_std_normalize
from distilforge.losses import LossWeights
from distilforge.models import NetworkConfig, PeerNetwork, init_network
from distilforge.trainer import (
    CSV_HEADER,
    UPDATE_ORDERS,
    VARIANTS,
    MetricsRecord,
    OptimizerState,
    TrainConfig,
    TrainingDivergence,
    evaluate_top1,
    lr_at,
    metrics_to_csv,
    pretrain_stage1,
    sgd_step,
    train_pair,
    train_stage2,
    variant_weights,
)


def tiny_datasets(seed=0, per_class=8, test_per_class=4):
    train = synth_blobs(3, per_class, 2, 0.5, seed=seed)
    test = synth_blobs(3, test_per_class, 2, 0.5, seed=seed + 1)
    (train, test), _ = mean_std_normalize(train, [test])
    return train, test


def fresh_pair(seed=100):
    return [
        init_network(NetworkConfig(2, (8, 4), 3, init_seed=seed)),
        init_network(NetworkConfig(2, (8, 4), 3, init_seed=seed + 1)),
    ]


def small_config(**overrides):
    base = dict(
        stage1_epochs=1,
        stage2_epochs=2,
        batch_size=8,
        lr=0.05,
        lr_milestones=(),
        momentum=0.9,
        weight_decay=5e-4,
        seed=0,
        weights=LossWeights(),
        variant="A",
    )
    base.update(overrides)
    return TrainConfig(**base)


def identity_net():
    """2 -> 2 -> 2 network computing logits = relu(x)."""
    config = NetworkConfig(2, (2,), 2, init_seed=0)
    params = {
        "w0": Tensor(np.eye(2), requires_grad=True),
        "b0": Tensor(np.zeros(2), requires_grad=True),
        "w1": Tensor(np.eye(2), requires_grad=True),
        "b1": Tensor(np.zeros(2), requires_grad=True),
    }
    return PeerNetwork(config, params)


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.stage1_epochs == 20
        assert c.stage2_epochs == 50
        assert c.batch_size == 128
        assert c.lr == 0.1
        assert c.lr_milestones == (15, 30, 40)
        assert c.lr_factor == 0.2
        assert c.momentum == 0.9
        assert c.weight_decay == 5e-4
        assert c.variant == "A"
        assert c.update_order == "sequential"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(stage1_epochs=-1), "stage1_epochs"),
            (dict(stage2_epochs=-1), "stage2_epochs"),
            (dict(batch_size=0), "batch_size"),
            (dict(lr=0.0), "lr must be positive"),
            (dict(lr_factor=0.0), "lr_factor"),
            (dict(lr_factor=1.5), "lr_factor"),
            (dict(momentum=1.0), "momentum"),
            (dict(weight_decay=-1e-4), "weight_decay"),
            (dict(seed=-1), "seed"),
            (dict(lr_milestones=(10, 10)), "strictly increasing"),
            (dict(lr_milestones=(10, 60)), "below stage2_epochs"),
            (dict(variant="E"), "variant"),
            (dict(update_order="alternating"), "update_order"),
            (dict(lr_milestones=(-5,)), "lr_milestones must be >= 0"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**overrides)


class TestVariantWeights:
    def test_mapping(self):
        w = LossWeights()
        assert variant_weights(w, "A") == (w, True)
        wb, rel = variant_weights(w, "B")
        assert wb.gamma == 0.0 and wb.alpha == w.alpha and rel
        wc, rel = variant_weights(w, "C")
        assert wc.beta2 == 0.0 and wc.gamma == w.gamma and rel
        wd, rel = variant_weights(w, "D")
        assert wd == w and not rel

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            variant_weights(LossWeights(), "Z")


class TestSgdStep:
    def _param(self, value):
        p = Tensor(np.array([value]), requires_grad=True)
        return {"w": p}, OptimizerState({"w": np.zeros(1)})

    def test_momentum_accumulates(self):
        params, state = self._param(1.0)
        params["w"].grad = np.array([1.0])
        sgd_step(params, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(params["w"].data, [0.9])
        params["w"].grad = np.array([1.0])
        sgd_step(params, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        # velocity 0.9 * 1 + 1 = 1.9, so the step is 0.19.
        np.testing.assert_allclose(params["w"].data, [0.71])

    def test_weight_decay_pulls_toward_zero(self):
        params, state = self._param(1.0)
        params["w"].grad = np.array([0.0])
        sgd_step(params, state, lr=0.5, momentum=0.0, weight_decay=1.0)
        np.testing.assert_allclose(params["w"].data, [0.5])

    def test_missing_gradient_means_zero(self):
        params, state = self._param(2.0)
        params["w"].grad = None
        sgd_step(params, state, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data, [2.0])

    def test_non_finite_gradient_raises(self):
        params, state = self._param(1.0)
        params["w"].grad = np.array([float("inf")])
        with pytest.raises(TrainingDivergence, match="'w'"):
            sgd_step(params, state, lr=0.1, momentum=0.0, weight_decay=0.0)

    def test_state_matches_network(self):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=0))
        state = OptimizerState.for_network(net)
        assert set(state.velocities) == set(net.parameters)
        assert all(np.all(v == 0.0) for v in state.velocities.values())


class TestLrSchedule:
    def test_piecewise_constant_decay(self):
        config = TrainConfig(stage2_epochs=200, lr=0.1, lr_milestones=(60, 120, 160), lr_factor=0.2)
        assert lr_at(0, config) == 0.1
        assert lr_at(59, config) == 0.1
        assert lr_at(60, config) == 0.1 * 0.2
        assert lr_at(119, config) == 0.1 * 0.2
        assert lr_at(120, config) == 0.1 * 0.2**2
        assert lr_at(160, config) == 0.1 * 0.2**3
        assert lr_at(199, config) == 0.1 * 0.2**3

    def test_no_milestones(self):
        config = TrainConfig(lr=0.07, lr_milestones=())
        assert all(lr_at(e, config) == 0.07 for e in range(50))


class TestEvaluateTop1:
    def test_counts_correct_predictions(self):
        from distilforge.data import Dataset

        net = identity_net()
        features = np.array([[5.0, 1.0], [1.0, 5.0], [4.0, 2.0], [2.0, 4.0]])
        ds = Dataset(Tensor(features), np.array([0, 1, 1, 1]), 2)
        # Predictions are 0, 1, 0, 1: three of four match.
        assert evaluate_top1(net, ds) == 0.75

    def test_tie_goes_to_lowest_class(self):
        from distilforge.data import Dataset

        net = identity_net()
        ds0 = Dataset(Tensor(np.array([[2.0, 2.0]])), np.array([0]), 2)
        ds1 = Dataset(Tensor(np.array([[2.0, 2.0]])), np.array([1]), 2)
        assert evaluate_top1(net, ds0) == 1.0
        assert evaluate_top1(net, ds1) == 0.0


class TestMetricsCsv:
    def test_header(self):
        assert CSV_HEADER == (
            "epoch,stage,net,lr,loss_total,loss_ce,loss_kl_mutual,"
            "loss_dd,loss_ad,loss_sd,train_top1,test_top1,pi_collapses,triples_skipped"
        )

    def test_row_formatting(self):
        record = MetricsRecord(
            epoch=3, stage=2, net=1, lr=0.02, loss_total=0.123456789123,
            loss_ce=1.0, loss_kl_mutual=0.0, loss_dd=2e-10, loss_ad=0.25,
            loss_sd=1.0 / 3.0, train_top1=0.9875, test_top1=1.0,
            pi_collapses=0, triples_skipped=7,
        )
        assert record.csv_row() == (
            "3,2,1,0.02,0.123456789,1,0,2e-10,0.25,0.333333333,0.9875,1,0,7"
        )

    def test_csv_assembly(self):
        record = MetricsRecord(
            epoch=0, stage=1, net=2, lr=0.1, loss_total=0.5, loss_ce=0.5,
            loss_kl_mutual=0.0, loss_dd=0.0, loss_ad=0.0, loss_sd=0.0,
            train_top1=0.5, test_top1=0.5, pi_collapses=0, triples_skipped=0,
        )
        text = metrics_to_csv([record])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert text.endswith("\n")


class TestStage1:
    def test_record_layout(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage1_epochs=3)
        snapshots, records = pretrain_stage1(nets, train, test, config)
        assert len(records) == 6
        assert [r.net for r in records] == [1, 2, 1, 2, 1, 2]
        assert all(r.stage == 1 for r in records)
        assert all(
            r.loss_kl_mutual == r.loss_dd == r.loss_ad == r.loss_sd == 0.0 for r in records
        )
        assert all(r.lr == config.lr for r in records)

    def test_loss_decreases_on_easy_data(self):
        train, test = tiny_datasets(per_class=20)
        nets = fresh_pair()
        _, records = pretrain_stage1(nets, train, test, small_config(stage1_epochs=5))
        net1 = [r.loss_ce for r in records if r.net == 1]
        assert net1[-1] < net1[0]

    def test_snapshots_freeze_stage1_exit_state(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config()
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        for net, snap in zip(nets, snapshots):
            for name in net.parameters:
                np.testing.assert_array_equal(
                    snap.parameters[name].data, net.parameters[name].data
                )
        train_stage2(nets, snapshots, train, test, config)
        changed = any(
            not np.array_equal(nets[0].parameters[n].data, snapshots[0].parameters[n].data)
            for n in nets[0].parameters
        )
        assert changed

    def test_zero_epochs_yields_initial_snapshots(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        initial = {n: p.data.copy() for n, p in nets[0].parameters.items()}
        snapshots, records = pretrain_stage1(nets, train, test, small_config(stage1_epochs=0))
        assert records == []
        for name, data in initial.items():
            np.testing.assert_array_equal(snapshots[0].parameters[name].data, data)

    def test_identical_peers_stay_identical(self):
        # Both peers see the same batches, so equal seeds mean equal updates.
        train, test = tiny_datasets()
        nets = [
            init_network(NetworkConfig(2, (8, 4), 3, init_seed=5)),
            init_network(NetworkConfig(2, (8, 4), 3, init_seed=5)),
        ]
        pretrain_stage1(nets, train, test, small_config(stage1_epochs=2))
        for name in nets[0].parameters:
            np.testing.assert_array_equal(
                nets[0].parameters[name].data, nets[1].parameters[name].data
            )

    def test_requires_two_networks(self):
        train, test = tiny_datasets()
        with pytest.raises(ValueError, match="two peer networks"):
            pretrain_stage1([fresh_pair()[0]], train, test, small_config())


class TestStage2:
    def test_record_layout_and_lr_column(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage2_epochs=4, lr_milestones=(2,), lr_factor=0.5)
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, snapshots, train, test, config)
        assert len(records) == 8
        assert all(r.stage == 2 for r in records)
        for r in records:
            assert r.lr == lr_at(r.epoch, config)
        assert records[4].lr == config.lr * 0.5

    def test_all_loss_components_active_under_full_variant(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage2_epochs=1)
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, snapshots, train, test, config)
        for r in records:
            assert r.loss_ce > 0.0
            assert r.loss_kl_mutual > 0.0
            assert r.loss_dd > 0.0
            assert r.loss_ad > 0.0
            assert r.loss_sd > 0.0

    def test_variant_b_runs_without_snapshots(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(variant="B")
        records = train_stage2(nets, None, train, test, config)
        assert all(r.loss_sd == 0.0 for r in records)

    def test_full_variant_requires_snapshots(self):
        train, test = tiny_datasets()
        with pytest.raises(ValueError, match="snapshots"):
            train_stage2(fresh_pair(), None, train, test, small_config())

    def test_variant_c_zeroes_mutual_kl_only(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(variant="C", stage2_epochs=1)
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, snapshots, train, test, config)
        for r in records:
            assert r.loss_kl_mutual == 0.0
            assert r.loss_dd > 0.0

    def test_variant_d_zeroes_relation_terms(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(variant="D", stage2_epochs=1)
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, snapshots, train, test, config)
        for r in records:
            assert r.loss_dd == 0.0 and r.loss_ad == 0.0
            assert r.loss_kl_mutual > 0.0

    def test_update_orders_diverge(self):
        train, test = tiny_datasets()

        def run(order):
            nets = fresh_pair()
            config = small_config(update_order=order, stage2_epochs=2)
            snapshots, _ = pretrain_stage1(nets, train, test, config)
            train_stage2(nets, snapshots, train, test, config)
            return nets

        seq = run("sequential")
        sim = run("simultaneous")
        assert not np.array_equal(
            seq[1].parameters["w0"].data, sim[1].parameters["w0"].data
        )

    def test_divergence_raises_with_stage_context(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(lr=1e25, momentum=0.0, stage1_epochs=0, stage2_epochs=3)
        snapshots, _ = pretrain_stage1(nets, train, test, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergence, match="stage 2 epoch"):
                train_stage2(nets, snapshots, train, test, config)


class TestTrainPair:
    def test_combined_record_stream(self):
        train, test = tiny_datasets()
        config = small_config(stage1_epochs=2, stage2_epochs=3)
        result = train_pair(fresh_pair(), train, test, config)
        assert len(result.records) == 10
        assert [r.stage for r in result.records] == [1] * 4 + [2] * 6
        assert len(result.nets) == 2
        assert len(result.snapshots) == 2

    def test_deterministic_replay(self):
        train, test = tiny_datasets()
        config = small_config()
        a = train_pair(fresh_pair(), train, test, config)
        b = train_pair(fresh_pair(), train, test, config)
        assert metrics_to_csv(a.records) == metrics_to_csv(b.records)
        for na, nb in zip(a.nets, b.nets):
            for name in na.parameters:
                np.testing.assert_array_equal(
                    na.parameters[name].data, nb.parameters[name].data
                )

    def test_seed_changes_trajectory(self):
        train, test = tiny_datasets()
        a = train_pair(fresh_pair(), train, test, small_config(seed=0))
        b = train_pair(fresh_pair(), train, test, small_config(seed=1))
        assert metrics_to_csv(a.records) != metrics_to_csv(b.records)

    def test_learns_easy_blobs(self):
        train, test = tiny_datasets(per_class=30, test_per_class=15)
        config = small_config(stage1_epochs=3, stage2_epochs=5)
        result = train_pair(fresh_pair(), train, test, config)
        final = [r for r in result.records[-2:]]
        assert all(r.test_top1 >= 0.9 for r in final)


def _finite_losses(records):
    losses = [
        [r.loss_total, r.loss_ce, r.loss_kl_mutual, r.loss_dd, r.loss_ad, r.loss_sd]
        for r in records
    ]
    return bool(np.isfinite(losses).all())


class TestBatchSizes:
    @pytest.mark.parametrize("order", UPDATE_ORDERS)
    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    def test_single_sample_final_batch(self, variant, order):
        # 21 samples in batches of 10: the last batch holds one sample, which
        # adds nothing to the relation term but must still train.
        train, test = tiny_datasets(per_class=7)
        config = small_config(batch_size=10, variant=variant, update_order=order)
        result = train_pair(fresh_pair(), train, test, config)
        assert [r.stage for r in result.records] == [1, 1, 2, 2, 2, 2]
        assert _finite_losses(result.records)

    @settings(max_examples=30, deadline=None)
    @given(
        per_class=st.integers(1, 8),
        batch_size=st.integers(1, 20),
        variant=st.sampled_from(VARIANTS),
        order=st.sampled_from(UPDATE_ORDERS),
    )
    def test_any_dataset_and_batch_size_trains(self, per_class, batch_size, variant, order):
        train, test = tiny_datasets(per_class=per_class, test_per_class=2)
        config = small_config(
            stage1_epochs=1, stage2_epochs=1, batch_size=batch_size, variant=variant,
            update_order=order,
        )
        result = train_pair(fresh_pair(), train, test, config)
        assert [r.stage for r in result.records] == [1, 1, 2, 2]
        assert _finite_losses(result.records)
