"""Optimizer, schedule, metrics, and the two-stage training loop."""

import logging
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distilforge import trainer
from distilforge.autodiff import Tensor
from distilforge.data import Dataset, synth_blobs, mean_std_normalize
from distilforge.losses import LossWeights
from distilforge.models import NetworkConfig, PeerNetwork, init_network
from distilforge.trainer import (
    CSV_HEADER,
    UPDATE_ORDERS,
    VARIANTS,
    MetricsRecord,
    TrainConfig,
    TrainingDivergence,
    evaluate_top1,
    lr_at,
    metrics_to_csv,
    pretrain_stage1,
    sgd_step,
    train_stage2,
    variant_weights,
)


def tiny_datasets(seed=0, per_class=8, test_per_class=4):
    train = synth_blobs(3, per_class, 2, 0.5, seed=seed)
    test = synth_blobs(3, test_per_class, 2, 0.5, seed=seed + 1)
    train, test = mean_std_normalize(train, [test])
    return train, test


def fresh_pair(seed=100):
    return [
        init_network(NetworkConfig(2, (8, 4), 3, init_seed=seed)),
        init_network(NetworkConfig(2, (8, 4), 3, init_seed=seed + 1)),
    ]


def train_both_stages(nets, train, test, config):
    """Stage 1, then stage 2 on its tables, as a run trains a pair: (snapshots, records)."""
    snapshots, tables, records = pretrain_stage1(nets, train, test, config)
    return snapshots, records + train_stage2(nets, tables, train, test, config)


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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(stage1_epochs=1.5), "stage1_epochs must be an integer, got 1.5"),
            (dict(stage2_epochs=None), "stage2_epochs must be an integer, got None"),
            (dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
            (dict(batch_size=True), "batch_size must be an integer, got True"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(lr_milestones=(2.7,)), "lr_milestones entry must be an integer, got 2.7"),
            (dict(lr=True), "lr must be a number, got True"),
            (dict(lr="0.1"), "lr must be a number, got '0.1'"),
            (dict(momentum=None), "momentum must be a number, got None"),
            (dict(weight_decay=10**400), "weight_decay must be a number, got 1000"),
        ],
        ids=["stage1_epochs", "stage2_epochs", "batch_size", "batch_size_bool", "seed",
             "lr_milestones", "lr_bool", "lr_str", "momentum", "weight_decay_huge"],
    )
    def test_rejects_mistyped_fields(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TrainConfig(**overrides)

    def test_numpy_scalars_become_python_numbers(self):
        c = TrainConfig(batch_size=np.int64(8), lr=np.float64(0.5), lr_milestones=[np.int32(3)])
        assert type(c.batch_size) is int and c.batch_size == 8
        assert type(c.lr) is float and c.lr == 0.5
        assert c.lr_milestones == (3,) and type(c.lr_milestones[0]) is int


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
        return {"w": p}, {"w": np.zeros(1)}

    def test_momentum_accumulates(self):
        params, velocities = self._param(1.0)
        params["w"].grad = np.array([1.0])
        sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(params["w"].data, [0.9])
        params["w"].grad = np.array([1.0])
        sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.0)
        # velocity 0.9 * 1 + 1 = 1.9, so the step is 0.19.
        np.testing.assert_allclose(params["w"].data, [0.71])

    def test_weight_decay_pulls_toward_zero(self):
        params, velocities = self._param(1.0)
        params["w"].grad = np.array([0.0])
        sgd_step(params, velocities, lr=0.5, momentum=0.0, weight_decay=1.0)
        np.testing.assert_allclose(params["w"].data, [0.5])

    def test_missing_gradient_means_zero(self):
        params, velocities = self._param(2.0)
        params["w"].grad = None
        sgd_step(params, velocities, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data, [2.0])

    def test_non_finite_gradient_raises(self):
        params, velocities = self._param(1.0)
        params["w"].grad = np.array([float("inf")])
        with pytest.raises(TrainingDivergence, match="'w'"):
            sgd_step(params, velocities, lr=0.1, momentum=0.0, weight_decay=0.0)

    def test_updates_in_place_with_the_out_of_place_bits(self):
        rng = np.random.default_rng(5)
        shapes = {"w0": (6, 4), "b0": (4,)}
        lr, momentum, wd = 0.1, 0.9, 5e-4
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True) for n, s in shapes.items()}
        velocities = {n: np.zeros(s) for n, s in shapes.items()}
        ref_w = {n: p.data.copy() for n, p in params.items()}
        ref_v = {n: np.zeros(s) for n, s in shapes.items()}
        for step in range(3):
            for n, p in params.items():
                p.grad = None if (n, step) == ("b0", 1) else rng.standard_normal(shapes[n])
            grads = {n: p.grad for n, p in params.items()}
            sgd_step(params, velocities, lr, momentum, wd)
            if step == 0:  # The first step re-homes the weights; later ones update in place.
                arrays = {n: p.data for n, p in params.items()}
            for n, p in params.items():
                g = np.zeros(shapes[n]) if grads[n] is None else grads[n]
                g = g + wd * ref_w[n]
                ref_v[n] = momentum * ref_v[n] + g
                ref_w[n] = ref_w[n] - lr * ref_v[n]
                assert p.data is arrays[n]
                assert np.array_equal(p.data, ref_w[n]), (n, step)
                assert np.array_equal(velocities[n], ref_v[n]), (n, step)

    def test_non_finite_gradient_leaves_its_parameter_and_velocity(self):
        params = {
            "w0": Tensor(np.array([1.0, -2.0]), requires_grad=True),
            "b0": Tensor(np.array([3.0]), requires_grad=True),
        }
        velocities = {"w0": np.array([0.5, 0.5]), "b0": np.array([0.25])}
        params["w0"].grad = np.array([1.0, 1.0])
        params["b0"].grad = np.array([float("inf")])
        with pytest.raises(TrainingDivergence, match="'b0'"):
            sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.1)
        assert params["b0"].data.tolist() == [3.0]
        assert velocities["b0"].tolist() == [0.25]

    def test_blocked_update_has_the_out_of_place_bits(self):
        """Parameters of several blocks with a ragged tail, and a transposed
        one, step with the out-of-place formula's bits, gradient-free steps
        included."""
        block = trainer._SGD_BLOCK
        rng = np.random.default_rng(11)
        lr, momentum, wd = 0.05, 0.9, 5e-4
        data = {
            "w0": rng.standard_normal((784, 256)),
            "w1": rng.standard_normal(block + 1),
            "w2": rng.standard_normal((300, 200)).T,
            "b0": rng.standard_normal(256),
        }
        params = {n: Tensor(d.copy() if n != "w2" else d, requires_grad=True)
                  for n, d in data.items()}
        velocities = {n: np.zeros_like(p.data) for n, p in params.items()}
        ref_w = {n: d.copy() for n, d in data.items()}
        ref_v = {n: np.zeros(d.shape) for n, d in data.items()}
        for step in range(4):
            for n, p in params.items():
                p.grad = None if (n, step) in {("w0", 1), ("w1", 2)} else rng.standard_normal(p.data.shape)
            grads = {n: p.grad for n, p in params.items()}
            sgd_step(params, velocities, lr, momentum, wd)
            if step == 0:  # The first step re-homes the weights; later ones update in place.
                arrays = {n: p.data for n, p in params.items()}
            for n, p in params.items():
                g = np.zeros(p.data.shape) if grads[n] is None else grads[n]
                g = g + wd * ref_w[n]
                ref_v[n] = momentum * ref_v[n] + g
                ref_w[n] = ref_w[n] - lr * ref_v[n]
                assert p.data is arrays[n] and p.grad is None
                assert np.array_equal(p.data, ref_w[n]), (n, step)
                assert np.array_equal(velocities[n], ref_v[n]), (n, step)

    def test_flat_step_has_the_per_parameter_bits(self):
        """Small parameters step as one flat array and the rest on their own,
        with the bits of a per-parameter out-of-place update: a parameter over
        one block, small ones, non-contiguous ones (one small, one large),
        one that never has a gradient, and a small one that no longer fits
        the flat buffer."""
        rng = np.random.default_rng(14)
        lr, momentum, wd = 0.05, 0.9, 5e-4
        data = {
            "w0": rng.standard_normal((784, 256)),
            "b0": rng.standard_normal(256),
            "w1": rng.standard_normal((64, 40)).T,
            "b1": rng.standard_normal(40),
            "w2": rng.standard_normal(7000),
            "b2": rng.standard_normal(3),
            "w3": rng.standard_normal((300, 200)).T,
        }
        params = {n: Tensor(d.copy() if n not in ("w1", "w3") else d, requires_grad=True)
                  for n, d in data.items()}
        velocities = {n: np.zeros_like(p.data) for n, p in params.items()}
        ref_w = {n: d.copy() for n, d in data.items()}
        ref_v = {n: np.zeros(d.shape) for n, d in data.items()}
        for step in range(1, 4):
            for n, p in params.items():
                p.grad = None if n == "b1" else rng.standard_normal(p.data.shape)
            grads = {n: p.grad for n, p in params.items()}
            sgd_step(params, velocities, lr, momentum, wd)
            for n, p in params.items():
                g = np.zeros(p.data.shape) if grads[n] is None else grads[n]
                ref_v[n] = momentum * ref_v[n] + (g + wd * ref_w[n])
                ref_w[n] = ref_w[n] - lr * ref_v[n]
                assert p.data.flags.c_contiguous and p.grad is None
                assert np.array_equal(p.data, ref_w[n]), (n, step)
                assert np.array_equal(velocities[n], ref_v[n]), (n, step)
        flat_w, flat_v = params["b0"].data.base, velocities["b0"].base
        assert flat_w.size == flat_v.size == 256 + 40 * 64 + 40 + 3
        for n, p in params.items():
            inside = n in ("b0", "w1", "b1", "b2")
            assert (p.data.base is flat_w) == inside and (velocities[n].base is flat_v) == inside

    def test_non_finite_gradient_in_the_last_parameter_leaves_the_whole_net(self):
        # Every gradient is checked before any write, and the error names the
        # first bad parameter in the net's order.
        rng = np.random.default_rng(15)
        shapes = {"w0": (trainer._SGD_BLOCK + 7,), "b0": (5,), "w1": (5, 3), "b1": (3,)}
        for bad in (["b1"], ["w1", "b1"], ["w0", "b1"]):
            params = {n: Tensor(rng.standard_normal(s), requires_grad=True)
                      for n, s in shapes.items()}
            velocities = {n: rng.standard_normal(s) for n, s in shapes.items()}
            for n, p in params.items():
                p.grad = rng.standard_normal(shapes[n])
            sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.1)
            before = {n: (p.data.copy(), velocities[n].copy()) for n, p in params.items()}
            for n, p in params.items():
                p.grad = rng.standard_normal(shapes[n])
                if n in bad:
                    p.grad.reshape(-1)[-1] = float("nan")
            with pytest.raises(TrainingDivergence, match=f"'{bad[0]}'"):
                sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.1)
            for n, p in params.items():
                assert np.array_equal(p.data, before[n][0]), (bad, n)
                assert np.array_equal(velocities[n], before[n][1]), (bad, n)

    def test_non_finite_gradient_in_the_last_block_leaves_its_parameter(self):
        rng = np.random.default_rng(12)
        shape = (trainer._SGD_BLOCK * 3 + 5,)
        p = Tensor(rng.standard_normal(shape), requires_grad=True)
        velocity = rng.standard_normal(shape)
        before_w, before_v = p.data.copy(), velocity.copy()
        p.grad = rng.standard_normal(shape)
        p.grad[-1] = float("nan")
        with pytest.raises(TrainingDivergence, match="'w0'"):
            sgd_step({"w0": p}, {"w0": velocity}, lr=0.1, momentum=0.9, weight_decay=0.1)
        assert np.array_equal(p.data, before_w)
        assert np.array_equal(velocity, before_v)


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
        top1, logits = evaluate_top1(net, ds)
        assert top1 == 0.75
        assert np.array_equal(logits, features)

    def test_tie_goes_to_lowest_class(self):
        from distilforge.data import Dataset

        net = identity_net()
        ds0 = Dataset(Tensor(np.array([[2.0, 2.0]])), np.array([0]), 2)
        ds1 = Dataset(Tensor(np.array([[2.0, 2.0]])), np.array([1]), 2)
        assert evaluate_top1(net, ds0)[0] == 1.0
        assert evaluate_top1(net, ds1)[0] == 0.0

    @staticmethod
    def _wide(rows, seed):
        """A 784 -> [256, 64] -> 10 net, the benchmark's widths, and a split of `rows`."""
        net = init_network(NetworkConfig(784, (256, 64), 10, init_seed=seed))
        rng = np.random.default_rng(seed)
        ds = Dataset(Tensor(rng.standard_normal((rows, 784))), rng.integers(0, 10, rows), 10)
        return net, ds

    @pytest.mark.parametrize("rows", [1, 300, trainer._EVAL_ROWS])
    def test_one_block_is_the_whole_split_forward(self, rows):
        net, ds = self._wide(rows, seed=21)
        logits = evaluate_top1(net, ds)[1]
        assert np.array_equal(logits, net.forward(ds.features).logits.data)

    def test_larger_splits_forward_each_block(self, monkeypatch):
        # Two full blocks and a partial one.
        net, ds = self._wide(1100, seed=22)
        rows, forward = [], PeerNetwork.forward

        def counted(self, features):
            rows.append(len(features.data))
            return forward(self, features)

        monkeypatch.setattr(PeerNetwork, "forward", counted)
        logits = evaluate_top1(net, ds)[1]
        monkeypatch.undo()
        assert rows == [512, 512, 76]
        x = ds.features.data
        blocks = [net.forward(Tensor(x[start:start + 512])).logits.data for start in (0, 512, 1024)]
        assert logits.shape == (1100, 10)
        assert np.array_equal(logits, np.concatenate(blocks))

    def test_blocks_keep_the_whole_split_top1(self):
        for seed in range(20):
            net, ds = self._wide(1100, seed=100 + seed)
            top1, logits = evaluate_top1(net, ds)
            whole = net.forward(ds.features).logits.data
            assert np.array_equal(logits.argmax(axis=1), whole.argmax(axis=1)), seed
            assert top1 == float((whole.argmax(axis=1) == ds.labels).mean()), seed

    @pytest.mark.parametrize("stage1_epochs", [0, 1])
    def test_stage1_tables_are_the_snapshots_evaluation(self, stage1_epochs):
        rng = np.random.default_rng(23)
        train = Dataset(Tensor(rng.standard_normal((1100, 16))), rng.integers(0, 10, 1100), 10)
        test = Dataset(Tensor(rng.standard_normal((50, 16))), rng.integers(0, 10, 50), 10)
        nets = [init_network(NetworkConfig(16, (32, 8), 10, init_seed=s)) for s in (1, 2)]
        config = small_config(batch_size=256, stage1_epochs=stage1_epochs)
        snapshots, tables, _ = pretrain_stage1(nets, train, test, config)
        for table, snapshot in zip(tables, snapshots):
            assert np.array_equal(table, evaluate_top1(snapshot, train)[1])


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
        _, _, records = pretrain_stage1(nets, train, test, config)
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
        _, _, records = pretrain_stage1(nets, train, test, small_config(stage1_epochs=5))
        net1 = [r.loss_ce for r in records if r.net == 1]
        assert net1[-1] < net1[0]

    def test_snapshots_freeze_stage1_exit_state(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config()
        snapshots, tables, _ = pretrain_stage1(nets, train, test, config)
        for net, snap in zip(nets, snapshots):
            for name in net.parameters:
                np.testing.assert_array_equal(
                    snap.parameters[name].data, net.parameters[name].data
                )
        train_stage2(nets, tables, train, test, config)
        changed = any(
            not np.array_equal(nets[0].parameters[n].data, snapshots[0].parameters[n].data)
            for n in nets[0].parameters
        )
        assert changed

    def test_zero_epochs_yields_initial_snapshots(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        initial = {n: p.data.copy() for n, p in nets[0].parameters.items()}
        snapshots, _, records = pretrain_stage1(nets, train, test, small_config(stage1_epochs=0))
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

    def test_divergence_in_evaluation_names_stage_and_epoch(self):
        # One batch per epoch; the step at lr 1e308 leaves finite weights
        # whose epoch-end evaluation overflows.
        train, test = tiny_datasets()
        config = small_config(batch_size=64, lr=1e308, momentum=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergence, match="^stage 1 epoch 0: "):
                pretrain_stage1(fresh_pair(), train, test, config)

    def test_requires_two_networks(self):
        train, test = tiny_datasets()
        with pytest.raises(ValueError, match="two peer networks"):
            pretrain_stage1([fresh_pair()[0]], train, test, small_config())


class _Stop(Exception):
    pass


@pytest.fixture
def stop_at_first_step(monkeypatch):
    """Stop a run at its first SGD step; fail if a later epoch's rate is computed first."""

    def stop(*args, **kwargs):
        raise _Stop

    rates = []

    def counted_lr_at(epoch, config):
        rates.append(epoch)
        assert rates == [0], "learning rates computed ahead of their epochs"
        return lr_at(epoch, config)

    monkeypatch.setattr(trainer, "sgd_step", stop)
    monkeypatch.setattr(trainer, "lr_at", counted_lr_at)


class TestHugeEpochCounts:
    HUGE = 10**20

    def test_stage1_starts_training(self, stop_at_first_step):
        train, test = tiny_datasets()
        config = small_config(stage1_epochs=self.HUGE)
        with pytest.raises(_Stop):
            pretrain_stage1(fresh_pair(), train, test, config)

    def test_stage2_starts_training(self, stop_at_first_step):
        train, test = tiny_datasets()
        nets = fresh_pair()
        tables = [evaluate_top1(net, train)[1] for net in nets]
        config = small_config(stage1_epochs=self.HUGE, stage2_epochs=self.HUGE)
        with pytest.raises(_Stop):
            train_stage2(nets, tables, train, test, config)


class TestStage2:
    def test_record_layout_and_lr_column(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage2_epochs=4, lr_milestones=(2,), lr_factor=0.5)
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, tables, train, test, config)
        assert len(records) == 8
        assert all(r.stage == 2 for r in records)
        for r in records:
            assert r.lr == lr_at(r.epoch, config)
        assert records[4].lr == config.lr * 0.5

    def test_all_loss_components_active_under_full_variant(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage2_epochs=1)
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, tables, train, test, config)
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
        # Every variant with the self term needs its snapshots' tables, even
        # for a stage 2 of no epoch.
        train, test = tiny_datasets()
        for variant in ("A", "C", "D"):
            for stage2_epochs in (0, 1):
                config = small_config(variant=variant, stage2_epochs=stage2_epochs)
                with pytest.raises(ValueError, match="teacher_logits table per peer"):
                    train_stage2(fresh_pair(), None, train, test, config)

    @pytest.mark.parametrize("batch_size, sampled", [(16, 0), (17, 1)])
    def test_only_a_sampled_triple_set_builds_an_rng(self, batch_size, sampled, monkeypatch):
        # 24 rows: batches of 16 and 8, both full sets, or of 17 (sampled) and
        # 7. Beside `batch_iterator`'s per-epoch generator, seeded [seed,
        # epoch], only a sampled set makes one, seeded [seed, epoch, batch].
        train, test = tiny_datasets()
        nets = fresh_pair()
        tables = [evaluate_top1(net, train)[1] for net in nets]
        config = small_config(batch_size=batch_size, stage2_epochs=2)
        seeds, default_rng = [], np.random.default_rng

        def counted_rng(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        train_stage2(nets, tables, train, test, config)
        per_batch = [seed for seed in seeds if len(seed) == 3]
        assert len(seeds) - len(per_batch) == config.stage2_epochs
        assert per_batch == [[0, epoch, 0] for epoch in (1, 2)][:sampled * 2]

    def test_stage2_keeps_no_train_split_logits(self, monkeypatch):
        # Stage 1's last train-split evaluation is the self-teacher table, so
        # stage 1 keeps it; stage 2 drops each one at once, so no evaluation
        # runs beside a train-split table of either net.
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(stage2_epochs=2)
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        evaluate, refs, alive = trainer.evaluate_top1, [], []

        def watched(net, dataset):
            alive.append(sum(ref() is not None for ref in refs))
            top1, logits = evaluate(net, dataset)
            if dataset is train:
                refs.append(weakref.ref(logits))
            return top1, logits

        monkeypatch.setattr(trainer, "evaluate_top1", watched)
        train_stage2(nets, tables, train, test, config)
        assert alive == [0] * (2 * 2 * config.stage2_epochs)

    def test_variant_c_zeroes_mutual_kl_only(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(variant="C", stage2_epochs=1)
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, tables, train, test, config)
        for r in records:
            assert r.loss_kl_mutual == 0.0
            assert r.loss_dd > 0.0

    def test_variant_d_zeroes_relation_terms(self):
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(variant="D", stage2_epochs=1)
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        records = train_stage2(nets, tables, train, test, config)
        for r in records:
            assert r.loss_dd == 0.0 and r.loss_ad == 0.0
            assert r.loss_kl_mutual > 0.0

    def test_update_orders_diverge(self):
        train, test = tiny_datasets()

        def run(order):
            nets = fresh_pair()
            config = small_config(update_order=order, stage2_epochs=2)
            _, tables, _ = pretrain_stage1(nets, train, test, config)
            train_stage2(nets, tables, train, test, config)
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
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergence, match="stage 2 epoch"):
                train_stage2(nets, tables, train, test, config)


class TestSelfTeacher:
    def test_self_teacher_rows_come_from_one_full_split_forward(self, monkeypatch):
        """Every stage-2 loss reads its snapshot's logits at the batch's rows
        of one forward over the whole training split, bit for bit: 24 rows at
        batch 10, ragged last batch of 4 included."""
        train, test = tiny_datasets()
        nets = fresh_pair()
        config = small_config(batch_size=10)
        snapshots, returned, _ = pretrain_stage1(nets, train, test, config)
        tables = [s.forward(train.features).logits.data for s in snapshots]
        batches, teachers = [], []
        iterate, loss = trainer.batch_iterator, trainer.total_loss

        def batch_iterator(*args):
            for batch in iterate(*args):
                batches.append(batch)
                yield batch

        def total_loss(outputs, peer_outputs, snapshot_logits, *rest):
            teachers.append(snapshot_logits.data)
            return loss(outputs, peer_outputs, snapshot_logits, *rest)

        monkeypatch.setattr(trainer, "batch_iterator", batch_iterator)
        monkeypatch.setattr(trainer, "total_loss", total_loss)
        train_stage2(nets, returned, train, test, config)
        assert [len(batch) for batch in batches] == [10, 10, 4] * config.stage2_epochs
        assert len(teachers) == 2 * len(batches)
        for i, batch in enumerate(batches):
            for k in (0, 1):
                assert np.array_equal(teachers[2 * i + k], tables[k][batch.indices])

    @pytest.mark.parametrize("stage2_epochs", [0, 2])
    def test_each_snapshot_forwards_once_per_stage(self, stage2_epochs, monkeypatch):
        """Stage 2 forwards no snapshot. `pretrain_stage1` forwards each
        snapshot once for its table after zero epochs, through
        `evaluate_top1`, and never after one or more, whose last evaluation
        gave the table; with or without the self term."""
        train, test = tiny_datasets()
        calls, frozen_nets = [], []
        snapshot, evaluate = PeerNetwork.snapshot, trainer.evaluate_top1

        def counted_snapshot(net):
            frozen = snapshot(net)
            k = len(calls)
            calls.append(0)
            frozen_nets.append(frozen)

            def counted(features, forward=frozen.forward):
                calls[k] += 1
                return forward(features)

            frozen.forward = counted
            return frozen

        def counted_evaluate(net, dataset):
            for k, frozen in enumerate(frozen_nets):
                if net is frozen:
                    calls[k] += 1
            return evaluate(net, dataset)

        monkeypatch.setattr(PeerNetwork, "snapshot", counted_snapshot)
        monkeypatch.setattr(trainer, "evaluate_top1", counted_evaluate)
        for variant in ("A", "B"):
            for stage1_epochs, once in ((0, 1), (1, 0), (2, 0)):
                config = small_config(
                    variant=variant, stage1_epochs=stage1_epochs, stage2_epochs=stage2_epochs
                )
                nets = fresh_pair()
                _, tables, _ = pretrain_stage1(nets, train, test, config)
                assert calls == [once] * 2
                train_stage2(nets, tables, train, test, config)
                assert calls == [once] * 2
                calls.clear()
                frozen_nets.clear()

    @pytest.mark.parametrize("widths", [(2, (8, 4), 3), (64, (256, 64), 10)])
    def test_train_pair_tables_are_the_snapshots_logits(self, widths):
        """The tables stage 1 hands to stage 2 are bit-equal to one forward
        of each snapshot over the training split, after one stage-1 epoch or
        none."""
        dim, hidden, classes = widths
        rng = np.random.default_rng(13)
        train = Dataset(Tensor(rng.standard_normal((150, dim))), rng.integers(0, classes, 150), classes)
        test = Dataset(Tensor(rng.standard_normal((20, dim))), rng.integers(0, classes, 20), classes)
        for stage1_epochs in (0, 1):
            nets = [init_network(NetworkConfig(dim, hidden, classes, init_seed=s)) for s in (1, 2)]
            config = small_config(batch_size=64, stage1_epochs=stage1_epochs, stage2_epochs=1)
            snapshots, tables, _ = pretrain_stage1(nets, train, test, config)
            assert len(tables) == 2
            for table, snapshot in zip(tables, snapshots):
                assert np.array_equal(table, snapshot.forward(train.features).logits.data)

    def test_table_shapes_are_checked(self):
        # Two tables, each (training rows, the peer's classes), or nothing runs.
        train, test = tiny_datasets()
        nets = fresh_pair()
        table = evaluate_top1(nets[0], train)[1]
        rows, classes = table.shape
        wrong = {
            "rows": [np.zeros((rows - 1, classes))] * 2,
            "classes": [table, np.zeros((rows, classes + 1))],
            "one table": [table],
            "no table": [],
            "three tables": [table] * 3,
        }
        for variant in ("A", "C", "D"):
            for stage2_epochs in (0, 1):
                config = small_config(variant=variant, stage2_epochs=stage2_epochs)
                for name, tables in wrong.items():
                    with pytest.raises(ValueError, match="teacher_logits table per peer"):
                        train_stage2(nets, tables, train, test, config)
        assert np.array_equal(evaluate_top1(nets[0], train)[1], table)

    def test_non_finite_tables_raise_before_any_step(self, monkeypatch):
        # Checked once beside the shapes, not per batch; variant B ignores them.
        train, test = tiny_datasets()
        nets = fresh_pair()
        table = evaluate_top1(nets[0], train)[1]
        steps = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *args: steps.append(args))
        for value in (np.nan, np.inf, -np.inf):
            bad = table.copy()
            bad[-1, 0] = value
            for tables in ([table, bad], [bad, table]):
                with pytest.raises(ValueError, match="teacher_logits table holds non-finite"):
                    train_stage2(nets, tables, train, test, small_config())
                assert steps == []
                train_stage2(nets, tables, train, test, small_config(variant="B", stage2_epochs=1))
                assert steps
                steps.clear()


class TestTrainPair:
    def test_combined_record_stream(self):
        train, test = tiny_datasets()
        config = small_config(stage1_epochs=2, stage2_epochs=3)
        snapshots, records = train_both_stages(fresh_pair(), train, test, config)
        assert len(records) == 10
        assert [r.stage for r in records] == [1] * 4 + [2] * 6
        assert len(snapshots) == 2

    def test_deterministic_replay(self):
        train, test = tiny_datasets()
        config = small_config()
        a, b = fresh_pair(), fresh_pair()
        _, records_a = train_both_stages(a, train, test, config)
        _, records_b = train_both_stages(b, train, test, config)
        assert metrics_to_csv(records_a) == metrics_to_csv(records_b)
        for na, nb in zip(a, b):
            for name in na.parameters:
                np.testing.assert_array_equal(
                    na.parameters[name].data, nb.parameters[name].data
                )

    def test_seed_changes_trajectory(self):
        train, test = tiny_datasets()
        _, a = train_both_stages(fresh_pair(), train, test, small_config(seed=0))
        _, b = train_both_stages(fresh_pair(), train, test, small_config(seed=1))
        assert metrics_to_csv(a) != metrics_to_csv(b)

    def test_learns_easy_blobs(self):
        train, test = tiny_datasets(per_class=30, test_per_class=15)
        config = small_config(stage1_epochs=3, stage2_epochs=5)
        _, records = train_both_stages(fresh_pair(), train, test, config)
        assert all(r.test_top1 >= 0.9 for r in records[-2:])


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
        _, records = train_both_stages(fresh_pair(), train, test, config)
        assert [r.stage for r in records] == [1, 1, 2, 2, 2, 2]
        assert _finite_losses(records)

    @pytest.mark.parametrize("batch_size, skipped_epochs", [(11, [0, 1]), (7, [])])
    def test_batch_without_triples_logs_angle_term_skipped(
        self, caplog, batch_size, skipped_epochs
    ):
        # 24 samples: batches of 11 end in a batch of 2 rows, batches of 7 in one of 3.
        train, test = tiny_datasets()
        nets = fresh_pair()
        tables = [evaluate_top1(net, train)[1] for net in nets]
        config = small_config(batch_size=batch_size)
        with caplog.at_level(logging.DEBUG, logger=trainer.__name__):
            train_stage2(nets, tables, train, test, config)
        skipped = [r.getMessage() for r in caplog.records if "angle term" in r.getMessage()]
        assert skipped == [
            f"stage 2 epoch {epoch} batch 2: 2 samples, angle term skipped"
            for epoch in skipped_epochs
        ]

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
        _, records = train_both_stages(fresh_pair(), train, test, config)
        assert [r.stage for r in records] == [1, 1, 2, 2]
        assert _finite_losses(records)
