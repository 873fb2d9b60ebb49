"""Peak memory of the phases that touch a whole split or parameter, by tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts every
float64 array a phase holds at once. Each bound sits between what the phase
must hold and what it held when dead copies stayed alive.
"""

import json
import tracemalloc

import numpy as np
import pytest

from distilforge.autodiff import Tensor
from distilforge.data import Dataset, mean_std_normalize
from distilforge.experiments import load_experiment_config, run_experiment
from distilforge.models import NetworkConfig, init_network
from distilforge import trainer
from distilforge.trainer import TrainConfig, evaluate_top1, pretrain_stage1, sgd_step, train_stage2

ROWS, TEST_ROWS, DIM, WIDE = 2000, 500, 64, 256
# Float64 parameters of one 784 -> [256, 64] -> 10 net, the wide_idx shape.
WIDE_NET_PARAMS = 784 * WIDE + WIDE + WIDE * 64 + 64 + 64 * 10 + 10


def _split(rows: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(Tensor(rng.standard_normal((rows, DIM))), rng.integers(0, 10, rows), 10)


def _traced_peak(fn) -> int:
    """Bytes traced at the peak of fn(), counted from an empty trace."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_holds_at_most_two_activations():
    # A trainable net, as the trainer evaluates it: its records would keep
    # their inputs if the forward ran on the parameters themselves. The split
    # spans several blocks, so the bound is one block's activations beside
    # the split's logits; a whole-split forward held 2.13 full-split ones.
    net = init_network(NetworkConfig(DIM, (WIDE, 64), 10, init_seed=1))
    train = _split(ROWS, seed=2)
    activation = trainer._EVAL_ROWS * WIDE * 8
    logits = ROWS * 10 * 8
    ratio = (_traced_peak(lambda: evaluate_top1(net, train)) - logits) / activation
    print(f"evaluate_top1 peak: {ratio:.2f} activations of the widest layer's block, plus the logits")
    assert ratio <= 2.5


def test_evaluation_leaves_the_net_untouched():
    net = init_network(NetworkConfig(DIM, (WIDE, 64), 10, init_seed=1))
    before = {name: p.data.copy() for name, p in net.parameters.items()}
    evaluate_top1(net, _split(50, seed=3))
    for name, p in net.parameters.items():
        assert p.requires_grad and p.grad is None
        assert np.array_equal(p.data, before[name])


def test_standardization_builds_each_split_once():
    # MNIST-wide rows, standardized in place: the statistics' temporaries
    # follow a block of columns, not the split, and the finiteness check's
    # mask takes a byte per feature: 0.10x. Standardized copies of both
    # splits read 1.03x; a whole-split `std` temporary alone is 0.8x.
    rng = np.random.default_rng(4)
    train, test = (
        Dataset(Tensor(rng.standard_normal((rows, 784))), rng.integers(0, 10, rows), 10)
        for rows in (ROWS, TEST_ROWS)
    )
    features = (ROWS + TEST_ROWS) * 784 * 8
    ratio = _traced_peak(lambda: mean_std_normalize(train, [test])) / features
    print(f"mean_std_normalize peak: {ratio:.2f}x the bytes of both splits")
    assert ratio <= 0.25


def test_sgd_step_holds_at_most_about_a_block_of_scratch():
    rng = np.random.default_rng(8)
    p = Tensor(rng.standard_normal((784, 256)), requires_grad=True)
    velocity = np.zeros_like(p.data)
    p.grad = rng.standard_normal(p.data.shape)
    block = trainer._SGD_BLOCK * 8
    peak = _traced_peak(lambda: sgd_step({"w": p}, {"w": velocity}, 0.1, 0.9, 5e-4))
    print(f"sgd_step peak: {peak / block:.2f} blocks, {peak / p.data.nbytes:.3f} of the parameter")
    # The finiteness check runs block by block before the one-block scratch
    # is made; a whole-parameter boolean mask was 1.58 blocks here.
    assert peak <= 1.25 * block


@pytest.mark.parametrize("count", [5, 12])
def test_sgd_step_scratch_stays_within_a_block(count):
    # Parameters of 1,500 elements: the flat buffer takes five (7,500
    # elements, its gradients and its step one block together), and with
    # twelve the other seven step on their own through the same block. The
    # first step re-homes the weights; the traced one is the second. Beside
    # the block, the finiteness check's mask takes a byte per flat element:
    # 1.02 and 1.11 blocks. One flat buffer of all twelve would take 2.27.
    rng = np.random.default_rng(10)
    params = {f"b{i}": Tensor(rng.standard_normal(1500), requires_grad=True) for i in range(count)}
    velocities = {name: np.zeros(1500) for name in params}

    def step():
        for p in params.values():
            p.grad = rng.standard_normal(1500)
        sgd_step(params, velocities, 0.1, 0.9, 5e-4)

    step()
    grads = count * 1500 * 8
    block = trainer._SGD_BLOCK * 8
    peak = _traced_peak(step) - grads
    print(f"sgd_step peak: {peak / block:.2f} blocks beside the gradients")
    assert peak <= 1.25 * block


def test_training_peak_follows_one_evaluation_block():
    # A wide_idx-shaped pair: 2,000/500 rows at 784 -> [256, 64] -> 10,
    # variant D, 1+1 epochs. Everything it allocates is traced: the splits,
    # and each net's weights and velocities must be held; the snapshots,
    # dropped before stage 2 as a run drops them, are one copy more of each
    # net as stage 1 ends. Whole-split evaluation held 2.7 (2,000, 256)
    # activations above that.
    dim, rows = 784, ROWS

    def run():
        rng = np.random.default_rng(9)
        train = Dataset(Tensor(rng.standard_normal((rows, dim))), rng.integers(0, 10, rows), 10)
        test = Dataset(Tensor(rng.standard_normal((TEST_ROWS, dim))),
                       rng.integers(0, 10, TEST_ROWS), 10)
        nets = [init_network(NetworkConfig(dim, (WIDE, 64), 10, init_seed=s)) for s in (1, 2)]
        config = TrainConfig(stage1_epochs=1, stage2_epochs=1, batch_size=128,
                             lr_milestones=(), variant="D")
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        train_stage2(nets, tables, train, test, config)

    must_hold = ((rows + TEST_ROWS) * dim + 2 * 2 * WIDE_NET_PARAMS) * 8
    activation = rows * WIDE * 8
    peak = _traced_peak(run)
    print(f"training peak: {(peak - must_hold) / activation:.2f} activations above what it must hold")
    assert must_hold <= peak <= must_hold + 2 * activation


def test_run_holds_no_snapshot_through_stage_2(tmp_path, monkeypatch):
    # A wide_idx-shaped `run` on blobs: 2,000/500 rows at 784 -> [256, 64]
    # -> 10, variant D, 1+1 epochs. At stage 2's peak it must hold the
    # splits and two copies of each net, its weights and velocities. One
    # net's gradients, its first layer's gradient product and the last
    # batch's records add about three copies of one net (3.10). Holding the
    # frozen snapshots, which stage 2 does not read, read 5.09.
    doc = {
        "dataset": {"kind": "blobs", "num_classes": 10, "per_class": ROWS // 10,
                    "test_per_class": TEST_ROWS // 10, "dim": 784, "seed": 1},
        "network1": {"input_dim": 784, "hidden_dims": [WIDE, 64], "num_classes": 10,
                     "init_seed": 1},
        "network2": {"input_dim": 784, "hidden_dims": [WIDE, 64], "num_classes": 10,
                     "init_seed": 2},
        "train": {"stage1_epochs": 1, "stage2_epochs": 1, "batch_size": 128,
                  "lr_milestones": [], "variant": "D"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = load_experiment_config(path)
    train_epochs, peaks = trainer._train_epochs, []

    def traced_epochs(*args, stage, **kwargs):
        tracemalloc.reset_peak()
        result = train_epochs(*args, stage=stage, **kwargs)
        if stage == 2:
            peaks.append(tracemalloc.get_traced_memory()[1])
        return result

    monkeypatch.setattr(trainer, "_train_epochs", traced_epochs)
    _traced_peak(lambda: run_experiment(config, out_dir=tmp_path / "out"))
    net = WIDE_NET_PARAMS * 8
    must_hold = (ROWS + TEST_ROWS) * 784 * 8 + 2 * 2 * net
    [peak] = peaks
    print(f"stage 2 peak: {(peak - must_hold) / net:.2f} net copies above what it must hold")
    assert must_hold <= peak <= must_hold + 4 * net


@pytest.mark.parametrize("update_order", ["sequential", "simultaneous"])
def test_no_gradient_outlives_training(update_order):
    train, test = _split(40, seed=6), _split(10, seed=7)
    nets = [init_network(NetworkConfig(DIM, (8, 4), 10, init_seed=s)) for s in (1, 2)]
    config = TrainConfig(
        stage1_epochs=1, stage2_epochs=2, batch_size=16, lr_milestones=(),
        update_order=update_order,
    )
    snapshots, tables, _ = pretrain_stage1(nets, train, test, config)
    train_stage2(nets, tables, train, test, config)
    for net in nets + snapshots:
        assert all(p.grad is None for p in net.parameters.values())
