"""Peak memory of the phases that touch a whole split, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts every
float64 array a phase holds at once. Each bound sits between what the phase
must hold and what it held when dead copies stayed alive.
"""

import tracemalloc

import numpy as np
import pytest

from distilforge.autodiff import Tensor
from distilforge.data import Dataset, mean_std_normalize
from distilforge.models import NetworkConfig, init_network
from distilforge.trainer import TrainConfig, evaluate_top1, train_pair

ROWS, TEST_ROWS, DIM, WIDE = 2000, 500, 64, 256


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
    # their inputs if the forward ran on the parameters themselves.
    net = init_network(NetworkConfig(DIM, (WIDE, 64), 10, init_seed=1))
    train = _split(ROWS, seed=2)
    activation = ROWS * WIDE * 8
    ratio = _traced_peak(lambda: evaluate_top1(net, train)) / activation
    print(f"evaluate_top1 peak: {ratio:.2f} activations of the widest layer")
    assert ratio <= 2.5


def test_evaluation_leaves_the_net_untouched():
    net = init_network(NetworkConfig(DIM, (WIDE, 64), 10, init_seed=1))
    before = {name: p.data.copy() for name, p in net.parameters.items()}
    evaluate_top1(net, _split(50, seed=3))
    for name, p in net.parameters.items():
        assert p.requires_grad and p.grad is None
        assert np.array_equal(p.data, before[name])


def test_standardization_builds_each_split_once():
    train, test = _split(ROWS, seed=4), _split(TEST_ROWS, seed=5)
    features = (ROWS + TEST_ROWS) * DIM * 8
    ratio = _traced_peak(lambda: mean_std_normalize(train, [test])) / features
    print(f"mean_std_normalize peak: {ratio:.2f}x the bytes of both splits")
    assert ratio <= 1.25


@pytest.mark.parametrize("update_order", ["sequential", "simultaneous"])
def test_no_gradient_outlives_training(update_order):
    train, test = _split(40, seed=6), _split(10, seed=7)
    nets = [init_network(NetworkConfig(DIM, (8, 4), 10, init_seed=s)) for s in (1, 2)]
    config = TrainConfig(
        stage1_epochs=1, stage2_epochs=2, batch_size=16, lr_milestones=(),
        update_order=update_order,
    )
    result = train_pair(nets, train, test, config)
    for net in result.nets + result.snapshots:
        assert all(p.grad is None for p in net.parameters.values())
