"""Network construction, forward pass, snapshots, and checkpoints."""

import json
import math

import numpy as np
import pytest

from distilforge.autodiff import Tensor, backward, reduce_mean
from distilforge.models import (
    NetworkConfig,
    PeerNetwork,
    init_network,
    load_checkpoint,
    save_checkpoint,
)


def hand_network():
    """A 2 -> 2 -> 2 network small enough to compute by hand.

    hidden = relu(x @ I + [0.5, -0.5]); logits = hidden @ [[1,2],[3,4]] + [1,-1].
    """
    config = NetworkConfig(2, (2,), 2, init_seed=0)
    params = {
        "w0": Tensor(np.eye(2), requires_grad=True),
        "b0": Tensor(np.array([0.5, -0.5]), requires_grad=True),
        "w1": Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True),
        "b1": Tensor(np.array([1.0, -1.0]), requires_grad=True),
    }
    return PeerNetwork(config, params)


class TestNetworkConfig:
    def test_valid_roundtrip(self):
        c = NetworkConfig(4, [16, 8], 3, init_seed=7)
        assert c.hidden_dims == (16, 8)
        assert c.embedding_dim == 8
        assert c.layer_dims == (4, 16, 8, 3)
        assert NetworkConfig.from_dict(c.to_dict()) == c

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(input_dim=0, hidden_dims=(4,), num_classes=2), "input_dim"),
            (dict(input_dim=2, hidden_dims=(), num_classes=2), "at least one"),
            (dict(input_dim=2, hidden_dims=(4, 0), num_classes=2), "positive"),
            (dict(input_dim=2, hidden_dims=(4, 1), num_classes=2), "embedding dimension"),
            (dict(input_dim=2, hidden_dims=(4,), num_classes=1), "num_classes"),
            (dict(input_dim=2, hidden_dims=(4,), num_classes=2, init_seed=-1), "init_seed"),
            (dict(input_dim=2, hidden_dims=(4,), num_classes=2, activation="tanh"), "relu"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        kwargs.setdefault("init_seed", 0)
        with pytest.raises(ValueError, match=message):
            NetworkConfig(**kwargs)


class TestForward:
    def test_hand_computed_values(self):
        net = hand_network()
        out = net.forward(Tensor(np.array([[1.0, 2.0]])))
        # pre-activation (1.5, 1.5); relu passes both through.
        np.testing.assert_array_equal(out.embedding.data, [[1.5, 1.5]])
        # logits: [1.5 + 4.5 + 1, 3.0 + 6.0 - 1] = [7, 8].
        np.testing.assert_array_equal(out.logits.data, [[7.0, 8.0]])

    def test_relu_clamps_embedding(self):
        net = hand_network()
        out = net.forward(Tensor(np.array([[-1.0, 0.0]])))
        # pre-activation (-0.5, -0.5) clamps to zero, so logits are the bias.
        np.testing.assert_array_equal(out.embedding.data, [[0.0, 0.0]])
        np.testing.assert_array_equal(out.logits.data, [[1.0, -1.0]])

    def test_embedding_is_last_hidden_layer(self):
        config = NetworkConfig(3, (7, 5), 4, init_seed=1)
        net = init_network(config)
        out = net.forward(Tensor(np.zeros((2, 3))))
        assert out.embedding.shape == (2, 5)
        assert out.logits.shape == (2, 4)

    def test_input_shape_validated(self):
        net = hand_network()
        with pytest.raises(ValueError, match=r"\(batch, 2\)"):
            net.forward(Tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError, match=r"\(batch, 2\)"):
            net.forward(Tensor(np.zeros(2)))

    def test_gradients_reach_all_parameters(self):
        net = init_network(NetworkConfig(3, (4, 4), 2, init_seed=3))
        x = Tensor(np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3)))
        backward(reduce_mean(net.forward(x).logits))
        for name, p in net.parameters.items():
            assert p.grad is not None, name
        net.zero_grads()
        assert all(p.grad is None for p in net.parameters.values())


class TestInit:
    def test_deterministic_and_seed_sensitive(self):
        config = NetworkConfig(4, (8, 4), 3, init_seed=11)
        a, b = init_network(config), init_network(config)
        for name in a.parameters:
            np.testing.assert_array_equal(a.parameters[name].data, b.parameters[name].data)
        other = init_network(NetworkConfig(4, (8, 4), 3, init_seed=12))
        assert not np.array_equal(a.parameters["w0"].data, other.parameters["w0"].data)

    def test_weight_bounds_and_zero_biases(self):
        config = NetworkConfig(100, (50,), 10, init_seed=0)
        net = init_network(config)
        limit0 = math.sqrt(6.0 / 150.0)
        limit1 = math.sqrt(6.0 / 60.0)
        assert np.abs(net.parameters["w0"].data).max() <= limit0
        assert np.abs(net.parameters["w1"].data).max() <= limit1
        # The draw should actually use the available range.
        assert np.abs(net.parameters["w0"].data).max() > 0.8 * limit0
        np.testing.assert_array_equal(net.parameters["b0"].data, np.zeros(50))
        np.testing.assert_array_equal(net.parameters["b1"].data, np.zeros(10))

    def test_parameter_count(self):
        # 2*8 + 8 + 8*4 + 4 + 4*3 + 3 = 75
        net = init_network(NetworkConfig(2, (8, 4), 3, init_seed=0))
        assert net.num_parameters() == 75

    def test_all_parameters_trainable(self):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=0))
        assert all(p.requires_grad for p in net.parameters.values())


class TestSnapshot:
    def test_frozen_and_independent(self):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=5))
        snap = net.snapshot()
        assert all(p.requires_grad is False for p in snap.parameters.values())
        before = snap.parameters["w0"].data.copy()
        net.parameters["w0"].data += 1.0
        np.testing.assert_array_equal(snap.parameters["w0"].data, before)

    def test_snapshot_forward_builds_no_gradient(self):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=5))
        snap = net.snapshot()
        out = snap.forward(Tensor(np.zeros((3, 2))))
        assert not out.logits.requires_grad


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = init_network(NetworkConfig(3, (6, 4), 2, init_seed=9))
        net.parameters["w0"].data *= 1.234567891234567
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert set(loaded.parameters) == set(net.parameters)
        for name in net.parameters:
            np.testing.assert_array_equal(
                loaded.parameters[name].data, net.parameters[name].data
            )
            assert loaded.parameters[name].requires_grad

    def test_file_layout(self, tmp_path):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=1))
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "parameters"}
        assert doc["parameters"]["w0"]["shape"] == [2, 4]
        assert len(doc["parameters"]["w0"]["data"]) == 8
        # Row-major flattening: element [0][1] is the second list entry.
        assert doc["parameters"]["w0"]["data"][1] == net.parameters["w0"].data[0, 1]
