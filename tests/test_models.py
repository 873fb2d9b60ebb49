"""Network construction, forward pass, snapshots, and checkpoints."""

import base64
import json
import math
import re
import struct
from dataclasses import asdict

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
    # w0, b0, w1, b1 in layer order, each row-major.
    return PeerNetwork(config, np.array([1, 0, 0, 1, 0.5, -0.5, 1, 2, 3, 4, 1, -1], dtype=float))


def assert_views_one_flat(net):
    """Every parameter views its slice of one C-contiguous `flat`, in layer order."""
    flat = net.flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    n_layers = len(net.config.layer_dims) - 1
    assert list(net.parameters) == [f"{k}{i}" for i in range(n_layers) for k in "wb"]
    saved = flat.copy()
    flat[:] = np.arange(flat.size)
    start = 0
    for name, p in net.parameters.items():
        assert p.data.flags.c_contiguous and np.shares_memory(p.data, flat), name
        assert np.array_equal(p.data.reshape(-1), np.arange(start, start + p.data.size)), name
        start += p.data.size
    assert start == flat.size
    flat[:] = saved


class TestNetworkConfig:
    def test_valid_roundtrip(self):
        c = NetworkConfig(4, [16, 8], 3, init_seed=7)
        assert c.hidden_dims == (16, 8)
        assert c.layer_dims == (4, 16, 8, 3)
        # Checkpoints store the config as asdict() JSON and rebuild it by keyword.
        doc = json.loads(json.dumps(asdict(c)))
        assert doc["hidden_dims"] == [16, 8]
        assert NetworkConfig(**doc) == c

    def test_numpy_integers_become_ints(self):
        c = NetworkConfig(np.int64(4), [np.int32(16), 8], np.int64(3), init_seed=np.uint8(7))
        assert c == NetworkConfig(4, (16, 8), 3, init_seed=7)
        fields = (c.input_dim, *c.hidden_dims, c.num_classes, c.init_seed)
        assert all(type(v) is int for v in fields)

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
        assert out.embedding.data.shape == (2, 5)
        assert out.logits.data.shape == (2, 4)

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
        assert sum(p.data.size for p in net.parameters.values()) == 75

    def test_all_parameters_trainable(self):
        net = init_network(NetworkConfig(2, (4,), 2, init_seed=0))
        assert all(p.requires_grad for p in net.parameters.values())


class TestFlat:
    def test_init_network_views_one_flat(self):
        assert_views_one_flat(init_network(NetworkConfig(3, (6, 4), 2, init_seed=9)))

    def test_load_checkpoint_views_one_flat(self, tmp_path):
        net = init_network(NetworkConfig(3, (6, 4), 2, init_seed=9))
        save_checkpoint(net, tmp_path / "net.json")
        loaded = load_checkpoint(tmp_path / "net.json")
        assert_views_one_flat(loaded)
        assert np.array_equal(loaded.flat, net.flat)

    def test_snapshot_views_a_distinct_copy(self):
        net = init_network(NetworkConfig(3, (6, 4), 2, init_seed=9))
        snap = net.snapshot()
        assert_views_one_flat(snap)
        assert snap.flat is not net.flat and not np.shares_memory(snap.flat, net.flat)
        assert np.array_equal(snap.flat, net.flat)

    @pytest.mark.parametrize(
        "flat",
        [np.zeros((2, 31)), np.zeros(124)[::2], np.zeros(62, dtype=np.float32), np.zeros(61),
         list(np.zeros(62))],
        ids=["2d", "strided", "float32", "short", "list"],
    )
    def test_constructor_rejects_a_bad_flat(self, flat):
        # 3 -> [6, 4] -> 2 has 18 + 6 + 24 + 4 + 8 + 2 = 62 parameters.
        with pytest.raises(ValueError, match="1-D C-contiguous float64 array of 62 values"):
            PeerNetwork(NetworkConfig(3, (6, 4), 2, init_seed=0), flat)


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
        assert doc["config"] == json.loads(json.dumps(asdict(net.config)))
        entry = doc["parameters"]["w0"]
        assert set(entry) == {"shape", "data"}
        assert entry["shape"] == [2, 4]
        raw = base64.b64decode(entry["data"], validate=True)
        assert len(raw) == 8 * 2 * 4
        # Little-endian float64, row-major: element [0][1] is the second value.
        assert struct.unpack("<d", raw[8:16])[0] == net.parameters["w0"].data[0, 1]
        assert raw == net.parameters["w0"].data.astype("<f8").tobytes(order="C")

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        extremes = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        values = np.concatenate([extremes, np.random.default_rng(3).normal(size=18)])
        net = init_network(NetworkConfig(3, (8,), 2, init_seed=0))
        net.parameters["w0"].data[...] = values.reshape(3, 8)
        net.parameters["b0"].data[...] = values[::-1][:8]
        net.parameters["w1"].data[...] = np.arange(16.0).reshape(2, 8).T
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for name, p in net.parameters.items():
            got = loaded.parameters[name].data
            assert got.dtype == np.float64 and got.shape == p.data.shape
            assert np.array_equal(got, p.data), name
            assert np.array_equal(np.signbit(got), np.signbit(p.data)), name

    def test_loaded_arrays_are_owned_and_writable(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(hand_network(), path)
        loaded = load_checkpoint(path)
        # The flat array owns its values: no view of the read-only decoded bytes.
        assert loaded.flat.flags.writeable and loaded.flat.flags.owndata
        for p in loaded.parameters.values():
            assert p.data.flags.writeable
            p.data += 1.0
        w0 = loaded.parameters["w0"].data
        np.testing.assert_array_equal(w0, np.eye(2) + 1.0)
        np.testing.assert_array_equal(loaded.flat, hand_network().flat + 1.0)

    @pytest.mark.parametrize(
        "name, edit, reason",
        [
            ("w1", lambda p: p["w1"].update(data=base64.b64encode(b"\0" * 24).decode()),
             "24 data bytes, shape \\[2, 2\\] needs 32"),
            ("w1", lambda p: p["w1"].update(data="not*base64!"), "not base64"),
            ("w1", lambda p: p["w1"].update(data=[1.0, 0.0, 0.0, 1.0]), "not base64"),
            ("w1", lambda p: p["w1"].update(shape=[4, 1]),
             "shape \\[4, 1\\], config needs \\[2, 2\\]"),
            ("b0", lambda p: p.pop("b0"), "missing, config needs shape \\[2\\]"),
            ("w2", lambda p: p.update(w2=p["w1"]), "not a parameter of the config"),
            ("b0", lambda p: p["b0"].update(data=base64.b64encode(
                struct.pack("<2d", 0.5, float("nan"))).decode()), "non-finite values$"),
            ("b0", lambda p: p["b0"].update(data=base64.b64encode(
                struct.pack("<2d", float("-inf"), 0.5)).decode()), "non-finite values$"),
        ],
        ids=["byte_count", "invalid_base64", "list_form", "wrong_shape", "missing", "extra",
             "nan", "inf"],
    )
    def test_bad_payload_names_parameter(self, tmp_path, name, edit, reason):
        path = tmp_path / "net.json"
        save_checkpoint(hand_network(), path)
        doc = json.loads(path.read_text())
        edit(doc["parameters"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"parameter '{name}': .*{reason}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored", [[1.0, 2], [True, 2]], ids=["float", "bool"])
    def test_shape_needs_json_integers(self, tmp_path, stored):
        """1.0 and True equal 1 in Python; a shape, like the config, takes JSON integers only."""
        path = tmp_path / "net.json"
        save_checkpoint(init_network(NetworkConfig(1, (2,), 2, init_seed=0)), path)
        doc = json.loads(path.read_text())
        doc["parameters"]["w0"]["shape"] = stored
        path.write_text(json.dumps(doc))
        message = f"checkpoint parameter 'w0': shape {stored}, config needs [1, 2]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: [doc], "checkpoint root is a list, not an object"),
            (lambda doc: {"config": doc["config"]}, "'parameters' is missing or not an object"),
            (lambda doc: dict(doc, config=dict(doc["config"], bogus=1)),
             "checkpoint config: .*unexpected keyword argument 'bogus'"),
            (lambda doc: dict(doc, config=dict(doc["config"], hidden_dims=5)),
             "checkpoint config: hidden_dims must be a list"),
            (lambda doc: dict(doc, config=dict(doc["config"], input_dim=2.0)),
             "^checkpoint config: input_dim must be an integer, got 2.0$"),
            (lambda doc: dict(doc, config=dict(doc["config"], num_classes=3.0)),
             "^checkpoint config: num_classes must be an integer, got 3.0$"),
            (lambda doc: dict(doc, config=dict(doc["config"], init_seed=1.5)),
             "^checkpoint config: init_seed must be an integer, got 1.5$"),
            (lambda doc: dict(doc, config=dict(doc["config"], init_seed=True)),
             "^checkpoint config: init_seed must be an integer, got True$"),
            (lambda doc: dict(doc, config=dict(doc["config"], hidden_dims=[4.7, 3])),
             "^checkpoint config: hidden_dims entry must be an integer, got 4.7$"),
            (lambda doc: dict(doc, parameters=dict(doc["parameters"], w0=[1.0, 0.0])),
             "parameter 'w0': not an object"),
            # Bytes are written as they are.
            (lambda doc: b"{not json", "^checkpoint is not valid JSON: Expecting property name"),
            (lambda doc: b'{"config": \xff}',
             "^checkpoint is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
            (lambda doc: b"[" * 200_000 + b"]" * 200_000,
             "^checkpoint is not valid JSON: maximum recursion depth exceeded"),
        ],
        ids=["root_list", "no_parameters", "unknown_config_key", "hidden_dims_int",
             "input_dim_float", "num_classes_float", "init_seed_float", "init_seed_bool",
             "hidden_dims_float", "entry_list", "not_json", "not_utf8", "deep_nesting"],
    )
    def test_malformed_document_is_a_value_error(self, tmp_path, edit, reason):
        path = tmp_path / "net.json"
        save_checkpoint(hand_network(), path)
        doc = edit(json.loads(path.read_text()))
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=reason):
            load_checkpoint(path)
