"""Peer classifier networks.

Plain ReLU multi-layer perceptrons that expose two things per forward pass:
the final hidden activation (the embedding consumed by the relational
losses) and the class logits. Networks are either trainable or frozen;
frozen copies serve as fixed self-teachers.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add_bias, matmul, relu


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and initialization seed for one peer."""

    input_dim: int
    hidden_dims: tuple
    num_classes: int
    init_seed: int
    activation: str = "relu"

    def __post_init__(self):
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise ValueError("hidden_dims must be a list of layer widths")
        for name in ("input_dim", "num_classes", "init_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        widths = tuple(_integer("hidden_dims entry", d) for d in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", widths)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_dims:
            raise ValueError("hidden_dims needs at least one layer")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden_dims entries must be positive")
        if self.hidden_dims[-1] < 2:
            raise ValueError("the last hidden width (embedding dimension) must be >= 2")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.init_seed < 0:
            raise ValueError("init_seed must be non-negative")
        if self.activation != "relu":
            raise ValueError("activation must be 'relu'")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.num_classes)


@dataclass
class ForwardOutput:
    """Embedding (batch, hidden_dims[-1]) and logits (batch, num_classes).

    `relation` holds the embedding's relation geometry once a loss has
    measured it, so that it lives and dies with this output.
    """

    embedding: Tensor
    logits: Tensor
    relation: object = None


class PeerNetwork:
    """One peer and its named parameter tensors; a frozen snapshot's parameters
    do not require grad."""

    def __init__(self, config: NetworkConfig, parameters: dict):
        self.config = config
        self.parameters = parameters

    def forward(self, features: Tensor) -> ForwardOutput:
        """Run the network; the input batch is never mutated."""
        if features.data.ndim != 2 or features.data.shape[1] != self.config.input_dim:
            raise ValueError(
                f"features must have shape (batch, {self.config.input_dim}), "
                f"got {features.data.shape}"
            )
        h = features
        for i in range(len(self.config.hidden_dims)):
            h = relu(add_bias(matmul(h, self.parameters[f"w{i}"]), self.parameters[f"b{i}"]))
        return ForwardOutput(embedding=h, logits=self.head(h))

    def head(self, embedding: Tensor) -> Tensor:
        """Logits from embeddings: the output layer alone."""
        n_hidden = len(self.config.hidden_dims)
        return add_bias(
            matmul(embedding, self.parameters[f"w{n_hidden}"]), self.parameters[f"b{n_hidden}"]
        )

    def snapshot(self) -> "PeerNetwork":
        """Frozen deep copy; later training of the source leaves it untouched."""
        params = {
            name: Tensor(p.data.copy(), requires_grad=False)
            for name, p in self.parameters.items()
        }
        return PeerNetwork(self.config, params)

    def zero_grads(self) -> None:
        for p in self.parameters.values():
            p.grad = None


def init_network(config: NetworkConfig) -> PeerNetwork:
    """Fresh trainable network.

    Weights are uniform in +/- sqrt(6 / (fan_in + fan_out)) drawn from the
    config seed; biases start at zero. The same config always produces
    bit-identical parameters.
    """
    rng = np.random.default_rng(config.init_seed)
    params: dict[str, Tensor] = {}
    dims = config.layer_dims
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params[f"w{i}"] = Tensor(
            rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True
        )
        params[f"b{i}"] = Tensor(np.zeros(fan_out), requires_grad=True)
    return PeerNetwork(config, params)


def save_checkpoint(net: PeerNetwork, path) -> None:
    """Write config and parameters as JSON.

    Each parameter is stored as its shape plus the base64 of its little-endian
    float64 bytes in row-major order, so every value round-trips bit-exactly.
    """
    doc = {
        "config": asdict(net.config),
        "parameters": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, p in net.parameters.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_checkpoint(path) -> PeerNetwork:
    """Rebuild a trainable network from a checkpoint written by save_checkpoint.

    Raises ValueError naming the problem: a document that is not an object
    holding `config` and `parameters` objects, an invalid config, or a
    parameter that the config does not have or lacks, that is not an object,
    whose shape differs from the config's, whose data is not base64 of 8
    bytes per element of its shape, or whose values are not all finite.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint root is a {type(doc).__name__}, not an object")
    for key in ("config", "parameters"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"checkpoint '{key}' is missing or not an object")
    try:
        config = NetworkConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint config: {exc}") from None
    dims = config.layer_dims
    expected = {}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        expected.update({f"w{i}": [fan_in, fan_out], f"b{i}": [fan_out]})
    stored = doc["parameters"]
    for name in stored:
        if name not in expected:
            raise ValueError(f"checkpoint parameter '{name}': not a parameter of the config")
    params = {}
    for name, shape in expected.items():
        if name not in stored:
            raise ValueError(f"checkpoint parameter '{name}': missing, config needs shape {shape}")
        entry = stored[name]
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint parameter '{name}': not an object")
        if entry.get("shape") != shape:
            raise ValueError(
                f"checkpoint parameter '{name}': shape {entry.get('shape')}, config needs {shape}"
            )
        try:
            raw = base64.b64decode(entry.get("data"), validate=True)
        except (TypeError, ValueError):
            raise ValueError(f"checkpoint parameter '{name}': data is not base64 text") from None
        needed = 8 * math.prod(shape)
        if len(raw) != needed:
            raise ValueError(
                f"checkpoint parameter '{name}': {len(raw)} data bytes, "
                f"shape {shape} needs {needed}"
            )
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint parameter '{name}': non-finite values")
        params[name] = Tensor(arr, requires_grad=True)
    return PeerNetwork(config, params)
