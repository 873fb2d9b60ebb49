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

@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and initialization seed for one peer."""

    input_dim: int
    hidden_dims: tuple
    num_classes: int
    init_seed: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
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
    def embedding_dim(self) -> int:
        return self.hidden_dims[-1]

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.num_classes)


@dataclass
class ForwardOutput:
    """Embedding (batch, embedding_dim) and logits (batch, num_classes)."""

    embedding: Tensor
    logits: Tensor


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
        n_hidden = len(self.config.hidden_dims)
        for i in range(n_hidden):
            h = relu(add_bias(matmul(h, self.parameters[f"w{i}"]), self.parameters[f"b{i}"]))
        logits = add_bias(
            matmul(h, self.parameters[f"w{n_hidden}"]), self.parameters[f"b{n_hidden}"]
        )
        return ForwardOutput(embedding=h, logits=logits)

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

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters.values())


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

    Raises ValueError naming the parameter whose data is not base64 of
    8 bytes per element of its shape.
    """
    doc = json.loads(Path(path).read_text())
    config = NetworkConfig(**doc["config"])
    params = {}
    for name, entry in doc["parameters"].items():
        shape = tuple(entry["shape"])
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (TypeError, ValueError):
            raise ValueError(f"checkpoint parameter '{name}': data is not base64 text") from None
        needed = 8 * math.prod(shape)
        if len(raw) != needed:
            raise ValueError(
                f"checkpoint parameter '{name}': {len(raw)} data bytes, "
                f"shape {list(shape)} needs {needed}"
            )
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        params[name] = Tensor(arr, requires_grad=True)
    return PeerNetwork(config, params)
