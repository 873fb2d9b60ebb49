"""Peer classifier networks.

Plain ReLU multi-layer perceptrons that expose two things per forward pass:
the final hidden activation (the embedding consumed by the relational
losses) and the class logits. Networks are either trainable or frozen;
frozen copies serve as fixed self-teachers.
"""

from __future__ import annotations

import base64
import functools
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


def _number(name: str, value) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


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


@functools.lru_cache(maxsize=8)
def _layout(config: NetworkConfig) -> tuple[tuple[str, tuple, slice], ...]:
    """Each parameter's name, shape and slice of the flat array, in layer order."""
    layout, start = [], 0
    dims = config.layer_dims
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for name, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            layout.append((name, shape, slice(start, start + math.prod(shape))))
            start += math.prod(shape)
    return tuple(layout)


class PeerNetwork:
    """One peer: its named parameter tensors, all views of one flat array.

    `flat` is a 1-D C-contiguous float64 array of the config's parameter
    count. The parameters w0, b0, w1, b1, ... view consecutive slices of it
    in that order, so the SGD step updates them in place through `flat`, and
    an array taken from a parameter keeps tracking the network. Rebinding a
    parameter's `data`, or an entry of `parameters`, detaches it from
    `flat`; `check_views` reports that. A frozen network's parameters do not
    require grad.
    """

    def __init__(self, config: NetworkConfig, flat: np.ndarray, requires_grad: bool = True):
        layout = _layout(config)
        size = layout[-1][2].stop
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype == np.float64
                and flat.flags.c_contiguous and flat.size == size):
            raise ValueError(f"flat must be a 1-D C-contiguous float64 array of {size} values")
        self.config = config
        self.flat = flat
        self.parameters = {
            name: Tensor(flat[part].reshape(shape), requires_grad=requires_grad)
            for name, shape, part in layout
        }
        self._views = [p.data for p in self.parameters.values()]

    def check_views(self) -> None:
        """Raise ValueError unless every parameter still views its slice of `flat`."""
        arrays = [p.data for p in self.parameters.values()]
        if len(arrays) != len(self._views) or any(a is not v for a, v in zip(arrays, self._views)):
            raise ValueError("a parameter was rebound and no longer views the network's flat array")

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
        w, b = self.parameters[f"w{n_hidden}"], self.parameters[f"b{n_hidden}"]
        return ForwardOutput(embedding=h, logits=add_bias(matmul(h, w), b))

    def snapshot(self) -> "PeerNetwork":
        """Frozen copy of `flat`; later training of the source leaves it untouched."""
        return PeerNetwork(self.config, self.flat.copy(), requires_grad=False)

    def zero_grads(self) -> None:
        for p in self.parameters.values():
            p.grad = None


def init_network(config: NetworkConfig) -> PeerNetwork:
    """Fresh trainable network.

    Weights are uniform in +/- sqrt(6 / (fan_in + fan_out)) drawn from the
    config seed in layer order; biases start at zero. The same config always
    produces bit-identical parameters.
    """
    rng = np.random.default_rng(config.init_seed)
    layout = _layout(config)
    flat = np.zeros(layout[-1][2].stop)
    for name, shape, part in layout:
        if name[0] == "w":
            # In place, with the bits of rng.uniform(-limit, limit, shape).
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            view = flat[part]
            rng.random(out=view)
            view *= 2.0 * limit
            view -= limit
    return PeerNetwork(config, flat)


def save_checkpoint(net: PeerNetwork, path) -> None:
    """Write config and parameters as JSON.

    Each parameter is stored as its shape plus the base64 of its little-endian
    float64 bytes in row-major order, so every value round-trips bit-exactly.
    The base64 reads each parameter's own buffer on a little-endian host,
    and the JSON is streamed into the file, not joined into one string.
    """
    doc = {
        "config": asdict(net.config),
        "parameters": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(np.ascontiguousarray(p.data, "<f8")).decode("ascii"),
            }
            for name, p in net.parameters.items()
        },
    }
    with open(path, "w", encoding="ascii") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_checkpoint(path) -> PeerNetwork:
    """Rebuild a trainable network from a checkpoint written by save_checkpoint.

    Raises ValueError naming the problem: a document that is not an object
    holding `config` and `parameters` objects, an invalid config, or a
    parameter that the config does not have or lacks, that is not an object,
    whose shape differs from the config's, whose data is not base64 of 8
    bytes per element of its shape, or whose values are not all finite.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError and deep nesting
        raise ValueError(f"checkpoint is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint root is a {type(doc).__name__}, not an object")
    for key in ("config", "parameters"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"checkpoint '{key}' is missing or not an object")
    try:
        config = NetworkConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint config: {exc}") from None
    layout = _layout(config)
    stored = doc["parameters"]
    names = [name for name, _, _ in layout]
    for name in stored:
        if name not in names:
            raise ValueError(f"checkpoint parameter '{name}': not a parameter of the config")
    flat = np.empty(layout[-1][2].stop)
    for name, shape, part in layout:
        shape = list(shape)
        if name not in stored:
            raise ValueError(f"checkpoint parameter '{name}': missing, config needs shape {shape}")
        entry = stored[name]
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint parameter '{name}': not an object")
        # JSON integers only: 2.0 == 2 and True == 1 as well.
        if entry.get("shape") != shape or not all(type(s) is int for s in entry["shape"]):
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
        flat[part] = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(flat[part]).all():
            raise ValueError(f"checkpoint parameter '{name}': non-finite values")
    return PeerNetwork(config, flat)
