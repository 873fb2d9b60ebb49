"""Fixed work in a fresh process, timed to gauge how fast the host runs now.

    python3 benchmarks/calibration.py RESULT_JSON

The benchmark's hosts are shared, and their speed drifts by a quarter or
more over tens of minutes: interpreter start and imports slow down most,
compute less. `run.py` starts this process next to the CLI processes it
times and scales the run's timings by what it measures (see
`run.scale_factors`). It writes to RESULT_JSON the moment `import numpy`
returned and the moment the work below ended, on the `time.monotonic` clock
shared with the parent process.

The work is of the kind the CLI does: a small network's forward and backward
pass in tiny numpy ops, each result kept in a Python node as a tape would,
pairwise distances as in the relation term, one MNIST-sized matmul and a
JSON dump of parameters as a checkpoint does. It uses no distilforge code,
so a change to the program never changes it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPEATS = 1400


def work(np, repeats: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 16))
    w1, b1 = rng.standard_normal((16, 32)) * 0.1, np.zeros(32)
    w2, b2 = rng.standard_normal((32, 16)) * 0.1, np.zeros(16)
    wide_x, wide_w = rng.standard_normal((128, 784)), rng.standard_normal((784, 256))
    acc = 0.0
    for _ in range(repeats):
        tape = []
        z1 = x @ w1 + b1
        h1 = np.maximum(z1, 0.0)
        tape.append({"op": "relu", "value": h1, "mask": z1 > 0})
        z2 = h1 @ w2 + b2
        tape.append({"op": "matmul", "value": z2, "input": h1})
        shifted = z2 - z2.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        diff = z2[:, None, :] - z2[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1) + 1e-12)
        loss = -log_p.mean() + dist.mean()
        grad = np.full_like(z2, 1.0 / z2.size)
        for node in reversed(tape):
            if node["op"] == "matmul":
                grad = grad @ w2.T
            else:
                grad = grad * node["mask"]
        acc += float(loss) + float(grad.sum())
    acc += float((wide_x @ wide_w).sum())
    acc += len(json.dumps({"w1": w1.reshape(-1).tolist(), "w2": w2.reshape(-1).tolist()}))
    return acc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: calibration.py RESULT_JSON", file=sys.stderr)
        return 64
    import numpy

    imported = time.monotonic()
    work(numpy, REPEATS)
    Path(argv[1]).write_text(json.dumps({"imported": imported, "done": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
