"""Dense numeric kernels: matmul, softmax, layer norm, sigmoid, LSTM cell step.

Array in, array out: everything here is pure, float64 and deterministic,
and holds no state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "LstmWeights",
    "matmul",
    "softmax",
    "layer_norm",
    "lstm_cell_step",
    "sigmoid",
]


@dataclass
class LstmWeights:
    """Packed LSTM parameters, gate order (i, f, g, o) along the last axis.

    w_x: (input_dim, 4*cell), w_h: (cell, 4*cell), bias: (4*cell,)
    """

    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray

    @property
    def cell_size(self) -> int:
        return self.w_h.shape[0]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over a 1-D array or the last axis of a 2-D array."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.shape[-1] != gain.shape[0] or gain.shape != bias.shape:
        raise ShapeError(
            f"layer_norm shapes disagree: x {x.shape}, gain {gain.shape}, "
            f"bias {bias.shape}"
        )
    if epsilon <= 0:
        raise ShapeError("epsilon must be positive")
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + epsilon) * gain + bias


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def lstm_cell_step(
    x_gates: np.ndarray, hidden: np.ndarray, cell: np.ndarray, weights: LstmWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for a stack of B rows: input gates (B, 4n), the
    inputs' share x @ weights.w_x, which a caller feeding the same inputs
    again can cache, and hidden/cell (B, n). Returns the new (hidden,
    cell); the output is the new hidden.

    Each row's recurrent product is its own gemv, (B, 1, n) @ (n, 4n), so
    a row has the bits of a step taken alone; a (B, n) gemm would not.
    """
    n = weights.cell_size
    B = x_gates.shape[0]
    if x_gates.shape != (B, 4 * n):
        raise ShapeError(f"input gates {x_gates.shape} != (rows, 4 x cell size {n})")
    if hidden.shape != (B, n) or cell.shape != (B, n):
        raise ShapeError(f"states {hidden.shape}/{cell.shape} != ({B}, cell size {n})")
    gates = x_gates + (hidden[:, None, :] @ weights.w_h)[:, 0] + weights.bias
    # one elementwise sigmoid over all four blocks (g's goes unused) has the
    # bits of one call per block, in a quarter of the calls
    s = sigmoid(gates)
    g = np.tanh(gates[:, 2 * n : 3 * n])
    c = s[:, n : 2 * n] * cell + s[:, :n] * g
    h = s[:, 3 * n :] * np.tanh(c)
    return h, c
