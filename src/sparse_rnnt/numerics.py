"""Dense numeric kernels: row_matmul, softmax, layer norm, sigmoid, LSTM cell step.

Array in, array out: everything here is pure, float64 and deterministic,
and holds no state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "LstmWeights",
    "row_matmul",
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


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, (..., k) by (..., k, m), each row of x its own gemv: a row has
    the bits of its product taken alone, which a (B, k) @ (k, m) gemm does
    not give. Beam 1 equal to greedy, cached child states and replayed runs
    rest on this. Pass a transposed or windowed w as the view it is: a
    contiguous copy can change the bits."""
    return (x[..., None, :] @ w)[..., 0, :]


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over a 1-D array or the last axis of a 2-D array."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


# added to the variance in layer_norm, so a constant row stays finite
_LAYER_NORM_EPSILON = 1e-6


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.shape[-1] != gain.shape[0] or gain.shape != bias.shape:
        raise ShapeError(
            f"layer_norm shapes disagree: x {x.shape}, gain {gain.shape}, "
            f"bias {bias.shape}"
        )
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LAYER_NORM_EPSILON) * gain + bias


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for large |x|; lstm_cell_step writes it out
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


# 0.5 and 1.0 as 0-d arrays: an in-place ufunc takes them on its fast path,
# where a Python float goes through a scalar conversion first
_HALF, _ONE = np.array(0.5), np.array(1.0)


def lstm_cell_step(
    x_gates: np.ndarray, hidden: np.ndarray, cell: np.ndarray, weights: LstmWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for a stack of B rows: input gates (B, 4n), the
    inputs' share x @ weights.w_x, which a caller feeding the same inputs
    again can cache, and hidden/cell (B, n). Returns the new (hidden,
    cell); the output is the new hidden.

    A row has the bits of a step taken alone (row_matmul). The arithmetic
    is that of x_gates + h @ w_h + bias, sigmoid and the cell update
    written out, done in place on the step's own temporaries (IEEE
    addition and multiplication commute), so no input is written.
    """
    n = weights.cell_size
    B = x_gates.shape[0]
    if x_gates.shape != (B, 4 * n):
        raise ShapeError(f"input gates {x_gates.shape} != (rows, 4 x cell size {n})")
    if hidden.shape != (B, n) or cell.shape != (B, n):
        raise ShapeError(f"states {hidden.shape}/{cell.shape} != ({B}, cell size {n})")
    gates = row_matmul(hidden, weights.w_h)
    gates += x_gates
    gates += weights.bias
    g = np.tanh(gates[:, 2 * n : 3 * n])
    # sigmoid(x) = 0.5 * (1 + tanh(0.5 * x)), once over all four blocks (g's
    # goes unused): the bits of one call per block, in a quarter of the calls
    gates *= _HALF
    np.tanh(gates, out=gates)
    gates += _ONE
    gates *= _HALF
    c = gates[:, n : 2 * n] * cell
    g *= gates[:, :n]
    c += g
    h = np.tanh(c)
    h *= gates[:, 3 * n :]
    return h, c
