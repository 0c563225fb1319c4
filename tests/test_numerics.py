import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparse_rnnt.errors import ShapeError
from sparse_rnnt.numerics import (
    LstmWeights,
    layer_norm,
    lstm_cell_step,
    row_matmul,
    sigmoid,
)


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(row_matmul(np.eye(2), a), a)

    def test_hand_case(self):
        out = row_matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_naive_oracle(self, rng):
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        assert np.allclose(row_matmul(a, b), naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_associativity_tolerance(self, rng):
        a, b, c = (rng.uniform(-1, 1, size=(8, 8)) for _ in range(3))
        lhs = row_matmul(row_matmul(a, b), c)
        rhs = row_matmul(a, row_matmul(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_pure_and_deterministic(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        assert np.array_equal(row_matmul(a, b), row_matmul(a, b))

    def test_a_vector_has_the_bits_of_x_at_w(self, rng):
        x, w = rng.normal(size=37), rng.normal(size=(37, 11))
        assert np.array_equal(row_matmul(x, w), x @ w)

    @given(B=st.integers(1, 8), k=st.integers(1, 40), m=st.integers(1, 40),
           lead=st.lists(st.integers(1, 3), max_size=2),
           kind=st.sampled_from(["shared", "transposed", "per_row", "window",
                                 "window_t"]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_row_is_its_lone_product(self, B, k, m, lead, kind, seed):
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        if kind == "shared":
            w = rng.normal(size=(k, m))
        elif kind == "transposed":
            w = rng.normal(size=(m, k)).T
        elif kind == "per_row":
            w = rng.normal(size=(*lead, B, k, m))
        else:
            # as _Window.of: each row's block is a window of one (..., T, d)
            # array, which _attend reads as it is and BandScores transposed
            n, d = (k, m) if kind == "window" else (m, k)
            base = rng.normal(size=(*lead, B + n + 2, d))
            windows = np.lib.stride_tricks.sliding_window_view(base, n, axis=-2)
            w = windows[..., 1 : 1 + B, :, :].swapaxes(-1, -2)
            if kind == "window_t":
                w = w.swapaxes(-1, -2)
        x = rng.normal(size=(*lead, B, k))
        out = row_matmul(x, w)
        assert out.shape == (*lead, B, m)
        for idx in np.ndindex(*lead, B):
            lone = x[idx] @ (w if w.ndim == 2 else w[idx])
            assert np.array_equal(out[idx], lone)


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = np.full(10, 3.7)
        out = layer_norm(x, np.ones(10), np.zeros(10))
        assert np.allclose(out, 0.0)

    def test_two_point_closed_form(self):
        out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        assert np.allclose(out, [1.0, -1.0], atol=1e-3)

    def test_bias_only(self, rng):
        x = rng.normal(size=6)
        bias = rng.normal(size=6)
        out = layer_norm(x, np.zeros(6), bias)
        assert np.array_equal(out, bias)

    def test_rowwise_matches_vector(self, rng):
        x = rng.normal(size=(3, 5))
        g = rng.normal(size=5)
        b = rng.normal(size=5)
        rows = np.stack([layer_norm(r, g, b) for r in x])
        assert np.array_equal(layer_norm(x, g, b), rows)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros(3), np.zeros(4), np.zeros(4))


def scalar_lstm_oracle(x, h, c, wx, wh, b):
    """Six gate equations evaluated with plain floats for a 1-unit cell."""
    import math

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    i = sig(x * wx[0] + h * wh[0] + b[0])
    f = sig(x * wx[1] + h * wh[1] + b[1])
    g = math.tanh(x * wx[2] + h * wh[2] + b[2])
    o = sig(x * wx[3] + h * wh[3] + b[3])
    c_new = f * c + i * g
    h_new = o * math.tanh(c_new)
    return h_new, c_new


class TestLstmCell:
    def test_zero_weights_zero_state(self, rng):
        w = LstmWeights(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        zero = np.zeros((1, 2))
        out, cell = lstm_cell_step((rng.normal(size=3) @ w.w_x)[None], zero, zero, w)
        assert np.array_equal(out, zero)
        assert np.array_equal(cell, zero)

    def test_single_unit_matches_scalar_oracle(self):
        wx = [0.3, -0.2, 0.5, 0.1]
        wh = [0.4, 0.25, -0.6, 0.05]
        b = [0.01, -0.02, 0.03, -0.04]
        w = LstmWeights(np.array([wx]), np.array([wh]), np.array(b))
        x, h, c = 0.7, -0.3, 0.9
        out, cell = lstm_cell_step(np.array([[x]]) @ w.w_x, np.array([[h]]),
                                   np.array([[c]]), w)
        h_ref, c_ref = scalar_lstm_oracle(x, h, c, wx, wh, b)
        assert abs(out[0, 0] - h_ref) < 1e-12
        assert abs(cell[0, 0] - c_ref) < 1e-12

    def test_deterministic(self, rng):
        w = LstmWeights(rng.normal(size=(3, 8)), rng.normal(size=(2, 8)),
                        rng.normal(size=8))
        x = rng.normal(size=(1, 3)) @ w.w_x
        h, c = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        o1, c1 = lstm_cell_step(x, h, c, w)
        o2, c2 = lstm_cell_step(x, h, c, w)
        assert np.array_equal(o1, o2)
        assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("n", [1, 4, 16, 33])
    def test_stacked_rows_match_lone_rows(self, rng, n):
        # each row's recurrent product is its own gemv, so a stack of B rows
        # gives every row the bits of the step taken on it alone
        w = LstmWeights(rng.normal(size=(5, 4 * n)), rng.normal(size=(n, 4 * n)),
                        rng.normal(size=4 * n))
        for B in range(1, 9):
            x = rng.normal(size=(B, 5)) @ w.w_x
            h, c = rng.normal(size=(B, n)), rng.normal(size=(B, n))
            out, cell = lstm_cell_step(x, h, c, w)
            for r in range(B):
                o1, c1 = lstm_cell_step(x[r : r + 1], h[r : r + 1], c[r : r + 1], w)
                assert np.array_equal(out[r], o1[0])
                assert np.array_equal(cell[r], c1[0])

    def test_dimension_mismatch(self):
        w = LstmWeights(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        zero = np.zeros((1, 2))
        with pytest.raises(ShapeError):
            lstm_cell_step(np.zeros((1, 4)), zero, zero, w)
        with pytest.raises(ShapeError):
            lstm_cell_step(np.zeros((2, 8)), zero, zero, w)
        with pytest.raises(ShapeError):
            lstm_cell_step(np.zeros((1, 8)), zero, np.zeros((1, 3)), w)
