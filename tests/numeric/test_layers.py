"""Finite-difference and invariant tests for the numpy layers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.numeric.layers import (
    Dense,
    Embedding,
    LayerNorm,
    _cube,
    cross_entropy,
    gelu,
    gelu_grad,
    softmax,
)
from repro.tensors.workspace import ActivationWorkspace


def fd_check(f, x, analytic, eps=1e-4, tol=2e-3):
    """Central finite differences over a few random coordinates."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        fd = (fp - fm) / (2 * eps)
        assert abs(fd - analytic[idx]) <= tol * max(1.0, abs(fd)), idx


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 9)).astype(np.float32)
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_handles_large_values(self):
        p = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


class TestGelu:
    def test_known_values(self):
        assert gelu(np.array(0.0)) == 0.0
        assert gelu(np.array(10.0)) == pytest.approx(10.0, rel=1e-4)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-3)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=30)
    def test_grad_matches_finite_difference(self, x):
        eps = 1e-5
        fd = (gelu(np.array(x + eps)) - gelu(np.array(x - eps))) / (2 * eps)
        assert gelu_grad(np.array(x)) == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("fn", [gelu, gelu_grad])
    def test_workspace_path_is_bitwise_plain(self, rng, fn):
        x = (3 * rng.standard_normal((4, 33, 24))).astype(np.float32)
        ws = ActivationWorkspace()
        got = fn(x, ws)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, fn(x))

    @pytest.mark.parametrize("fn", [gelu, gelu_grad])
    def test_workspace_path_steady_state_allocates_nothing(self, rng, fn):
        x = rng.standard_normal((8, 24)).astype(np.float32)
        ws = ActivationWorkspace()
        fn(x, ws)
        ws.new_step()
        allocs = ws.alloc_count
        fn(x, ws)
        assert ws.alloc_count == allocs


class TestCube:
    """GELU's cube: an fp64 product rounded once to the input dtype."""

    @staticmethod
    def exact(x: np.ndarray) -> np.ndarray:
        # The exact rational cube, rounded through float (as fp64) to fp32.
        return np.array(
            [np.float32(Fraction(float(v)) ** 3) for v in x],
            dtype=np.float32,
        )

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_matches_exact_rational_cube(self, rng, with_ws):
        x = np.concatenate([
            rng.standard_normal(2000),
            rng.uniform(-1e4, 1e4, 1000),
            rng.uniform(-1e-10, 1e-10, 1000),
        ]).astype(np.float32)
        ws = ActivationWorkspace() if with_ws else None
        np.testing.assert_array_equal(_cube(x, ws), self.exact(x))

    def test_edge_cases(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        finite = np.array(
            [0.0, -0.0, tiny, -tiny, 1e-39, -1e-39, 1e-13, 2.0e12,
             -2.0e12, 1e13, -1e13, np.finfo(np.float32).max],
            dtype=np.float32,
        )
        with np.errstate(over="ignore"):
            got = _cube(finite)
            want = self.exact(finite)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(finite))
        assert np.isinf(got[-3:]).all() and got[-2] < 0
        special = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        np.testing.assert_array_equal(
            _cube(special), np.array([np.inf, -np.inf, np.nan], np.float32)
        )

    def test_within_one_ulp_of_power(self, rng):
        x = rng.standard_normal(1 << 20).astype(np.float32)
        ours = _cube(x).view(np.int32).astype(np.int64)
        libm = np.power(x, 3).view(np.int32).astype(np.int64)
        assert np.abs(ours - libm).max() <= 1

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_keeps_input_dtype(self, rng, dtype):
        x = rng.standard_normal(64).astype(dtype)
        assert _cube(x).dtype == dtype
        assert _cube(x, ActivationWorkspace()).dtype == dtype


class TestDense:
    def test_forward_shape_and_value(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        y, _ = Dense.forward(x, w, b)
        assert y.shape == (2, 3, 5)
        np.testing.assert_allclose(y, x @ w + b)

    def test_backward_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        dy = rng.standard_normal((2, 3, 5))

        def loss():
            return float((Dense.forward(x, w, b)[0] * dy).sum())

        _, cache = Dense.forward(x, w, b)
        dx, dw, db = Dense.backward(dy, cache)
        fd_check(loss, x, dx)
        fd_check(loss, w, dw)
        fd_check(loss, b, db)


class TestLayerNorm:
    def test_output_normalized_with_unit_gain(self, rng):
        x = rng.standard_normal((4, 16)) * 5 + 3
        y, _ = LayerNorm.forward(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-3)

    def test_backward_gradients(self, rng):
        x = rng.standard_normal((3, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        dy = rng.standard_normal((3, 8))

        def loss():
            return float((LayerNorm.forward(x, g, b)[0] * dy).sum())

        _, cache = LayerNorm.forward(x, g, b)
        dx, dg, db = LayerNorm.backward(dy, cache)
        fd_check(loss, x, dx)
        fd_check(loss, g, dg)
        fd_check(loss, b, db)


class TestEmbedding:
    def test_lookup(self, rng):
        table = rng.standard_normal((10, 4))
        ids = np.array([[1, 3], [0, 9]])
        y, _ = Embedding.forward(ids, table)
        np.testing.assert_array_equal(y[0, 1], table[3])

    def test_out_of_range_rejected(self, rng):
        table = rng.standard_normal((10, 4))
        with pytest.raises(IndexError):
            Embedding.forward(np.array([[10]]), table)

    def test_backward_scatter_adds_duplicates(self, rng):
        table = rng.standard_normal((5, 3))
        ids = np.array([[2, 2, 1]])
        _, cache = Embedding.forward(ids, table)
        dy = np.ones((1, 3, 3))
        dtable = Embedding.backward(dy, cache)
        np.testing.assert_allclose(dtable[2], 2.0)
        np.testing.assert_allclose(dtable[1], 1.0)
        np.testing.assert_allclose(dtable[0], 0.0)


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((2, 3, 7), dtype=np.float32)
        targets = np.zeros((2, 3), dtype=np.int64)
        loss, _ = cross_entropy(logits, targets)
        assert loss == pytest.approx(np.log(7))

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = rng.standard_normal((2, 4, 9)).astype(np.float32)
        targets = rng.integers(0, 9, size=(2, 4))
        _, dlogits = cross_entropy(logits, targets)
        np.testing.assert_allclose(dlogits.sum(axis=-1), 0, atol=1e-6)

    def test_gradient_finite_difference(self, rng):
        logits = rng.standard_normal((1, 2, 5)).astype(np.float64)
        targets = rng.integers(0, 5, size=(1, 2))

        def loss():
            return cross_entropy(logits, targets)[0]

        _, d = cross_entropy(logits, targets)
        fd_check(loss, logits, d, eps=1e-5, tol=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3, 5)), np.zeros((2, 4), dtype=int))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((1, 1, 4), -30.0, dtype=np.float64)
        logits[0, 0, 2] = 30.0
        loss, _ = cross_entropy(logits, np.array([[2]]))
        assert loss < 1e-6
