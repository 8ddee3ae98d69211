"""Flat-vector algebra: dot, norms, and the orthogonal rejection."""

import numpy as np
import pytest

from profit.errors import DimensionMismatchError
from profit.paramvec import (
    EPS_DEGENERATE,
    dot,
    norm,
    orthogonal_reject,
    sq_norm,
)


def test_dot_zero_vector_is_zero():
    assert dot(np.array([1, 2, 3], dtype=np.float64), np.array([0, 0, 0], dtype=np.float64)) == 0.0


def test_dot_orthogonal_pair_is_zero():
    assert dot(np.array([1, -1], dtype=np.float64), np.array([1, 1], dtype=np.float64)) == 0.0


def test_dot_hand_arithmetic():
    assert dot(np.array([2, 3], dtype=np.float64), np.array([4, -1], dtype=np.float64)) == 5.0


def test_dot_dimension_mismatch_names_both_sizes():
    with pytest.raises(DimensionMismatchError, match="3 vs 2"):
        dot(np.array([1, 2, 3], dtype=np.float64), np.array([1, 2], dtype=np.float64))


def test_dot_symmetric_and_bilinear():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        alpha = float(rng.standard_normal())
        assert dot(a, b) == dot(b, a)
        assert dot(alpha * a + c, b) == pytest.approx(
            alpha * dot(a, b) + dot(c, b), rel=1e-12, abs=1e-12
        )


def test_norms_match_numpy():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(17)
    assert sq_norm(v) == pytest.approx(float(v @ v), rel=1e-15)
    assert norm(v) == pytest.approx(float(np.linalg.norm(v)), rel=1e-15)
    assert isinstance(sq_norm(v), float)
    assert isinstance(norm(v), float)


def test_reject_hand_case():
    r = orthogonal_reject(np.array([1, -1], dtype=np.float64), np.array([0, 1], dtype=np.float64))
    assert not r.degenerate
    assert r.vector == pytest.approx([1.0, 0.0], abs=1e-15)


def test_reject_antiparallel_goes_to_zero():
    g = np.array([-2, 0], dtype=np.float64)
    r = orthogonal_reject(g, np.array([1, 0], dtype=np.float64))
    assert not r.degenerate
    assert r.vector == pytest.approx([0.0, 0.0], abs=1e-15)


def test_reject_zero_displacement_is_degenerate_passthrough():
    g = np.array([3, 4], dtype=np.float64)
    r = orthogonal_reject(g, np.array([0, 0], dtype=np.float64))
    assert r.degenerate
    assert np.array_equal(r.vector, g)
    # the passthrough is a private copy, not an alias of the input
    assert r.vector is not g


def test_reject_threshold_is_on_squared_norm():
    g = np.array([1.0, 1.0], dtype=np.float64)
    tiny = np.sqrt(EPS_DEGENERATE / 2.0) * 0.99
    assert orthogonal_reject(g, np.array([tiny, tiny], dtype=np.float64)).degenerate
    big = np.sqrt(EPS_DEGENERATE / 2.0) * 1.01
    assert not orthogonal_reject(g, np.array([big, big], dtype=np.float64)).degenerate


def test_reject_randomized_orthogonality_idempotence_nonexpansion():
    """1000 seeded pairs in dimensions up to 10**4."""
    rng = np.random.default_rng(2024)
    dims = rng.integers(1, 10_000, size=1000)
    for n in dims:
        g = rng.standard_normal(int(n))
        delta = rng.standard_normal(int(n))
        r = orthogonal_reject(g, delta)
        assert not r.degenerate
        # orthogonality, relative to the operand norms
        tol = 1e-10 * norm(r.vector) * norm(delta)
        assert abs(dot(r.vector, delta)) <= max(tol, 1e-300)
        # no lengthening (up to roundoff)
        assert norm(r.vector) <= norm(g) * (1.0 + 1e-12)
        # idempotence, elementwise
        r2 = orthogonal_reject(r.vector, delta)
        assert np.allclose(r2.vector, r.vector, rtol=0.0, atol=1e-12)


def test_reject_result_is_g_minus_projection():
    rng = np.random.default_rng(11)
    g = rng.standard_normal(64)
    delta = rng.standard_normal(64)
    expected = g - (np.dot(g, delta) / np.dot(delta, delta)) * delta
    r = orthogonal_reject(g, delta)
    assert np.array_equal(r.vector, expected)
