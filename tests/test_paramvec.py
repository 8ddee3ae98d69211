"""Flat-vector algebra: dot, norms, and the orthogonal rejection."""

import numpy as np
import pytest

from profit.errors import DimensionMismatchError, NonFiniteError
from profit.paramvec import (
    EPS_DEGENERATE,
    as_vector,
    dot,
    norm,
    orthogonal_reject,
    sq_norm,
)


def test_as_vector_coerces_lists_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_matrices_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(NonFiniteError):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_vector([np.inf, 0.0])


def test_dot_zero_vector_is_zero():
    assert dot(as_vector([1, 2, 3]), as_vector([0, 0, 0])) == 0.0


def test_dot_orthogonal_pair_is_zero():
    assert dot(as_vector([1, -1]), as_vector([1, 1])) == 0.0


def test_dot_hand_arithmetic():
    assert dot(as_vector([2, 3]), as_vector([4, -1])) == 5.0


def test_dot_dimension_mismatch_names_both_sizes():
    with pytest.raises(DimensionMismatchError, match="3 vs 2"):
        dot(as_vector([1, 2, 3]), as_vector([1, 2]))


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
    r = orthogonal_reject(as_vector([1, -1]), as_vector([0, 1]))
    assert not r.degenerate
    assert r.vector == pytest.approx([1.0, 0.0], abs=1e-15)


def test_reject_antiparallel_goes_to_zero():
    r = orthogonal_reject(as_vector([-2, 0]), as_vector([1, 0]))
    assert not r.degenerate
    assert r.vector == pytest.approx([0.0, 0.0], abs=1e-15)


def test_reject_zero_displacement_is_degenerate_passthrough():
    g = as_vector([3, 4])
    r = orthogonal_reject(g, as_vector([0, 0]))
    assert r.degenerate
    assert np.array_equal(r.vector, g)
    # the passthrough is a private copy, not an alias of the input
    assert r.vector is not g


def test_reject_threshold_is_on_squared_norm():
    g = as_vector([1.0, 1.0])
    tiny = np.sqrt(EPS_DEGENERATE / 2.0) * 0.99
    assert orthogonal_reject(g, as_vector([tiny, tiny])).degenerate
    big = np.sqrt(EPS_DEGENERATE / 2.0) * 1.01
    assert not orthogonal_reject(g, as_vector([big, big])).degenerate


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
