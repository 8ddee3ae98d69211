"""Flat parameter-vector algebra.

A parameter vector is a 1-D float64 numpy array: the single currency passed
between the model, the optimizers, and the projection logic.  All arithmetic
is 64-bit; the orthogonality tolerances used elsewhere (1e-10 relative) are
not reachable in 32-bit.
"""

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError

# Squared-norm threshold below which a displacement carries no usable
# direction and projection falls back to the identity.
EPS_DEGENERATE = 1e-24


def check_same_dim(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"{op}: dimension mismatch ({a.shape[0]} vs {b.shape[0]})"
        )


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two equal-length vectors."""
    check_same_dim(a, b, "dot")
    return float(np.dot(a, b))


def sq_norm(a: np.ndarray) -> float:
    return float(np.dot(a, a))


def norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


class Rejection(NamedTuple):
    vector: np.ndarray
    degenerate: bool


def orthogonal_reject(
    g: np.ndarray,
    delta: np.ndarray,
    out: np.ndarray | None = None,
    dd: float | None = None,
    gd: float | None = None,
) -> Rejection:
    """Remove from ``g`` its component along ``delta``.

    Returns ``g - (<g, delta> / <delta, delta>) * delta``, the part of ``g``
    lying in the plane normal to ``delta``.  When ``delta`` is degenerate
    (squared norm below ``EPS_DEGENERATE``) there is no direction to reject
    against; the result is then a copy of ``g``, with ``degenerate=True`` so
    callers can recover rather than divide by ~0.

    The result is written to ``out`` when given (it must not be ``g`` or
    ``delta``), else to a new array; ``g`` and ``delta`` are only read.
    ``dd = <delta, delta>`` and ``gd = <g, delta>`` may be passed in when the
    caller already holds them; they must be the values ``dot`` gives.
    """
    check_same_dim(g, delta, "orthogonal_reject")
    if out is None:
        out = np.empty_like(g)
    if dd is None:
        dd = sq_norm(delta)
    if dd < EPS_DEGENERATE:
        np.copyto(out, g)
        return Rejection(out, True)
    if gd is None:
        gd = dot(g, delta)
    np.multiply(delta, gd / dd, out=out)
    return Rejection(np.subtract(g, out, out=out), False)
