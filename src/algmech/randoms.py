"""Seeded random instances for verification sweeps and property tests.

Structure functions are polynomials of bounded total degree with coefficients
uniform in [-1, 1]; dimensions stay small (n <= 3, m <= 3) so every structural
check runs at desk scale.  A tensor's coefficients are one draw, packed
directly (``TensorField.from_terms``); the stream is consumed as by one draw
per component, so the coefficients do not depend on the packing.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebroid import AlgebroidStructure
from .connections import ConnectionPair
from .fields import TensorField


def poly_exponents(arity, degree):
    """All exponent vectors of the given arity with total degree <= degree."""
    out = []
    for exp in itertools.product(range(degree + 1), repeat=arity):
        if sum(exp) <= degree:
            out.append(list(exp))
    return out if arity else [[]]


@functools.lru_cache(maxsize=None)
def _exponent_table(arity, degree) -> np.ndarray:
    """:func:`poly_exponents` as a read-only [T, arity] array, built once per (arity, degree)."""
    exps = poly_exponents(arity, degree)
    table = np.array(exps, dtype=int).reshape(len(exps), arity)
    table.flags.writeable = False
    return table


def random_polynomial_tensor(rng, shape, arity, degree) -> TensorField:
    """Every entry a random polynomial field, the entries' coefficients in one draw."""
    exps = _exponent_table(arity, degree)
    size, T = math.prod(shape), exps.shape[0]
    coefs = rng.uniform(-1.0, 1.0, size=size * T)
    rows = np.repeat(np.arange(size), T)
    return TensorField.from_terms(rows, coefs, np.tile(exps, (size, 1)), shape, arity)


def random_algebroid(rng, n=None, m=None, degree=2) -> AlgebroidStructure:
    """A generic algebroid: no skewness, unequal anchors, polynomial data."""
    if n is None:
        n = int(rng.integers(0, 4))
    if m is None:
        m = int(rng.integers(1, 4))
    return AlgebroidStructure(
        n=n,
        m=m,
        bracket=random_polynomial_tensor(rng, (m, m, m), n, degree),
        anchor_left=random_polynomial_tensor(rng, (n, m), n, degree),
        anchor_right=random_polynomial_tensor(rng, (n, m), n, degree),
    )


def random_phase_function(rng, n, m, degree=3) -> TensorField:
    return random_polynomial_tensor(rng, (), n + m, degree)


def random_valid_split(rng, A: AlgebroidStructure, degree=1) -> ConnectionPair:
    """A random connection pair splitting A's bracket exactly.

    Dl is free; Dr is forced by Dr[c,a,b] = Dl[c,b,a] - B[c,b,a], which is
    exact polynomial arithmetic, so the split residual is zero to rounding.
    """
    Dl = random_polynomial_tensor(rng, (A.m,) * 3, A.n, degree)
    Dr = Dl.scaled(1.0, (0, 2, 1)) + A.bracket.scaled(-1.0, (0, 2, 1))
    return ConnectionPair(Dl=Dl, Dr=Dr)


def random_curvature(rng, m, arity, degree=1) -> TensorField:
    return random_polynomial_tensor(rng, (m, m, m, m), arity, degree)


def random_phase_point(rng, n, m, scale=1.0):
    return rng.uniform(-scale, scale, size=n), rng.uniform(-scale, scale, size=m)


def random_phase_points(rng, n, m, count, scale=1.0):
    """``count`` points in one draw: q[count, n], p[count, m].

    The stream is consumed as by ``count`` calls of :func:`random_phase_point`
    (q, then p, per point), so the points are the same.
    """
    z = rng.uniform(-scale, scale, size=(count, n + m))
    return z[:, :n], z[:, n:]
