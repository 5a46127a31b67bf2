"""Seeded random instances for verification sweeps and property tests.

Structure functions are polynomials of bounded total degree with coefficients
uniform in [-1, 1]; dimensions stay small (n <= 3, m <= 3) so every structural
check runs at desk scale.  A tensor's coefficients are one draw, packed
directly; the stream is consumed as by one draw per component, so the
coefficients do not depend on the packing.  A tensor is born with its value
table, a phase function with its gradient table and a split's Dr with its
value table, from exponent tables and monomial merges built once per process.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebroid import AlgebroidStructure
from .connections import ConnectionPair
from .fields import TensorField, _derivative_terms, _merge_monomials


def poly_exponents(arity, degree):
    """All exponent vectors of the given arity with total degree <= degree."""
    out = []
    for exp in itertools.product(range(degree + 1), repeat=arity):
        if sum(exp) <= degree:
            out.append(list(exp))
    return out if arity else [[]]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# the degree of each exponent array of _dense_terms, by id: the cache keeps every one alive
_DENSE_DEGREE = {}


@functools.lru_cache(maxsize=None)
def _dense_terms(size, arity, degree):
    """Read-only ``(rows, exps, E)``: ``size`` entries that each hold every monomial of
    ``E`` (:func:`poly_exponents`) in its order, built once per (size, arity, degree).
    """
    E = np.array(poly_exponents(arity, degree), dtype=int)
    terms = np.repeat(np.arange(size), E.shape[0]), np.tile(E, (size, 1)), E.astype(float)
    _DENSE_DEGREE[id(terms[1])] = degree
    return _read_only(*terms)


@functools.lru_cache(maxsize=None)
def _merged(size, arity, degrees, derivatives=False):
    """Read-only ``_merge_monomials`` of the exponents of the dense terms of each
    degree in turn (of their first derivatives), built once per arguments.
    """
    exps = np.concatenate([_dense_terms(size, arity, d)[1] for d in degrees])
    if derivatives:
        exps = _derivative_terms(np.zeros(exps.shape[0]), exps)[3]
    return _read_only(*_merge_monomials(exps))


def random_polynomial_tensor(rng, shape, arity, degree) -> TensorField:
    """Every entry a random polynomial field, the entries' coefficients in one draw.

    Each entry holds every monomial, distinct and sorted: the value table is the draw.
    """
    size = math.prod(shape)
    rows, exps, E = _dense_terms(size, arity, degree)
    coefs = rng.uniform(-1.0, 1.0, size=rows.shape[0])
    F = TensorField._packed(shape, arity, rows, coefs, exps)
    if F._const is None:
        F._Ev, F._Cv = E, coefs.reshape(size, E.shape[0])
    return F


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
    """A random polynomial over the (q, p) chart, born with its gradient table."""
    H = random_polynomial_tensor(rng, (), n + m, degree)
    if H._const is None:
        H._gradient_table(_merged(1, n + m, (degree,), derivatives=True))
    return H


def random_valid_split(rng, A: AlgebroidStructure, degree=1) -> ConnectionPair:
    """A random connection pair splitting A's bracket exactly.

    Dl is free; Dr is forced by Dr[c,a,b] = Dl[c,b,a] - B[c,b,a], which is
    exact polynomial arithmetic, so the split residual is zero to rounding.
    """
    Dl = random_polynomial_tensor(rng, (A.m,) * 3, A.n, degree)
    Dr = Dl.scaled(1.0, (0, 2, 1)) + A.bracket.scaled(-1.0, (0, 2, 1))
    # Dr's exponents are Dl's, then the bracket's: for a random bracket their merge is cached
    bracket_degree = _DENSE_DEGREE.get(id(A.bracket._terms[2])) if Dr._terms is not None else None
    if Dr._const is None and bracket_degree is not None:
        Dr._value_table(_merged(A.m**3, A.n, (degree, bracket_degree)))
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
