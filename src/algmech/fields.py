"""Smooth scalar and tensor fields over a coordinate chart.

Every coordinate-dependent coefficient in the library (structure functions,
metrics, Hamiltonians, Christoffel symbols) is a :class:`SmoothField`: a real
function of the chart coordinates that can also report its first-derivative
jet.  Three flavours exist:

* polynomial fields, with exact evaluation and exact gradients;
* builtin fields, named closures registered in code (``sin``, ``cos``, ...);
* finite-difference wrapped fields, any evaluable closure whose gradient is
  taken by central differences with step ``h``.

Linear combinations of fields keep exact gradients (the jet is linear), so
derived coefficients like differences of Christoffel tensors stay as accurate
as their ingredients.

Polynomial data is compiled: a field builds the monomial table of its first
derivatives on its first gradient, and a :class:`TensorField` packs all of its
polynomial components into one shared monomial table and one coefficient
matrix, so a value or a whole jet costs a fixed handful of array operations.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InputError, NumericError

DEFAULT_FD_STEP = 1e-5


def fd_default_step() -> float:
    """Default central-difference step; ``ALGMECH_FD_STEP`` overrides it."""
    raw = os.environ.get("ALGMECH_FD_STEP")
    if raw is None:
        return DEFAULT_FD_STEP
    try:
        h = float(raw)
    except ValueError as exc:
        raise InputError(f"ALGMECH_FD_STEP is not a number: {raw!r}") from exc
    if h <= 0:
        raise InputError("ALGMECH_FD_STEP must be positive")
    return h


def _check_point(q, arity):
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != arity:
        raise InputError(f"point has length {q.shape[0]}, field arity is {arity}")
    if not np.isfinite(q).all():
        raise InputError("point has non-finite entries")
    return q


def _monomials(q, E):
    """Values of the monomials q**E[t] for every row t of the table E."""
    return np.multiply.reduce(q ** E, axis=1)


def _derivative_terms(coefs, exps):
    """First derivatives of the terms ``coefs[t] * q**exps[t]``.

    Returns ``(t, i, dcoefs, dexps)``: for each pair with ``exps[t, i] > 0``,
    d/dq_i of term t is ``dcoefs * q**dexps``.
    """
    t, i = np.nonzero(exps)
    dexps = exps[t]
    dexps[np.arange(t.shape[0]), i] -= 1
    return t, i, coefs[t] * exps[t, i], dexps


def memoized_on_point(fn, maxsize=16384):
    """Cache a pure array-to-result function on the point's byte image.

    Evaluation closures in this library are pure, so different components of
    one tensor (and repeated finite-difference shifts) can share a single
    pointwise computation.  The cache is cleared wholesale when full.
    """
    cache = {}

    def wrapped(q):
        q = np.asarray(q, dtype=float)
        key = q.tobytes()
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= maxsize:
                cache.clear()
            hit = fn(q)
            cache[key] = hit
        return hit

    return wrapped


class SmoothField:
    """Scalar function of ``arity`` chart coordinates with a first-derivative jet.

    ``kind`` is one of ``"polynomial"``, ``"builtin"``, ``"fd"`` or
    ``"composite"`` (linear combination of other fields).  A polynomial keeps
    its terms ``(coefs[T], exps[T, arity])`` and, from its first gradient on,
    the table of its derivative monomials ``_dexps[K, arity]`` with
    coefficients ``_dcoefs[arity, K]``.
    """

    __slots__ = ("arity", "kind", "_terms", "_dexps", "_dcoefs", "_fn", "_grad", "_h", "name")

    def __init__(self, arity, kind, terms=None, fn=None, grad=None, h=None, name=None):
        self.arity = int(arity)
        self.kind = kind
        self._terms = terms
        self._dexps = self._dcoefs = None
        self._fn = fn
        self._grad = grad
        self._h = h
        self.name = name

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, terms, arity) -> "SmoothField":
        """Field Σ coef · Π q_i^{e_i} from ``terms = [(coef, exponent_vector), ...]``."""
        arity = int(arity)
        if arity < 0:
            raise InputError("arity must be >= 0")
        terms = list(terms)
        exps = [np.asarray(exp, dtype=int).reshape(-1) for _, exp in terms]
        for exp in exps:
            if exp.shape[0] != arity:
                raise InputError(
                    f"exponent vector {exp.tolist()} has length {exp.shape[0]}, arity is {arity}"
                )
        exps = np.array(exps, dtype=int).reshape(len(terms), arity)
        if np.any(exps < 0):
            raise InputError("exponents must be >= 0")
        coefs = np.array([float(coef) for coef, _ in terms], dtype=float)
        if not np.isfinite(coefs).all():
            raise InputError("coefficients must be finite")
        return cls._from_arrays(coefs, exps, arity)

    @classmethod
    def _from_arrays(cls, coefs, exps, arity) -> "SmoothField":
        """Polynomial from validated ``coefs[T]`` and ``exps[T, arity]``."""
        return cls(arity, "polynomial", terms=(coefs, exps))

    def _derivative_table(self):
        """Build ``_dexps``/``_dcoefs`` on the first standalone gradient.

        Components of a packed tensor are differentiated through the tensor's
        own table, so most polynomials never need theirs.
        """
        coefs, exps = self._terms
        _, i, dcoefs, self._dexps = _derivative_terms(coefs, exps)
        self._dcoefs = np.zeros((self.arity, i.shape[0]))
        self._dcoefs[i, np.arange(i.shape[0])] = dcoefs

    @classmethod
    def constant(cls, value, arity) -> "SmoothField":
        value = float(value)
        if value == 0.0:
            return cls.polynomial([], arity)
        return cls.polynomial([(value, [0] * arity)], arity)

    @classmethod
    def zero(cls, arity) -> "SmoothField":
        return cls.polynomial([], arity)

    @classmethod
    def coordinate(cls, index, arity) -> "SmoothField":
        """The chart coordinate q_index as a field."""
        exp = [0] * arity
        exp[index] = 1
        return cls.polynomial([(1.0, exp)], arity)

    @classmethod
    def from_callable(cls, fn, arity, grad=None, h=None, name=None) -> "SmoothField":
        """Wrap ``fn(q) -> float``; gradient analytic if ``grad`` given, else FD."""
        kind = "builtin" if grad is not None else "fd"
        if grad is None and h is None:
            h = fd_default_step()
        return cls(int(arity), kind, fn=fn, grad=grad, h=h, name=name)

    @classmethod
    def builtin(cls, name, h=None) -> "SmoothField":
        """Look up a code-registered named closure; gradient by central differences."""
        try:
            fn, arity = _BUILTINS[name]
        except KeyError as exc:
            raise InputError(f"unknown builtin field {name!r}") from exc
        if h is None:
            h = fd_default_step()
        return cls(arity, "builtin", fn=fn, h=float(h), name=name)

    # -- evaluation ---------------------------------------------------------

    def value(self, q) -> float:
        q = _check_point(q, self.arity)
        v = self._value(q)
        if not math.isfinite(v):
            raise NumericError(f"field evaluated to non-finite value at {q.tolist()}")
        return v

    def gradient(self, q) -> np.ndarray:
        q = _check_point(q, self.arity)
        g = self._gradient(q)
        if not np.isfinite(g).all():
            raise NumericError(f"field gradient non-finite at {q.tolist()}")
        return g

    def eval(self, q):
        """Return ``(value, gradient)`` at ``q``."""
        return self.value(q), self.gradient(q)

    def __call__(self, q) -> float:
        return self.value(q)

    def _value(self, q):
        if self.kind == "polynomial":
            coefs, exps = self._terms
            return float(coefs @ _monomials(q, exps))
        if self.kind == "composite":
            return float(sum(w * f._value(q) for w, f in self._terms))
        return float(self._fn(q))

    def _gradient(self, q):
        n = self.arity
        if self.kind == "polynomial":
            if self._dexps is None:
                self._derivative_table()
            return self._dcoefs @ _monomials(q, self._dexps)
        if self.kind == "composite":
            g = np.zeros(n)
            for w, f in self._terms:
                g += w * f._gradient(q)
            return g
        if self._grad is not None:
            return np.asarray(self._grad(q), dtype=float).reshape(n)
        # central differences: (f(q+h e_i) - f(q-h e_i)) / 2h
        h = self._h if self._h is not None else fd_default_step()
        g = np.zeros(n)
        for i in range(n):
            qp = q.copy()
            qm = q.copy()
            qp[i] += h
            qm[i] -= h
            g[i] = (self._fn(qp) - self._fn(qm)) / (2.0 * h)
        return g

    # -- algebra (linear combinations keep exact jets) ----------------------

    def _lincomb(self, other, w_self, w_other):
        if not isinstance(other, SmoothField):
            raise TypeError("can only combine SmoothField with SmoothField")
        if other.arity != self.arity:
            raise InputError("field arities differ")
        if self.kind == "polynomial" and other.kind == "polynomial":
            c1, e1 = self._terms
            c2, e2 = other._terms
            return SmoothField._from_arrays(
                np.concatenate([w_self * c1, w_other * c2]), np.vstack([e1, e2]), self.arity
            )
        return SmoothField(
            self.arity, "composite", terms=((w_self, self), (w_other, other))
        )

    def __add__(self, other):
        return self._lincomb(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._lincomb(other, 1.0, -1.0)

    def __neg__(self):
        return self.scaled(-1.0)

    def scaled(self, w) -> "SmoothField":
        w = float(w)
        if self.kind == "polynomial":
            coefs, exps = self._terms
            return SmoothField._from_arrays(w * coefs, exps, self.arity)
        return SmoothField(self.arity, "composite", terms=((w, self),))

    def __mul__(self, w):
        return self.scaled(w)

    __rmul__ = __mul__

    # -- serialization (polynomial and builtin kinds only) -------------------

    def as_config(self):
        if self.kind == "polynomial":
            coefs, exps = self._terms
            return {
                "arity": self.arity,
                "terms": [
                    {"coef": float(c), "exp": [int(e) for e in row]}
                    for c, row in zip(coefs, exps)
                ],
            }
        if self.kind == "builtin" and self.name is not None:
            return {"arity": self.arity, "builtin": self.name, "h": self._h}
        raise InputError(f"field of kind {self.kind!r} is not serializable")

    def __repr__(self):
        return f"SmoothField(arity={self.arity}, kind={self.kind!r})"


def field_from_polynomial(terms, arity) -> SmoothField:
    """Polynomial field from ``[(coefficient, exponent_vector), ...]``."""
    return SmoothField.polynomial(terms, arity)


def field_from_config(obj) -> SmoothField:
    """Parse the structured config form of a field.

    Accepts a plain number (constant of unknown arity is not allowed, so
    numbers are only valid where the caller supplies arity via
    :func:`field_from_config_with_arity`), or a dict with either ``terms``
    (polynomial) or ``builtin``.
    """
    if not isinstance(obj, dict):
        raise InputError(f"field config must be an object, got {type(obj).__name__}")
    if "arity" not in obj:
        raise InputError("field config missing 'arity'")
    arity = obj["arity"]
    if "builtin" in obj:
        return SmoothField.builtin(obj["builtin"], h=obj.get("h"))
    terms = [(t["coef"], t["exp"]) for t in obj.get("terms", [])]
    return SmoothField.polynomial(terms, arity)


def field_from_config_with_arity(obj, arity) -> SmoothField:
    """Like :func:`field_from_config` but numbers mean constants of ``arity``."""
    if isinstance(obj, (int, float)):
        return SmoothField.constant(obj, arity)
    f = field_from_config(obj)
    if f.arity != arity:
        raise InputError(f"field arity {f.arity} does not match expected {arity}")
    return f


_BUILTINS = {}


def register_builtin(name, fn, arity=1):
    """Register a named closure usable as ``SmoothField.builtin(name)``."""
    _BUILTINS[name] = (fn, int(arity))


register_builtin("sin", lambda q: math.sin(q[0]))
register_builtin("cos", lambda q: math.cos(q[0]))
register_builtin("exp", lambda q: math.exp(q[0]))


def _merge_monomials(E):
    """Distinct rows of the exponent table ``E`` and each row's position among them."""
    if E.shape[1] == 0:  # over a point every monomial is 1
        return E[:1], np.zeros(E.shape[0], dtype=np.intp)
    E = np.ascontiguousarray(E)
    rows = E.view(np.dtype((np.void, E.dtype.itemsize * E.shape[1]))).reshape(-1)
    distinct, where = np.unique(rows, return_inverse=True)
    return distinct.view(E.dtype).reshape(-1, E.shape[1]), where.reshape(-1)


def _jet_table(rows, coefs, exps, size, arity):
    """Pack polynomial terms into one monomial table and one coefficient matrix.

    Term t adds ``coefs[t] * q**exps[t]`` to flat component ``rows[t]``.
    Returns ``(E, nv, C)``: ``E[U, arity]`` lists the distinct monomials of
    the components and of their first derivatives, the ``nv`` monomials of
    the values first; ``C[size * (1 + arity), U]`` maps their values at q to
    the ``size`` component values followed by the ``[size, arity]`` gradient.
    """
    t, i, dcoefs, dexps = _derivative_terms(coefs, exps)
    E, col = _merge_monomials(np.concatenate([exps, dexps]))
    is_value = np.zeros(E.shape[0], dtype=bool)
    is_value[col[: exps.shape[0]]] = True
    order = np.argsort(~is_value, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    C = np.zeros((size * (1 + arity), E.shape[0]))
    np.add.at(
        C,
        (np.concatenate([rows, size + rows[t] * arity + i]), rank[col]),
        np.concatenate([coefs, dcoefs]),
    )
    return E[order].astype(float), int(is_value.sum()), C


class TensorField:
    """Dense array of SmoothFields, one per multi-index.

    ``shape`` is the list of index extents; evaluation at a chart point
    returns a float array of the same shape.  All component fields share one
    arity.  Polynomial components are packed into one shared monomial table
    ``_E`` and coefficient matrix ``_C`` (values and gradients in one
    product); a tensor of constants is folded into ``_const``.  Other
    components are evaluated one by one and listed in ``_others`` as
    ``(flat index, field)``.
    """

    __slots__ = ("shape", "arity", "_components", "_const", "_E", "_C", "_Ev", "_Cv", "_others")

    def __init__(self, fields, arity=None):
        fields = np.asarray(fields, dtype=object)
        flat = fields.reshape(-1)
        if flat.shape[0] == 0 and arity is None:
            raise InputError("empty TensorField needs an explicit arity")
        if arity is None:
            arity = flat[0].arity
        for f in flat:
            if not isinstance(f, SmoothField):
                raise InputError("TensorField components must be SmoothField")
            if f.arity != arity:
                raise InputError("TensorField components have mixed arities")
        self.shape = fields.shape
        self.arity = int(arity)
        self._components = tuple(flat)
        self._pack()

    def _pack(self):
        comps = self._components
        n, size = self.arity, len(comps)
        poly = [k for k, f in enumerate(comps) if f.kind == "polynomial"]
        self._others = tuple((k, f) for k, f in enumerate(comps) if f.kind != "polynomial")
        counts = [comps[k]._terms[0].shape[0] for k in poly]
        rows = np.repeat(np.asarray(poly, dtype=int), counts)
        coefs = np.concatenate([np.zeros(0)] + [comps[k]._terms[0] for k in poly])
        exps = np.concatenate([np.zeros((0, n), dtype=int)] + [comps[k]._terms[1] for k in poly])
        if not self._others and not exps.any():
            # only constants: fold once, the jet is zero
            self._const = np.bincount(rows, weights=coefs, minlength=size).reshape(self.shape)
            self._E = self._C = self._Ev = self._Cv = None
            return
        self._const = None
        self._E, nv, self._C = _jet_table(rows, coefs, exps, size, n)
        self._Ev = np.ascontiguousarray(self._E[:nv])
        self._Cv = np.ascontiguousarray(self._C[:size, :nv])

    @property
    def fields(self) -> np.ndarray:
        """The components as a fresh object array of ``shape``."""
        return np.fromiter(self._components, dtype=object, count=len(self._components)).reshape(
            self.shape
        )

    @classmethod
    def from_constants(cls, array, arity) -> "TensorField":
        array = np.asarray(array, dtype=float)
        out = np.empty(array.shape, dtype=object)
        for idx in np.ndindex(*array.shape):
            out[idx] = SmoothField.constant(array[idx], arity)
        return cls(out, arity=arity)

    @classmethod
    def zeros(cls, shape, arity) -> "TensorField":
        out = np.empty(tuple(shape), dtype=object)
        zero = SmoothField.zero(arity)
        for idx in np.ndindex(*tuple(shape)):
            out[idx] = zero
        return cls(out, arity=arity)

    def __getitem__(self, idx) -> SmoothField:
        return self.fields[idx]

    def eval(self, q) -> np.ndarray:
        q = _check_point(q, self.arity)
        vals = self._values(q)
        if self._const is None and not np.isfinite(vals).all():
            raise NumericError("tensor field evaluated to non-finite entries")
        return vals

    def _values(self, q) -> np.ndarray:
        """Values at a validated point ``q``; the caller checks them for finiteness."""
        if self._const is not None:
            return self._const.copy()
        vals = self._Cv @ _monomials(q, self._Ev)
        for k, f in self._others:
            vals[k] = f._value(q)
        return vals.reshape(self.shape)

    def eval_grad(self, q):
        """Values and gradients: shapes ``shape`` and ``shape + (arity,)``."""
        q = _check_point(q, self.arity)
        if self._const is not None:
            return self._const.copy(), np.zeros(self.shape + (self.arity,))
        size = len(self._components)
        jet = self._C @ _monomials(q, self._E)
        vals = jet[:size]
        grads = jet[size:].reshape(size, self.arity)
        for k, f in self._others:
            vals[k] = f._value(q)
            grads[k] = f._gradient(q)
        if not np.isfinite(jet).all():
            raise NumericError("tensor field jet non-finite")
        return vals.reshape(self.shape), grads.reshape(self.shape + (self.arity,))

    def as_config(self):
        def rec(a):
            if a.ndim == 0:
                return a.item().as_config()
            return [rec(sub) for sub in a]

        return rec(self.fields)

    def __repr__(self):
        return f"TensorField(shape={self.shape}, arity={self.arity})"


def tensor_from_config(obj, shape, arity) -> TensorField:
    """Nested lists of field objects / numbers -> TensorField of given shape."""
    shape = tuple(shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        node = obj
        for k in idx:
            try:
                node = node[k]
            except (IndexError, KeyError, TypeError) as exc:
                raise InputError(
                    f"tensor config does not cover index {list(idx)} for shape {list(shape)}"
                ) from exc
        out[idx] = field_from_config_with_arity(node, arity)
    return TensorField(out, arity=arity)
