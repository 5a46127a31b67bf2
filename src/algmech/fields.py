"""Smooth scalar and tensor fields over a coordinate chart.

Every coordinate-dependent coefficient in the library (structure functions,
metrics, Hamiltonians) is a :class:`SmoothField`: a real function of the chart
coordinates that can also report its first-derivative jet.  Three flavours
exist:

* polynomial fields, with exact evaluation and exact gradients;
* builtin fields: closures with an analytic gradient, and named closures
  registered in code (``sin``, ``cos``, ...);
* finite-difference wrapped fields, any evaluable closure whose gradient is
  taken by central differences with step ``h``.

Linear combinations of fields keep exact gradients (the jet is linear), so
derived coefficients like differences of polynomial tensors stay as accurate
as their ingredients.  A finite-difference jet, of a field or of an
array-valued tensor, is one stencil sweep (``_central_jet``).

Polynomial data is compiled: a field builds the monomial table of its first
derivatives on its first gradient, and a :class:`TensorField` packs all of its
polynomial components into one shared monomial table and one coefficient
matrix, built on first read, so a value or a whole jet costs a fixed handful
of array operations.  Nested input, from a config or from code, becomes a
packed tensor in one walk (:func:`tensor_from_config`); no entry is an object
of its own.

Derived tensors (Christoffel symbols, curvature, the projected constrained and
the lifted structure) are array-valued: one callable ``fn(Q[K, n]) -> [K, *shape]``
(:meth:`TensorField.from_array_fn`) gives the whole value at K points in one
call, and its jet is one central-difference sweep, all stencil points in one
call; the adapted frame's own arrays carry exact jets.

Batch axis: every evaluation accepts one point ``q[n]`` or a batch
``q[K, n]`` and then returns its values with a leading axis of length K.  A
single point is the 1-D case of the same arithmetic: row k of a batched
result equals the evaluation at point k.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .errors import InputError, NumericError

DEFAULT_FD_STEP = 1e-5
MAX_COUNT = int(np.iinfo(np.intp).max)  # the largest length an array axis can have


def fd_default_step() -> float:
    """Default central-difference step; ``ALGMECH_FD_STEP`` overrides it."""
    raw = os.environ.get("ALGMECH_FD_STEP")
    if raw is None:
        return DEFAULT_FD_STEP
    try:
        h = float(raw)
    except ValueError as exc:
        raise InputError(f"ALGMECH_FD_STEP is not a number: {raw!r}") from exc
    if not (math.isfinite(h) and h > 0):
        raise InputError(f"ALGMECH_FD_STEP must be a finite number > 0, got {raw!r}")
    return h


def _check_point(q, arity):
    """A point ``q[arity]`` or a batch of points ``q[K, arity]``, validated."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        q = q.reshape(-1)
    if q.shape[-1] != arity:
        raise InputError(f"point has length {q.shape[-1]}, field arity is {arity}")
    if not np.isfinite(q).all():
        raise InputError("point has non-finite entries")
    return q


def _monomials(q, E):
    """Values of the monomials q**E[t] for every row t of the table E (last axis)."""
    return np.multiply.reduce((q if q.ndim == 1 else q[:, None, :]) ** E, axis=-1)


def matvec(M, v):
    """``M @ v`` with a leading batch axis on either operand.

    One matrix-vector product per point, so row k of a batch is bit for bit
    the product at point k alone.
    """
    if v.ndim == 1:  # ``@`` broadcasts a stack of matrices against one vector
        return M @ v
    return (M @ v[..., None])[..., 0]


def vecmat(v, M):
    """``v @ M`` with a leading batch axis on either operand, as :func:`matvec`."""
    if v.ndim == 1:
        return v @ M
    return (v[..., None, :] @ M)[..., 0, :]


def _derivative_terms(coefs, exps):
    """First derivatives of the terms ``coefs[t] * q**exps[t]``.

    Returns ``(t, i, dcoefs, dexps)``: for each pair with ``exps[t, i] > 0``,
    d/dq_i of term t is ``dcoefs * q**dexps``.
    """
    t, i = np.nonzero(exps)
    dexps = exps[t]
    dexps[np.arange(t.shape[0]), i] -= 1
    return t, i, coefs[t] * exps[t, i], dexps


def stencil(q, h):
    """``q`` and its neighbours ``q +- h e_i`` as one batch ``[2 * n + 1, *batch, n]``."""
    n = q.shape[-1]
    points = np.repeat(q[None], 2 * n + 1, axis=0)
    for i in range(n):
        points[1 + 2 * i, ..., i] += h
        points[2 + 2 * i, ..., i] -= h
    return points


def stencil_jet(out, h):
    """Centre value and gradient (derivative axis last) from the values at :func:`stencil`."""
    return out[0], np.moveaxis((out[1::2] - out[2::2]) / (2.0 * h), 0, -1)


def _central_jet(fn, q, h, shape):
    """Value and central-difference gradient of ``fn(Q[K, arity]) -> [K, *shape]`` at ``q``.

    The stencil is one call of ``fn``; the caller checks the results for finiteness.
    """
    points = stencil(q, h)
    out = fn(points.reshape(math.prod(points.shape[:-1]), q.shape[-1]))
    return stencil_jet(np.reshape(out, points.shape[:-1] + tuple(shape)), h)


class SmoothField:
    """Scalar function of ``arity`` chart coordinates with a first-derivative jet.

    ``kind`` is ``"polynomial"``, ``"builtin"`` or ``"fd"``, as in the
    module docstring; a sum of fields that are not all polynomial is a
    closure over its operands' values and gradients.  A polynomial keeps
    its terms ``(coefs[T], exps[T, arity])`` and, from its first gradient on,
    the table of its derivative monomials ``_dexps[K, arity]`` with
    coefficients ``_dcoefs[arity, K]``.
    """

    __slots__ = ("arity", "kind", "_terms", "_dexps", "_dcoefs", "_fn", "_grad", "_h")

    def __init__(self, arity, kind, terms=None, fn=None, grad=None, h=None):
        self.arity = int(arity)
        self.kind = kind
        self._terms = terms
        self._dexps = self._dcoefs = None
        self._fn = fn
        self._grad = grad
        self._h = h

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
        """Build ``_dexps``/``_dcoefs`` on the first gradient."""
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
    def from_callable(cls, fn, arity, grad=None, h=None) -> "SmoothField":
        """Wrap ``fn(q) -> float``; gradient analytic if ``grad`` given, else FD."""
        kind = "builtin" if grad is not None else "fd"
        if grad is None and h is None:
            h = fd_default_step()
        return cls(int(arity), kind, fn=fn, grad=grad, h=h)

    @classmethod
    def builtin(cls, name, h=None) -> "SmoothField":
        """Look up a code-registered named closure; gradient by central differences."""
        try:
            fn, arity = _BUILTINS[name]
        except (KeyError, TypeError) as exc:  # TypeError: a name that is not hashable
            raise InputError(f"unknown builtin field {name!r}") from exc
        if h is None:
            h = fd_default_step()
        return cls(arity, "builtin", fn=fn, h=float(h))

    # -- evaluation ---------------------------------------------------------

    def value(self, q):
        """Value at ``q[n]`` (a float) or at each point of ``q[K, n]`` ([K])."""
        q = _check_point(q, self.arity)
        v = self._value(q)
        if not (math.isfinite(v) if q.ndim == 1 else np.isfinite(v).all()):
            raise NumericError(f"field evaluated to non-finite value at {q.tolist()}")
        return v

    def gradient(self, q) -> np.ndarray:
        """Gradient at ``q[n]`` ([n]) or at each point of ``q[K, n]`` ([K, n])."""
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
            mono = _monomials(q, exps)
            # one product per point: a matrix-vector product over the batch may round differently
            v = mono @ coefs if q.ndim == 1 else vecmat(mono, coefs[:, None])[:, 0]
        elif q.ndim == 2:  # closures take one point at a time
            return np.array([float(self._fn(row)) for row in q])
        else:
            v = self._fn(q)
        return float(v) if q.ndim == 1 else v

    def _gradient(self, q):
        n = self.arity
        if self.kind == "polynomial":
            if self._dexps is None:
                self._derivative_table()
            return matvec(self._dcoefs, _monomials(q, self._dexps))
        if self._grad is None:  # central differences over the value
            return _central_jet(self._value, q, self._h, ())[1]
        if q.ndim == 2:  # closures take one point at a time
            return np.array([self._gradient(row) for row in q]).reshape(q.shape)
        return np.asarray(self._grad(q), dtype=float).reshape(n)

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
        return SmoothField.from_callable(
            lambda q: w_self * self._value(q) + w_other * other._value(q),
            self.arity,
            grad=lambda q: w_self * self._gradient(q) + w_other * other._gradient(q),
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
        return SmoothField.from_callable(
            lambda q: w * self._value(q), self.arity, grad=lambda q: w * self._gradient(q)
        )

    def __mul__(self, w):
        return self.scaled(w)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SmoothField(arity={self.arity}, kind={self.kind!r})"


def field_from_polynomial(terms, arity) -> SmoothField:
    """Polynomial field from ``[(coefficient, exponent_vector), ...]``."""
    return SmoothField.polynomial(terms, arity)


def _is_number(value):
    """A JSON number: an int or a float, not a bool (``true`` would read as 1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value):
    """A JSON number that a float holds: not NaN, an infinity or an int beyond float range."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


def field_from_config_with_arity(obj, arity) -> SmoothField:
    """Parse the config form of a field over a chart of dimension ``arity``.

    A plain number is a constant; an object names its ``arity`` and holds
    either polynomial ``terms`` or a ``builtin`` name.  A malformed field
    raises :class:`InputError` naming its key.
    """
    if _is_number(obj):
        if not is_finite_number(obj):
            raise InputError("coefficients must be finite")
        return SmoothField.constant(obj, arity)
    if not isinstance(obj, dict):
        raise InputError(f"field config must be an object, got {type(obj).__name__}")
    if "arity" not in obj:
        raise InputError("field config missing 'arity'")
    if not _is_count(obj["arity"]):
        raise InputError(f"field config 'arity' must be an integer >= 0, got {obj['arity']!r}")
    if "builtin" in obj:
        h = obj.get("h")
        if h is not None and not (is_finite_number(h) and h > 0):
            raise InputError(f"field config 'h' must be a finite number > 0, got {h!r}")
        f = SmoothField.builtin(obj["builtin"], h=h)
    else:
        terms = obj.get("terms", [])
        if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
            raise InputError("field config 'terms' must be a list of objects")
        for t in terms:
            coef, exp = t.get("coef"), t.get("exp")
            if not (is_finite_number(coef) and isinstance(exp, list) and all(map(_is_count, exp))):
                raise InputError(
                    f"field term needs a finite 'coef' and a list 'exp' of integers >= 0, got {t!r}"
                )
        f = SmoothField.polynomial([(t["coef"], t["exp"]) for t in terms], obj["arity"])
    if f.arity != arity:
        raise InputError(f"field arity {f.arity} does not match expected {arity}")
    return f


_BUILTINS = {}


def register_builtin(name, fn, arity=1):
    """Register a named closure usable as ``SmoothField.builtin(name)``."""
    _BUILTINS[name] = (fn, int(arity))


register_builtin("sin", lambda q: math.sin(q[0]))
register_builtin("cos", lambda q: math.cos(q[0]))


def _exp(q):
    """``exp(q[0])``, inf where it overflows (``math.exp`` raises there)."""
    try:
        return math.exp(q[0])
    except OverflowError:
        return math.inf


register_builtin("exp", _exp)


def _merge_monomials(E):
    """The distinct rows of the exponent table ``E``, sorted lexicographically.

    Also returns each row's position among them.
    """
    T, arity = E.shape
    if arity == 0 or T == 0:  # over a point every monomial is 1
        return E[:1], np.zeros(T, dtype=np.intp)
    base = int(E.max()) + 1
    if base**arity > np.iinfo(np.int64).max:  # the integer keys below would overflow
        distinct, where = np.unique(E, axis=0, return_inverse=True)
        return distinct, where.reshape(-1)
    # a row's key is the number its exponents spell in base ``base``, so the
    # keys sort as the rows do
    keys = E @ base ** np.arange(arity - 1, -1, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    first = np.ones(T, dtype=bool)
    first[1:] = np.diff(keys[order]) != 0
    where = np.empty(T, dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return E[order[first]], where


def _jet_table(rows, coefs, exps, size, arity):
    """Pack polynomial terms into one monomial table and one coefficient matrix.

    Term t adds ``coefs[t] * q**exps[t]`` to flat component ``rows[t]``.
    Returns ``(E, nv, C)``: ``E[U, arity]`` lists the distinct monomials of
    the components and of their first derivatives, the ``nv`` monomials of
    the values first; ``C[size * (1 + arity), U]`` maps their values at q to
    the ``size`` component values followed by the ``[size, arity]`` gradient.
    The terms are summed into ``C`` in their order.
    """
    t, i, dcoefs, dexps = _derivative_terms(coefs, exps)
    E, col = _merge_monomials(np.concatenate([exps, dexps]))
    is_value = np.zeros(E.shape[0], dtype=bool)
    is_value[col[: exps.shape[0]]] = True
    order = np.argsort(~is_value, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    shape = (size * (1 + arity), E.shape[0])
    flat = np.concatenate([rows, size + rows[t] * arity + i]) * shape[1] + rank[col]
    C = np.bincount(flat, weights=np.concatenate([coefs, dcoefs]), minlength=math.prod(shape))
    return E[order].astype(float), int(is_value.sum()), C.astype(float, copy=False).reshape(shape)


class TensorField:
    """Dense tensor of smooth fields over the chart, one value per multi-index.

    ``shape`` is the list of index extents; evaluation at a chart point
    returns a float array of the same shape, and at a batch ``q[K, n]`` an
    array ``[K, *shape]``.  A tensor is one of two things:

    * packed: polynomial terms ``(rows, coefs, exps)``, term t adding
      ``coefs[t] * q**exps[t]`` to flat entry ``rows[t]``, plus ``_others``,
      a tuple of closure entries ``(flat index, field)`` whose values and
      gradients are added into their entries.  The terms are stored as
      built; their tables are built on first read: the first evaluation
      builds the value table ``_Ev``/``_Cv``, the first ``eval_grad`` the
      jet table ``_E``/``_C`` (values and gradients in one product), so a
      tensor that is only evaluated never builds its jet;
    * array-valued (:meth:`from_array_fn`): one callable ``_fn(Q[K, n])``
      returns the whole array at K points; the jet is central differences
      with step ``_h``.

    Nested input (numbers, config field objects, SmoothFields) is packed by
    :func:`tensor_from_config`, constant arrays by :meth:`from_constants`.  A
    tensor of constants, and an array-valued tensor over a point, is folded
    into ``_const``.
    """

    __slots__ = (
        "shape", "arity", "_terms", "_const", "_E", "_C", "_Ev", "_Cv", "_others", "_fn", "_h",
    )

    @classmethod
    def from_terms(cls, rows, coefs, exps, shape, arity) -> "TensorField":
        """Packed polynomial tensor: term t adds ``coefs[t] * q**exps[t]`` to flat entry ``rows[t]``.

        The terms of an entry are summed in their order.
        """
        rows = np.asarray(rows, dtype=int)
        exps = np.asarray(exps, dtype=int).reshape(rows.shape[0], int(arity))
        return cls._packed(shape, arity, rows, np.asarray(coefs, dtype=float), exps)

    @classmethod
    def _packed(cls, shape, arity, rows, coefs, exps, others=()) -> "TensorField":
        """Packed tensor from validated terms and closure entries ``(flat index, field)``."""
        T = cls.__new__(cls)
        T._pack(shape, arity, rows, coefs, exps, others)
        return T

    @classmethod
    def from_array_fn(cls, fn, shape, arity, h=None) -> "TensorField":
        """Tensor whose whole value at the points ``Q[K, arity]`` is ``fn(Q) -> [K, *shape]``.

        As everywhere in the library, one point is the 1-D case: ``fn(q[arity])``
        returns ``[*shape]``.  The jet is one central-difference sweep over
        the array: the points and their 2 * arity neighbours at step ``h``
        (``fd_default_step()`` when not given) in one batch call of ``fn``;
        entry by entry it is the arithmetic of a per-component FD field.
        Over a point (arity 0) ``fn`` is called once, here, and its value is
        folded into a constant.
        """
        T = cls.__new__(cls)
        T.shape = tuple(int(s) for s in shape)
        T.arity = int(arity)
        T._terms = None
        T._E = T._C = T._Ev = T._Cv = None
        T._others = ()
        T._h = fd_default_step() if h is None else float(h)
        T._fn, T._const = fn, None
        if T.arity == 0:
            T._const = T._values(np.zeros(0))
            T._const.flags.writeable = False
            T._fn = None
            if not np.isfinite(T._const).all():
                raise NumericError("tensor field evaluated to non-finite entries")
        return T

    def _pack(self, shape, arity, rows, coefs, exps, others):
        self.shape = tuple(int(s) for s in shape)
        self.arity = int(arity)
        self._fn = self._h = None
        self._terms = (rows, coefs, exps)
        self._others = others
        self._const = self._E = self._C = self._Ev = self._Cv = None  # tables: on first read
        if not others and not exps.any():
            # only constants: fold once, the jet is zero
            # (bincount of no terms is an integer array)
            size = math.prod(self.shape)
            const = np.bincount(rows, weights=coefs, minlength=size).astype(float)
            const.flags.writeable = False
            self._const = const.reshape(self.shape)

    def _value_table(self):
        """Build ``_Ev``/``_Cv``: bit for bit the value block of :func:`_jet_table`."""
        rows, coefs, exps = self._terms
        E, col = _merge_monomials(exps)
        size, nv = math.prod(self.shape), E.shape[0]
        Cv = np.bincount(rows * nv + col, weights=coefs, minlength=size * nv)
        self._Ev = E.astype(float)
        self._Cv = Cv.astype(float, copy=False).reshape(size, nv)

    @classmethod
    def from_constants(cls, array, arity) -> "TensorField":
        array = np.asarray(array, dtype=float)
        if not np.isfinite(array).all():
            raise InputError("coefficients must be finite")
        rows = np.flatnonzero(array)
        exps = np.zeros((rows.shape[0], int(arity)), dtype=int)
        return cls._packed(array.shape, arity, rows, array.reshape(-1)[rows], exps)

    @classmethod
    def zeros(cls, shape, arity) -> "TensorField":
        return cls.from_terms([], [], [], shape, arity)

    def __add__(self, other) -> "TensorField":
        """Entrywise sum of packed tensors, this tensor's terms and closure entries first."""
        if self.shape != other.shape or self.arity != other.arity:
            raise InputError("tensor fields differ in shape or arity")
        if self._terms is None or other._terms is None:
            raise InputError("an array-valued TensorField cannot be added")
        return TensorField._packed(
            self.shape,
            self.arity,
            *(np.concatenate(pair) for pair in zip(self._terms, other._terms)),
            self._others + other._others,
        )

    def scaled(self, w, axes=None) -> "TensorField":
        """``w`` times this tensor with its indices permuted as ``np.transpose(., axes)``.

        A packed tensor stays packed, with exact jets; an array-valued tensor
        stays one call.
        """
        w = float(w)
        axes = tuple(range(len(self.shape))) if axes is None else tuple(axes)
        shape = [self.shape[a] for a in axes]
        if self._terms is None:  # array-valued; the batch axis, if any, stays first
            last = tuple(a - len(axes) for a in axes)
            return TensorField.from_array_fn(
                lambda Q: w * self._values(Q).transpose(*range(Q.ndim - 1), *last),
                shape,
                self.arity,
                self._h,
            )
        rows, coefs, exps = self._terms
        # the new flat position of every old entry
        where = np.transpose(np.arange(math.prod(shape)).reshape(shape), np.argsort(axes))
        where = where.reshape(-1)
        others = tuple((int(where[k]), f.scaled(w)) for k, f in self._others)
        return TensorField._packed(shape, self.arity, where[rows], w * coefs, exps, others)

    def eval(self, q) -> np.ndarray:
        q = _check_point(q, self.arity)
        vals = self._values(q)
        if self._const is None and not np.isfinite(vals).all():
            raise NumericError("tensor field evaluated to non-finite entries")
        return vals

    def _values(self, q) -> np.ndarray:
        """Values at a validated point or batch ``q``; the caller checks them for finiteness."""
        if self._const is not None:
            if q.ndim == 1:
                return self._const.copy()
            # a batch reads one (read-only) constant, not K copies of it
            return np.broadcast_to(self._const, q.shape[:1] + self.shape)
        out_shape = q.shape[:-1] + self.shape
        if self._fn is not None:
            return np.array(self._fn(q), dtype=float).reshape(out_shape)
        if self._Cv is None:
            self._value_table()
        vals = matvec(self._Cv, _monomials(q, self._Ev))
        for k, f in self._others:
            vals[..., k] += f._value(q)
        return vals.reshape(out_shape)

    def eval_grad(self, q):
        """Values and gradients: shapes ``shape`` and ``shape + (arity,)``, batch axis first."""
        q = _check_point(q, self.arity)
        batch = q.shape[:-1]
        if self._const is not None:
            return self._values(q), np.zeros(batch + self.shape + (self.arity,))
        if self._fn is not None:
            vals, grads = _central_jet(self._values, q, self._h, self.shape)
        else:
            size = math.prod(self.shape)
            if self._C is None:
                self._E, _, self._C = _jet_table(*self._terms, size, self.arity)
            jet = matvec(self._C, _monomials(q, self._E))
            vals = jet[..., :size]  # views of the jet, also over a batch
            grads = jet[..., size:].reshape(batch + (size, self.arity))
            for k, f in self._others:
                vals[..., k] += f._value(q)
                grads[..., k, :] += f._gradient(q)
            vals = vals.reshape(batch + self.shape)
            grads = grads.reshape(batch + self.shape + (self.arity,))
        if not (np.isfinite(vals).all() and np.isfinite(grads).all()):
            raise NumericError("tensor field jet non-finite")
        return vals, grads

    def __repr__(self):
        return f"TensorField(shape={self.shape}, arity={self.arity})"


def tensor_from_config(obj, shape, arity, key="tensor") -> TensorField:
    """Nested lists of exactly ``shape`` -> packed TensorField, walked once.

    A leaf is a number (a constant term), a config field object (parsed by
    :func:`field_from_config_with_arity`) or a :class:`SmoothField`.  The
    terms of polynomial leaves are packed in flat-index order; any other
    field becomes a closure entry.  A list of the wrong length, a malformed
    leaf or a leaf of another arity raises :class:`InputError` naming the
    entry as ``key[i][j]...``.
    """
    shape = tuple(int(s) for s in shape)
    rows, coefs, exps, others = [], [], [], []
    constant = [0] * int(arity)

    def leaf(node, flat):
        if _is_number(node):
            if not is_finite_number(node):
                raise InputError("coefficients must be finite")
            if node != 0:
                rows.append(flat)
                coefs.append(float(node))
                exps.append(constant)
            return
        f = node if isinstance(node, SmoothField) else field_from_config_with_arity(node, arity)
        if f.arity != arity:
            raise InputError(f"field arity {f.arity} does not match expected {arity}")
        if f.kind != "polynomial":
            others.append((flat, f))
            return
        c, e = f._terms
        rows.extend([flat] * c.shape[0])
        coefs.extend(c.tolist())
        exps.extend(e.tolist())

    def walk(node, idx, flat):
        depth = len(idx)
        try:
            if depth == len(shape):
                return leaf(node, flat)
            if not isinstance(node, list) or len(node) != shape[depth]:
                got = len(node) if isinstance(node, list) else type(node).__name__
                raise InputError(
                    f"tensor config does not match shape {list(shape)}: expected a list of "
                    f"{shape[depth]} entries, got {got}"
                )
        except InputError as exc:
            raise InputError(f"{exc} at {key}{''.join(f'[{i}]' for i in idx)}") from exc
        for i, child in enumerate(node):
            walk(child, idx + (i,), flat * shape[depth] + i)

    walk(obj, (), 0)
    return TensorField._packed(
        shape,
        arity,
        np.array(rows, dtype=int),
        np.array(coefs, dtype=float),
        np.array(exps, dtype=int).reshape(len(rows), int(arity)),
        tuple(others),
    )
