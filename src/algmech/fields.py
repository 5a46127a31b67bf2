"""Smooth scalar and tensor fields over a coordinate chart.

Every coordinate-dependent coefficient in the library (structure functions,
metrics, Hamiltonians) is a :class:`TensorField`: an array of real functions
of the chart coordinates that also reports its first-derivative jet.  A
scalar, such as a Hamiltonian, is the tensor of shape ``()``; the scalar
constructors (:meth:`TensorField.polynomial`, :meth:`TensorField.from_callable`,
:meth:`TensorField.builtin`) build one.  A tensor takes one of two forms:

* packed polynomial terms, with exact values and exact jets.  The terms are
  compiled into one shared monomial table and one coefficient matrix per use
  (value, gradient, jet), built on first read, so a value or a whole jet
  costs a fixed handful of array operations;
* array-valued: one callable ``fn(Q[K, n]) -> [K, *shape]``
  (:meth:`TensorField.from_array_fn`) gives the whole value at K points in
  one call.  Its gradient is an exact callable when it has one (a closure
  with an analytic gradient, a sum or multiple of exact jets), else one
  central-difference sweep with step ``h``, all stencil points in one call
  (``_central_jet``): the named builtins (``sin``, ``cos``, ``exp``), a
  closure without a gradient, and the derived tensors (Christoffel symbols,
  curvature, the projected constrained and the lifted structure).  The
  adapted frame's own arrays carry exact jets.

Linear combinations keep exact jets (the jet is linear), so derived
coefficients like differences of polynomial tensors stay as accurate as their
ingredients.  Nested input, from a config or from code, becomes one tensor in
one walk (:func:`tensor_from_config`): packed when every entry is a
polynomial, else array-valued, the packed part plus each other entry.

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
    the product at point k alone; at one point, ``dot``: ``@``'s BLAS call, at less call cost.
    """
    if v.ndim == 1:  # ``@`` broadcasts a stack of matrices against one vector
        return M.dot(v) if M.ndim == 2 else M @ v
    return (M @ v[..., None])[..., 0]


def vecmat(v, M):
    """``v @ M`` with a leading batch axis on either operand, as :func:`matvec`."""
    if v.ndim == 1:
        return v.dot(M) if M.ndim == 2 else v @ M
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


def _is_number(value):
    """A JSON number: an int or a float, not a bool (``true`` would read as 1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value):
    """A JSON number that a float holds: not NaN, an infinity or an int beyond float range."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


def field_from_config_with_arity(obj, arity, key="field") -> TensorField:
    """Parse the config form of the field ``key`` over a chart of dimension ``arity``.

    The field is a :class:`TensorField` of shape ``()``.  A plain number is a
    constant; an object names its ``arity`` and holds either polynomial
    ``terms`` or a ``builtin`` name.  A malformed field raises
    :class:`InputError` ending ``at <key>``, a malformed term
    ``at <key>.terms[i]``; neither echoes the offending value.
    """
    where = key
    try:
        if _is_number(obj):
            if not is_finite_number(obj):
                raise InputError("coefficients must be finite")
            return TensorField.from_constants(obj, arity)
        if not isinstance(obj, dict):
            raise InputError(f"field config must be an object, got {type(obj).__name__}")
        if not _is_count(obj.get("arity")):
            raise InputError("field config needs an 'arity', an integer >= 0")
        if "builtin" in obj:
            h = obj.get("h")
            if h is not None and not (is_finite_number(h) and h > 0):
                raise InputError("field config 'h' must be a finite number > 0")
            f = TensorField.builtin(obj["builtin"], h=h)
            if f.arity != obj["arity"]:
                raise InputError(f"field arity {obj['arity']} is not its builtin's arity {f.arity}")
        else:
            terms = obj.get("terms", [])
            if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
                raise InputError("field config 'terms' must be a list of objects")
            for i, t in enumerate(terms):
                coef, exp = t.get("coef"), t.get("exp")
                if not (
                    is_finite_number(coef) and isinstance(exp, list) and all(map(_is_count, exp))
                ):
                    where = f"{key}.terms[{i}]"
                    raise InputError(
                        "field term needs a finite 'coef' and a list 'exp' of integers >= 0"
                    )
            f = TensorField.polynomial([(t["coef"], t["exp"]) for t in terms], obj["arity"])
        if f.arity != arity:
            raise InputError(f"field arity {f.arity} does not match expected {arity}")
    except InputError as exc:
        raise InputError(f"{exc} at {where}") from exc
    return f


def _exp(q):
    """``exp(q[0])``, inf where it overflows (``math.exp`` raises there)."""
    try:
        return math.exp(q[0])
    except OverflowError:
        return math.inf


# name -> (closure, arity) of each ``TensorField.builtin(name)``
_BUILTINS = {
    "sin": (lambda q: math.sin(q[0]), 1),
    "cos": (lambda q: math.cos(q[0]), 1),
    "exp": (_exp, 1),
}


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
    array ``[K, *shape]``.  A scalar is the tensor of shape ``()``.  A
    tensor is one of two things:

    * packed: polynomial terms ``(rows, coefs, exps)``, term t adding
      ``coefs[t] * q**exps[t]`` to flat entry ``rows[t]``.  The terms are
      stored as built; their tables are built on first read: the first
      evaluation builds the value table ``_Ev``/``_Cv``, the first gradient
      the gradient table ``_Eg``/``_Cg``, the first ``eval_grad`` the jet
      table ``_E``/``_C`` (values and gradients in one product), so a tensor
      that is only evaluated never builds its jet;
    * array-valued (:meth:`from_array_fn`): one callable ``_fn(Q[K, n])``
      returns the whole array at K points; the gradient is the exact
      callable ``_grad`` when there is one, else central differences with
      step ``_h``.

    Nested input (numbers, config field objects, scalar tensors) becomes a
    tensor in :func:`tensor_from_config`, constant arrays in
    :meth:`from_constants`.  A tensor of constants, and an array-valued
    tensor over a point, is folded into ``_const``.  ``_values``,
    ``_gradient`` and ``_jet`` take a validated point and leave the
    finiteness check to their caller; ``eval`` and ``eval_grad`` do both.
    """

    __slots__ = (
        "shape", "arity", "_terms", "_const", "_E", "_C", "_Ev", "_Cv", "_Eg", "_Cg",
        "_fn", "_grad", "_h",
    )

    @staticmethod
    def _new(shape, arity) -> "TensorField":
        """A tensor without data."""
        shape = tuple(int(s) for s in shape)
        T = object.__new__(TensorField)
        T.shape, T.arity = shape, int(arity)
        T._terms = T._const = T._fn = T._grad = T._h = None
        T._E = T._C = T._Ev = T._Cv = T._Eg = T._Cg = None  # tables: on first read
        return T

    @classmethod
    def from_terms(cls, rows, coefs, exps, shape, arity) -> "TensorField":
        """Packed polynomial tensor: term t adds ``coefs[t] * q**exps[t]`` to flat entry ``rows[t]``.

        The terms of an entry are summed in their order.
        """
        rows = np.asarray(rows, dtype=int)
        exps = np.asarray(exps, dtype=int).reshape(rows.shape[0], int(arity))
        return cls._packed(shape, arity, rows, np.asarray(coefs, dtype=float), exps)

    @classmethod
    def _packed(cls, shape, arity, rows, coefs, exps) -> "TensorField":
        """Packed tensor from validated terms."""
        T = cls._new(shape, arity)
        T._terms = (rows, coefs, exps)
        if not exps.any():
            # only constants: fold once, the jet is zero
            # (bincount of no terms is an integer array)
            const = np.bincount(rows, weights=coefs, minlength=math.prod(T.shape)).astype(float)
            const.flags.writeable = False
            T._const = const.reshape(T.shape)
        return T

    @classmethod
    def from_array_fn(cls, fn, shape, arity, h=None, grad=None) -> "TensorField":
        """Tensor whose whole value at the points ``Q[K, arity]`` is ``fn(Q) -> [K, *shape]``.

        As everywhere in the library, one point is the 1-D case: ``fn(q[arity])``
        returns ``[*shape]``.  ``grad``, when given, is the exact gradient in
        the same form, ``grad(Q) -> [K, *shape, arity]``.  Without it the jet
        is one central-difference sweep over the array: the points and their
        2 * arity neighbours at step ``h`` (``fd_default_step()`` when not
        given) in one batch call of ``fn``; entry by entry it is the
        arithmetic of a per-component FD field.  Over a point (arity 0)
        ``fn`` is called once, here, and its value is folded into a constant.
        """
        T = cls._new(shape, arity)
        T._fn, T._grad = fn, grad
        if grad is None:
            T._h = fd_default_step() if h is None else float(h)
        if T.arity == 0:
            T._const = T._values(np.zeros(0))
            T._const.flags.writeable = False
            T._fn = T._grad = None
            if not np.isfinite(T._const).all():
                raise NumericError("tensor field evaluated to non-finite entries")
        return T

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

    # -- scalar constructors (shape ``()``) ---------------------------------

    @classmethod
    def polynomial(cls, terms, arity) -> "TensorField":
        """Scalar Σ coef · Π q_i^{e_i} from ``terms = [(coef, exponent_vector), ...]``."""
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
        return cls._packed((), arity, np.zeros(len(terms), dtype=int), coefs, exps)

    @classmethod
    def from_callable(cls, fn, arity, grad=None, h=None) -> "TensorField":
        """Wrap ``fn(q) -> float``; gradient ``grad(q) -> [arity]`` if given, else FD at step ``h``.

        Both take one point at a time; over a batch they are called per point.
        """

        def per_point(f, shape):
            return lambda Q: np.array([f(q) for q in np.atleast_2d(Q)], dtype=float).reshape(
                Q.shape[:-1] + shape
            )

        grad = grad and per_point(grad, (int(arity),))
        return cls.from_array_fn(per_point(fn, ()), (), arity, h, grad)

    @classmethod
    def builtin(cls, name, h=None) -> "TensorField":
        """Scalar of a named closure of ``_BUILTINS``; gradient by central differences."""
        try:
            fn, arity = _BUILTINS[name]
        except (KeyError, TypeError) as exc:  # TypeError: a name that is not hashable
            raise InputError(f"unknown builtin field {name!r}") from exc
        return cls.from_callable(fn, arity, h=h)

    # -- algebra (linear combinations keep exact jets) ----------------------

    def __add__(self, other) -> "TensorField":
        """Entrywise sum.  Of packed tensors it is packed, this tensor's terms first.

        Otherwise it is array-valued, with the sum of the operands' gradients
        as its exact gradient; an operand whose jet is central differences
        cannot be added.
        """
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.shape != other.shape or self.arity != other.arity:
            raise InputError("tensor fields differ in shape or arity")
        if self._terms is not None and other._terms is not None:
            terms = (np.concatenate(pair) for pair in zip(self._terms, other._terms))
            return TensorField._packed(self.shape, self.arity, *terms)
        if any(T._fn is not None and T._grad is None for T in (self, other)):
            raise InputError("a TensorField with a central-difference jet cannot be added")
        return TensorField.from_array_fn(
            lambda Q: self._values(Q) + other._values(Q),
            self.shape,
            self.arity,
            grad=lambda Q: self._gradient(Q) + other._gradient(Q),
        )

    def __sub__(self, other) -> "TensorField":
        return self + -other

    def __neg__(self) -> "TensorField":
        return self.scaled(-1.0)

    def __mul__(self, w) -> "TensorField":
        return self.scaled(w)

    __rmul__ = __mul__

    def scaled(self, w, axes=None) -> "TensorField":
        """``w`` times this tensor with its indices permuted as ``np.transpose(., axes)``.

        A packed tensor stays packed, with exact jets; an array-valued tensor
        stays one call, of the wrapped callable itself, and an exact gradient
        stays exact.
        """
        w = float(w)
        axes = tuple(range(len(self.shape))) if axes is None else tuple(axes)
        shape = [self.shape[a] for a in axes]
        if self._terms is None:  # array-valued; the batch axis stays first, the derivative last

            def permuted(fn, tail):
                if axes == tuple(sorted(axes)):  # the identity: no transpose
                    return lambda Q: np.multiply(w, fn(Q))
                last = tuple(a - len(axes) - len(tail) for a in axes) + tail
                return lambda Q: w * np.transpose(fn(Q), (*range(Q.ndim - 1), *last))

            fn = self._fn or self._values  # over a point, the folded constant
            grad = self._grad and permuted(self._grad, (-1,))
            return TensorField.from_array_fn(permuted(fn, ()), shape, self.arity, self._h, grad)
        rows, coefs, exps = self._terms
        # the new flat position of every old entry
        where = np.transpose(np.arange(math.prod(shape)).reshape(shape), np.argsort(axes))
        return TensorField._packed(shape, self.arity, where.reshape(-1)[rows], w * coefs, exps)

    # -- evaluation ---------------------------------------------------------

    def eval(self, q) -> np.ndarray:
        q = _check_point(q, self.arity)
        vals = self._values(q)
        if self._const is None and not np.isfinite(vals).all():
            raise NumericError("tensor field evaluated to non-finite entries")
        return vals

    def gradient(self, q) -> np.ndarray:
        """Gradient ``[*batch, *shape, arity]``; a packed one reads :meth:`gradient_table`."""
        q = _check_point(q, self.arity)
        g = self._gradient(q)
        if not np.isfinite(g).all():
            raise NumericError(f"field gradient non-finite at {q.tolist()}")
        return g

    def _values(self, q) -> np.ndarray:
        """Values at a validated point or batch ``q``."""
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
        return matvec(self._Cv, _monomials(q, self._Ev)).reshape(out_shape)

    def gradient_table(self):
        """``(E, C)`` such that ``C @ q**E`` is the packed gradient, ``[size * arity]``.

        Its columns are the terms' derivatives (:func:`_derivative_terms`),
        unmerged, so each has one non-zero entry.  Built on the first call.
        """
        if self._Cg is None:
            rows, coefs, exps = self._terms
            t, i, dcoefs, self._Eg = _derivative_terms(coefs, exps)
            C = np.zeros((math.prod(self.shape) * self.arity, t.shape[0]))
            C[rows[t] * self.arity + i, np.arange(t.shape[0])] = dcoefs
            self._Cg = C
        return self._Eg, self._Cg

    def _gradient(self, q) -> np.ndarray:
        """Gradient ``[*batch, *shape, arity]`` at a validated point or batch ``q``.

        A packed gradient reads only the derivative monomials; a scalar's
        (the RK4 kernel's dH) is returned without a reshape.
        """
        if self._const is None and self._terms is not None:
            E, C = self.gradient_table()
            g = matvec(C, _monomials(q, E))
            return g.reshape(q.shape[:-1] + self.shape + (self.arity,)) if self.shape else g
        out_shape = q.shape[:-1] + self.shape + (self.arity,)
        if self._const is not None:
            return np.zeros(out_shape)
        if self._grad is not None:
            return np.array(self._grad(q), dtype=float).reshape(out_shape)
        return _central_jet(self._values, q, self._h, self.shape)[1]

    def jet_table(self):
        """``(E, C)`` of the packed terms (:func:`_jet_table`), built on the first call."""
        if self._C is None:
            self._E, _, self._C = _jet_table(*self._terms, math.prod(self.shape), self.arity)
        return self._E, self._C

    def _jet(self, q):
        """Values and gradients at a validated point or batch ``q``."""
        if self._const is None and self._terms is not None:
            size, batch = math.prod(self.shape), q.shape[:-1]
            E, C = self.jet_table()
            jet = matvec(C, _monomials(q, E))  # the values and gradients are views of it
            return (
                jet[..., :size].reshape(batch + self.shape),
                jet[..., size:].reshape(batch + self.shape + (self.arity,)),
            )
        if self._fn is not None and self._grad is None:
            return _central_jet(self._values, q, self._h, self.shape)
        return self._values(q), self._gradient(q)

    def eval_grad(self, q):
        """Values and gradients: shapes ``shape`` and ``shape + (arity,)``, batch axis first."""
        vals, grads = self._jet(_check_point(q, self.arity))
        if self._const is None and not (np.isfinite(vals).all() and np.isfinite(grads).all()):
            raise NumericError("tensor field jet non-finite")
        return vals, grads

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape}, arity={self.arity})"


# ``bench/tracing.py`` names this alias (``SmoothField.gradient``); it goes
# together with ``hamiltonian.energy_rate`` when those traced spans move
SmoothField = TensorField


def tensor_from_config(obj, shape, arity, key="tensor") -> TensorField:
    """Nested lists of exactly ``shape`` -> one TensorField, walked once.

    A leaf is a number (a constant term), a config field object (parsed by
    :func:`field_from_config_with_arity`) or a :class:`TensorField` of shape
    ``()``.  The
    terms of polynomial leaves are packed in flat-index order.  If any other
    leaf is given, the tensor is array-valued: its values and gradients are
    the packed part's, plus each such leaf's in its entry, so the packed
    entries keep exact jets.  A list of the wrong length, a malformed leaf or
    a leaf of another arity raises :class:`InputError` naming the entry as
    ``key[i][j]...``.
    """
    shape = tuple(int(s) for s in shape)
    rows, coefs, exps, leaves = [], [], [], []
    constant = [0] * int(arity)

    def leaf(node, flat, where):
        if _is_number(node):
            if not is_finite_number(node):
                raise InputError(f"coefficients must be finite at {where}")
            if node != 0:
                rows.append(flat)
                coefs.append(float(node))
                exps.append(constant)
            return
        f = node
        if not (isinstance(f, TensorField) and f.shape == ()):
            f = field_from_config_with_arity(node, arity, where)
        if f.arity != arity:
            raise InputError(f"field arity {f.arity} does not match expected {arity} at {where}")
        if f._terms is None:
            leaves.append((flat, f))
            return
        _, c, e = f._terms
        rows.extend([flat] * c.shape[0])
        coefs.extend(c.tolist())
        exps.extend(e.tolist())

    def walk(node, idx, flat):
        depth = len(idx)
        where = f"{key}{''.join(f'[{i}]' for i in idx)}"
        if depth == len(shape):
            return leaf(node, flat, where)
        if not isinstance(node, list) or len(node) != shape[depth]:
            got = len(node) if isinstance(node, list) else type(node).__name__
            raise InputError(
                f"tensor config does not match shape {list(shape)}: expected a list of "
                f"{shape[depth]} entries, got {got} at {where}"
            )
        for i, child in enumerate(node):
            walk(child, idx + (i,), flat * shape[depth] + i)

    walk(obj, (), 0)
    packed = TensorField._packed(
        shape,
        arity,
        np.array(rows, dtype=int),
        np.array(coefs, dtype=float),
        np.array(exps, dtype=int).reshape(len(rows), int(arity)),
    )
    if not leaves:
        return packed
    size = math.prod(shape)

    def fn(Q):
        vals = np.array(packed._values(Q)).reshape(Q.shape[:-1] + (size,))
        for k, f in leaves:
            vals[..., k] += f._values(Q)
        return vals.reshape(Q.shape[:-1] + shape)

    def grad(Q):
        grads = np.array(packed._gradient(Q)).reshape(Q.shape[:-1] + (size, int(arity)))
        for k, f in leaves:
            grads[..., k, :] += f._gradient(Q)
        return grads.reshape(Q.shape[:-1] + shape + (int(arity),))

    return TensorField.from_array_fn(fn, shape, arity, grad=grad)
