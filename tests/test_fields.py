import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algmech.errors import InputError, NumericError
from algmech.fields import (
    TensorField,
    _derivative_terms,
    _jet_table,
    _merge_monomials,
    fd_default_step,
    tensor_from_config,
)
from algmech.randoms import random_polynomial_tensor

from conftest import field_from_polynomial, nested


def test_polynomial_eval_and_gradient():
    f = field_from_polynomial([(1.0, [2, 1])], 2)  # q1^2 q2
    v, g = f.eval_grad([2.0, 3.0])
    assert v == 12.0
    assert np.allclose(g, [12.0, 4.0], rtol=0, atol=0)


def test_constant_field():
    f = TensorField.from_constants(5.0, 1)
    v, g = f.eval_grad([0.0])
    assert v == 5.0
    assert g.shape == (1,) and g[0] == 0.0


def test_sin_builtin_fd_gradient():
    f = TensorField.builtin("sin", h=1e-5)
    v, g = f.eval_grad([0.0])
    assert v == 0.0
    # central-difference truncation is bounded by h^2/6 * max|f'''| = 1.7e-11
    assert abs(g[0] - 1.0) <= 1e-10


def test_field_from_polynomial_examples():
    f = field_from_polynomial([(1, [2, 0]), (-3, [0, 1])], 2)
    assert f.eval([1.0, 1.0]) == -2.0

    z = field_from_polynomial([], 3)
    assert z.eval([4.0, -1.0, 2.0]) == 0.0
    assert np.all(z.gradient([4.0, -1.0, 2.0]) == 0.0)

    lin = field_from_polynomial([(2, [1])], 1)
    assert np.allclose(lin.gradient([17.3]), [2.0])


def test_arity_zero_polynomial():
    f = field_from_polynomial([(3.0, [])], 0)
    v, g = f.eval_grad([])
    assert v == 3.0 and g.shape == (0,)


def test_input_errors():
    with pytest.raises(InputError):
        field_from_polynomial([(1.0, [1, 2])], 1)  # exponent length mismatch
    with pytest.raises(InputError):
        field_from_polynomial([(1.0, [-1])], 1)  # negative exponent
    f = field_from_polynomial([(1.0, [1])], 1)
    with pytest.raises(InputError):
        f.eval([1.0, 2.0])  # wrong point length
    with pytest.raises(InputError):
        f.eval([math.nan])


def test_non_finite_result_is_numeric_error():
    f = TensorField.from_callable(lambda q: math.inf, 1, grad=lambda q: [0.0])
    with pytest.raises(NumericError):
        f.eval([0.0])


@st.composite
def poly_and_point(draw):
    arity = draw(st.integers(1, 3))
    nterms = draw(st.integers(1, 5))
    terms = []
    for _ in range(nterms):
        coef = draw(st.floats(-3, 3, allow_nan=False))
        exp = [draw(st.integers(0, 4)) for _ in range(arity)]
        while sum(exp) > 4:
            exp[exp.index(max(exp))] -= 1
        terms.append((coef, exp))
    q = [draw(st.floats(-2, 2, allow_nan=False)) for _ in range(arity)]
    return terms, arity, q


@settings(max_examples=50, deadline=None)
@given(poly_and_point())
def test_polynomial_gradient_matches_term_differentiation(data):
    terms, arity, q = data
    f = field_from_polynomial(terms, arity)
    q = np.asarray(q)
    g = f.gradient(q)
    expected = np.zeros(arity)
    for coef, exp in terms:
        for i in range(arity):
            if exp[i] == 0:
                continue
            d = list(exp)
            d[i] -= 1
            expected[i] += coef * exp[i] * np.prod(q ** np.asarray(d))
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(g - expected)) <= 1e-14 * scale


@settings(max_examples=50, deadline=None)
@given(poly_and_point(), st.sampled_from([1e-4, 1e-5]))
def test_fd_gradient_within_h_squared_bound(data, h):
    terms, arity, q = data
    f = field_from_polynomial(terms, arity)
    wrapped = TensorField.from_callable(f.eval, arity, h=h)
    g_exact = f.gradient(q)
    g_fd = wrapped.gradient(q)
    # C h^2 truncation with C from a coarse third-derivative bound on [-2,2]^n,
    # plus the roundoff floor eps/h
    bound = 200.0 * sum(abs(c) for c, _ in terms) * h * h + 1e-12 / h
    assert np.max(np.abs(g_fd - g_exact)) <= bound + 1e-12


def test_linear_combinations_keep_exact_jets():
    f = field_from_polynomial([(2.0, [1, 0])], 2)
    g = TensorField.from_callable(
        lambda q: math.sin(q[0]) * q[1],
        2,
        grad=lambda q: [math.cos(q[0]) * q[1], math.sin(q[0])],
    )
    combo = f - g.scaled(2.0)
    q = np.array([0.3, -1.2])
    assert np.isclose(combo.eval(q), 2 * q[0] - 2 * math.sin(q[0]) * q[1])
    expect = np.array(
        [2 - 2 * math.cos(q[0]) * q[1], -2 * math.sin(q[0])]
    )
    assert np.allclose(combo.gradient(q), expect, atol=1e-15)


def test_tensor_field_eval_shapes():
    T = TensorField.from_constants(np.arange(6.0).reshape(2, 3), 1)
    out = T.eval([0.5])
    assert out.shape == (2, 3)
    vals, grads = T.eval_grad([0.5])
    assert grads.shape == (2, 3, 1)
    assert np.all(grads == 0.0)


def test_empty_tensor_field():
    T = TensorField.zeros((0, 3), 0)
    assert T.eval([]).shape == (0, 3)


def test_fd_step_env_override(monkeypatch):
    monkeypatch.setenv("ALGMECH_FD_STEP", "1e-3")
    assert fd_default_step() == 1e-3
    for raw in ("-1", "inf", "nan"):
        monkeypatch.setenv("ALGMECH_FD_STEP", raw)
        with pytest.raises(InputError, match="ALGMECH_FD_STEP"):
            fd_default_step()
    monkeypatch.delenv("ALGMECH_FD_STEP")
    assert fd_default_step() == 1e-5


# -- packed tensors against a term-by-term oracle ------------------------------


def _random_terms(rng, arity, nterms):
    """Random terms with repeated monomials, so that packing has to merge them."""
    pool = [[int(e) for e in rng.integers(0, 3, size=arity)] for _ in range(max(1, nterms // 2))]
    return [(float(rng.uniform(-2, 2)), pool[int(rng.integers(len(pool)))]) for _ in range(nterms)]


def _oracle_jet(terms, arity, q):
    """Value, gradient and rounding scale of sum c * prod q_j^e_j in plain floats."""
    value, scale = 0.0, 0.0
    grad = [0.0] * arity
    for coef, exp in terms:
        mono = 1.0
        for qj, ej in zip(q, exp):
            mono *= qj**ej
        value += coef * mono
        scale += abs(coef * mono)
        for i in range(arity):
            if exp[i]:
                d = coef * exp[i]
                for j, (qj, ej) in enumerate(zip(q, exp)):
                    d *= qj ** (ej - 1 if j == i else ej)
                grad[i] += d
                scale += abs(d)
    return value, grad, scale


def _wiggle(q):
    return math.sin(0.5 + sum(float(v) for v in q))


def _wiggle_grad(q):
    return [math.cos(0.5 + sum(float(v) for v in q))] * len(q)


def _random_tensor_case(seed, arity, shape, kind):
    """A tensor of the given kind plus, per component, its terms or a closure."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(int(np.prod(shape))):
        if kind == "zero":
            specs.append([])
        elif kind == "constant":
            specs.append([(float(rng.uniform(-2, 2)), [0] * arity)])
        else:
            specs.append(_random_terms(rng, arity, int(rng.integers(0, 6))))
    if kind == "mixed":
        specs[int(rng.integers(len(specs)))] = "closure"
    comps = [
        TensorField.from_callable(_wiggle, arity, grad=_wiggle_grad)
        if spec == "closure"
        else TensorField.polynomial(spec, arity)
        for spec in specs
    ]
    return tensor_from_config(nested(comps, shape), shape, arity), specs


PACKED_CASES = [
    (seed, arity, shape, kind)
    for seed, (arity, shape) in enumerate(
        [(0, (3, 3, 3)), (1, (2,)), (2, (2, 2)), (3, (3, 3, 3)), (3, (2, 3)), (2, (1,))]
    )
    for kind in ("polynomial", "constant", "zero", "mixed")
]


@pytest.mark.parametrize("seed,arity,shape,kind", PACKED_CASES)
def test_packed_tensor_matches_term_by_term_oracle(seed, arity, shape, kind):
    T, specs = _random_tensor_case(seed, arity, shape, kind)
    rng = np.random.default_rng(100 + seed)
    for q in [np.zeros(arity)] + [rng.uniform(-1.5, 1.5, size=arity) for _ in range(5)]:
        ql = [float(v) for v in q]
        vals = T.eval(q)
        jv, jg = T.eval_grad(q)
        assert vals.shape == shape and jv.shape == shape and jg.shape == shape + (arity,)
        for k, idx in enumerate(np.ndindex(*shape)):
            if specs[k] == "closure":
                value, grad, scale = _wiggle(ql), _wiggle_grad(ql), 1.0
            else:
                value, grad, scale = _oracle_jet(specs[k], arity, ql)
            tol = 1e-13 * max(scale, 1e-300)
            assert abs(vals[idx] - value) <= tol
            assert abs(jv[idx] - value) <= tol
            for i in range(arity):
                assert abs(jg[idx][i] - grad[i]) <= tol


def _jet_table_reference(rows, coefs, exps, size, arity):
    """The packing with monomials merged on the byte image of each row and summed by ``np.add.at``.

    The former implementation, kept as the reference: for exponents below
    256 its byte order is the lexicographic order of the rows.
    """
    t, i, dcoefs, dexps = _derivative_terms(coefs, exps)
    E = np.ascontiguousarray(np.concatenate([exps, dexps]))
    if arity == 0:
        E, col = E[:1], np.zeros(E.shape[0], dtype=np.intp)
    else:
        rows_as_bytes = E.view(np.dtype((np.void, E.dtype.itemsize * arity))).reshape(-1)
        distinct, col = np.unique(rows_as_bytes, return_inverse=True)
        E, col = distinct.view(E.dtype).reshape(-1, arity), col.reshape(-1)
    is_value = np.zeros(E.shape[0], dtype=bool)
    is_value[col[: exps.shape[0]]] = True
    order = np.argsort(~is_value, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    C = np.zeros((size * (1 + arity), E.shape[0]))
    np.add.at(
        C, (np.concatenate([rows, size + rows[t] * arity + i]), rank[col]), np.concatenate([coefs, dcoefs])
    )
    return E[order].astype(float), int(is_value.sum()), C


@pytest.mark.parametrize("seed", range(40))
def test_jet_table_is_bit_equal_to_the_byte_keyed_packing(seed):
    rng = np.random.default_rng(seed)
    arity, size, T = int(rng.integers(0, 5)), int(rng.integers(1, 6)), int(rng.integers(0, 40))
    exps = rng.integers(0, int(rng.integers(1, 7)), size=(T, arity))
    rows, coefs = rng.integers(0, size, size=T), rng.uniform(-1, 1, T)
    E, nv, C = _jet_table(rows, coefs, exps, size, arity)
    E_ref, nv_ref, C_ref = _jet_table_reference(rows, coefs, exps, size, arity)
    assert nv == nv_ref and np.array_equal(E, E_ref)
    assert C.shape == C_ref.shape and C.tobytes() == C_ref.tobytes()


def test_merged_monomials_sort_lexicographically_when_keys_overflow():
    big = 2**40  # (big + 1) ** 2 does not fit an int64 key
    E = np.array([[0, big], [1, 0], [0, big], [0, 1]])
    distinct, where = _merge_monomials(E)
    assert distinct.tolist() == [[0, 1], [0, big], [1, 0]] and where.tolist() == [1, 2, 1, 0]


@pytest.mark.parametrize("kind", ["polynomial", "constant", "zero", "mixed"])
def test_returned_arrays_are_owned_by_the_caller(kind):
    T, _ = _random_tensor_case(7, 2, (2, 2), kind)
    q = np.array([0.3, -0.7])
    ref_v = T.eval(q).copy()
    ref_jv, ref_jg = (a.copy() for a in T.eval_grad(q))
    T.eval(q)[:] = 99.0
    jv, jg = T.eval_grad(q)
    jv[:] = 99.0
    jg[:] = 99.0
    assert np.array_equal(T.eval(q), ref_v)
    jv, jg = T.eval_grad(q)
    assert np.array_equal(jv, ref_jv) and np.array_equal(jg, ref_jg)
    assert np.array_equal(q, [0.3, -0.7])


def test_every_scalar_constructor_builds_a_tensor_field():
    from algmech import fields

    built = [
        TensorField.polynomial([(1.0, [1, 0])], 2),
        TensorField.from_callable(lambda q: q[0], 2),
        TensorField.builtin("sin"),
        TensorField.from_constants(2.0, 2),
        TensorField.zeros((), 2),
    ]
    for f in built:
        assert type(f) is TensorField and f.shape == ()
    assert fields.SmoothField is TensorField


def test_a_config_leaf_may_be_a_scalar_tensor_but_not_a_vector():
    f = field_from_polynomial([(2.0, [1, 0])], 2)
    assert np.array_equal(tensor_from_config([f, 1.0], (2,), 2).eval([3.0, 0.0]), [6.0, 1.0])
    v = TensorField.from_constants([1.0, 2.0], 2)
    with pytest.raises(InputError, match=r"got TensorField at vec\[1\]$"):
        tensor_from_config([f, v], (2,), 2, key="vec")


def test_overflowing_point_is_numeric_error():
    f = field_from_polynomial([(1.0, [3, 0])], 2)
    T = tensor_from_config([f, TensorField.from_constants(1.0, 2)], (2,), 2)
    q = [1e200, 1.0]
    with pytest.raises(NumericError):
        T.eval(q)
    with pytest.raises(NumericError):
        T.eval_grad(q)
    with pytest.raises(NumericError):
        f.gradient(q)
    with pytest.raises(InputError):
        T.eval([math.inf, 1.0])


def test_polynomial_gradient_needs_only_its_derivative_monomials():
    # the value q1^3 overflows at this point; the gradient 3 q1^2 does not
    f = field_from_polynomial([(1.0, [3])], 1)
    assert f.gradient([1e103])[0] == pytest.approx(3e206)
    with pytest.raises(NumericError):
        f.eval([1e103])


# -- array-valued tensors against per-component FD fields ----------------------


def _array_fn(shape):
    """A smooth array-valued function whose entries all differ."""
    weights = np.arange(1.0, 1.0 + int(np.prod(shape))).reshape(shape)

    def fn(q):
        s = 0.3 + float(np.arange(1, q.shape[0] + 1) @ q)
        return np.sin(weights * s) + weights * s * s

    return fn


def _rowwise(fn):
    """A pointwise fn that also maps a batch ``Q[K, n]`` to ``[K, *shape]``, as from_array_fn asks."""
    return lambda Q: fn(Q) if Q.ndim == 1 else np.array([fn(q) for q in Q])


def _per_component(fn, shape, arity, h=None):
    entries = [
        TensorField.from_callable(lambda q, idx=idx: float(fn(q)[idx]), arity, h=h)
        for idx in np.ndindex(*shape)
    ]
    return tensor_from_config(nested(entries, shape), shape, arity)


@pytest.mark.parametrize("h", [None, 1e-4])
@pytest.mark.parametrize(
    "arity,shape", [(0, (3, 3)), (1, (2,)), (2, (2, 2, 2)), (3, (3, 3, 3)), (3, (2, 2, 2, 2))]
)
def test_array_form_is_bit_equal_to_per_component_fd(arity, shape, h):
    fn = _array_fn(shape)
    T = TensorField.from_array_fn(_rowwise(fn), shape, arity, h=h)
    ref = _per_component(fn, shape, arity, h=h)
    rng = np.random.default_rng(40 + arity)
    for q in [np.zeros(arity)] + [rng.uniform(-1, 1, size=arity) for _ in range(4)]:
        assert np.array_equal(T.eval(q), ref.eval(q))
        (v, g), (rv, rg) = T.eval_grad(q), ref.eval_grad(q)
        assert g.shape == shape + (arity,)
        assert np.array_equal(v, rv) and np.array_equal(g, rg)


def test_array_form_over_a_point_calls_fn_once_when_built():
    calls = []

    def fn(q):
        calls.append(q.shape)
        return np.arange(6.0).reshape(2, 3)

    T = TensorField.from_array_fn(fn, (2, 3), 0)
    assert calls == [(0,)]
    for _ in range(3):
        vals = T.eval([])
        assert np.array_equal(vals, np.arange(6.0).reshape(2, 3))
        vals[:] = 99.0
        v, g = T.eval_grad(np.zeros(0))
        assert np.array_equal(v, np.arange(6.0).reshape(2, 3)) and g.shape == (2, 3, 0)
    assert calls == [(0,)]


def test_array_form_non_finite_is_numeric_error():
    with pytest.raises(NumericError):
        TensorField.from_array_fn(lambda q: np.array([1.0, math.nan]), (2,), 0)
    # finite at q <= 0; the jet's stencil at 0 reaches a non-finite entry
    T = TensorField.from_array_fn(lambda Q: np.where(Q > 0, math.inf, 1.0), (1,), 1)
    assert T.eval([0.0])[0] == 1.0
    with pytest.raises(NumericError):
        T.eval_grad([0.0])
    with pytest.raises(NumericError):
        T.eval([1.0])
    with pytest.raises(NumericError):
        T.eval_grad([1.0])


def test_array_form_honours_fd_step_env(monkeypatch):
    cube = lambda q: q[..., :1] ** 3  # noqa: E731  (one point or a batch)
    # central difference of q^3 at q = 1: 3 + h^2, exact in binary for these h
    monkeypatch.setenv("ALGMECH_FD_STEP", "0.25")
    assert TensorField.from_array_fn(cube, (1,), 1).eval_grad([1.0])[1][0, 0] == 3.0625
    assert TensorField.from_array_fn(cube, (1,), 1, h=0.5).eval_grad([1.0])[1][0, 0] == 3.25
    monkeypatch.delenv("ALGMECH_FD_STEP")
    _, g = TensorField.from_array_fn(cube, (1,), 1).eval_grad([1.0])
    assert g[0, 0] == _per_component(cube, (1,), 1).eval_grad([1.0])[1][0, 0]


@pytest.mark.parametrize("arity", [0, 2])
def test_scaled_transposes_both_forms(arity):
    rng = np.random.default_rng(5)
    packed, _ = _random_tensor_case(11, arity, (2, 3, 2), "polynomial")
    mixed, _ = _random_tensor_case(12, arity, (2, 3, 2), "mixed")
    array = TensorField.from_array_fn(_rowwise(_array_fn((2, 3, 2))), (2, 3, 2), arity)
    for T in (packed, mixed, array):
        S = T.scaled(-2.0, (0, 2, 1))
        assert S.shape == (2, 2, 3)
        for q in [np.zeros(arity), rng.uniform(-1, 1, size=arity)]:
            (v, g), (sv, sg) = T.eval_grad(q), S.eval_grad(q)
            assert np.array_equal(sv, -2.0 * np.swapaxes(v, 1, 2))
            assert np.allclose(sg, -2.0 * np.swapaxes(g, 1, 2), rtol=1e-9, atol=1e-12)
    # packed components stay packed, with exact jets
    S = packed.scaled(3.0)
    assert S._fn is None and S._terms is not None


@pytest.mark.parametrize("arity", [0, 2])
def test_sum_of_packed_and_mixed_is_entrywise(arity):
    rng = np.random.default_rng(6)
    packed, _ = _random_tensor_case(13, arity, (2, 3), "polynomial")
    mixed, _ = _random_tensor_case(14, arity, (2, 3), "mixed")
    assert mixed._terms is None  # array-valued: its packed part plus the closure
    for A, B in ((packed, mixed), (mixed, packed), (mixed, mixed)):
        S = A + B
        assert S._terms is None and (arity == 0 or S._grad is not None)  # an exact jet
        for q in [np.zeros(arity), rng.uniform(-1, 1, size=arity)]:
            (av, ag), (bv, bg), (sv, sg) = A.eval_grad(q), B.eval_grad(q), S.eval_grad(q)
            for got, ref in ((sv, av + bv), (sg, ag + bg), (S.eval(q), av + bv)):
                err, scale = (np.max(np.abs(a), initial=0.0) for a in (got - ref, ref))
                assert err <= 1e-14 * scale


def test_sum_with_array_valued_is_input_error():
    packed, _ = _random_tensor_case(15, 2, (2, 2), "polynomial")
    array = TensorField.from_array_fn(_rowwise(_array_fn((2, 2))), (2, 2), 2)
    for A, B in ((packed, array), (array, packed), (array, array)):
        with pytest.raises(InputError):
            A + B


def test_adding_a_non_tensor_is_a_type_error():
    T = TensorField.from_constants(np.ones((2, 2)), 1)
    f = TensorField.polynomial([(1.0, [1])], 1)
    for A in (T, f):
        for other in (1.0, None):
            with pytest.raises(TypeError):
                A + other
            with pytest.raises(TypeError):
                A - other


# -- exact jets of array-valued tensors --------------------------------------------


def _spy_on_central_jet(monkeypatch):
    """The shapes of every central-difference sweep run from now on."""
    import algmech.fields as fields

    calls, real = [], fields._central_jet

    def spy(fn, q, h, shape):
        calls.append(tuple(shape))
        return real(fn, q, h, shape)

    monkeypatch.setattr(fields, "_central_jet", spy)
    return calls


_W = np.arange(1.0, 7.0).reshape(2, 3)


def _wave(Q):  # [*batch, 2, 3] at Q[*batch, 2]
    return np.sin(_W * Q[..., 0, None, None]) + _W * Q[..., 1, None, None] ** 2


def _wave_grad(Q):  # its exact gradient, [*batch, 2, 3, 2]
    q0, q1 = Q[..., 0, None, None], Q[..., 1, None, None]
    return np.stack([_W * np.cos(_W * q0), 2.0 * _W * q1], axis=-1)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_an_exact_jet_is_returned_bit_for_bit(monkeypatch):
    calls = _spy_on_central_jet(monkeypatch)
    T = TensorField.from_array_fn(_wave, (2, 3), 2, grad=_wave_grad)
    S = T.scaled(-2.0, (1, 0))
    P = random_polynomial_tensor(np.random.default_rng(8), (2, 3), 2, 2)
    rng = np.random.default_rng(9)
    for q in (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (7, 2))):  # a point, a batch of K = 7
        v, g = T.eval_grad(q)
        assert _bits(v) == _bits(_wave(q)) and _bits(g) == _bits(_wave_grad(q))
        sv, sg = S.eval_grad(q)
        assert sv.shape == q.shape[:-1] + (3, 2) and sg.shape == q.shape[:-1] + (3, 2, 2)
        assert _bits(sv) == _bits(-2.0 * np.swapaxes(_wave(q), -1, -2))
        assert _bits(sg) == _bits(-2.0 * np.swapaxes(_wave_grad(q), -2, -3))
        for U in (P + T, T + P):
            (uv, ug), (pv, pg) = U.eval_grad(q), P.eval_grad(q)
            assert _bits(uv) == _bits(pv + _wave(q))
            ref = pg + _wave_grad(q)
            assert np.all(np.abs(ug - ref) <= 1e-14 * (1 + np.abs(ref)))
    assert calls == []  # no central difference ran


def test_a_config_tensor_takes_central_differences_only_on_its_closure_leaf(monkeypatch):
    calls = _spy_on_central_jet(monkeypatch)
    square = {"arity": 1, "terms": [{"coef": 2.0, "exp": [2]}]}
    T = tensor_from_config([[square, {"arity": 1, "builtin": "sin"}]], (1, 2), 1)
    for q in (np.array([0.4]), np.linspace(-1, 1, 7)[:, None]):
        v, g = T.eval_grad(q)
        assert calls == [()]  # one sweep, of the sin leaf alone
        calls.clear()
        assert _bits(g[..., 0, 0, 0]) == _bits(4.0 * q[..., 0])  # the exact jet of 2 q^2
        assert np.all(np.abs(g[..., 0, 1, 0] - np.cos(q[..., 0])) <= 1e-9)
        assert _bits(v[..., 0, 1]) == _bits(np.sin(q[..., 0]))


# -- packed tables are built on first read --------------------------------------


def _no_table(T):
    return T._E is None and T._C is None and T._Ev is None and T._Cv is None


def test_building_a_packed_tensor_builds_no_table():
    F = TensorField.from_terms([0, 1, 1], [1.0, 2.0, -3.0], [[1, 0], [0, 2], [1, 1]], (2,), 2)
    closure = TensorField.from_callable(lambda q: q[0] * q[1], 2, grad=lambda q: q[::-1])
    mixed = tensor_from_config([field_from_polynomial([(1.0, [2, 0])], 2), closure], (2,), 2)
    for T in (F, mixed, F + mixed, F.scaled(2.0), mixed.scaled(-1.0)):
        assert _no_table(T)
    q = np.array([0.3, -0.7])
    F.eval(q)  # the values: the value table only
    assert F._Cv is not None and F._C is None and F._E is None
    F.eval_grad(q)  # the jet: the full table
    assert F._C is not None and F._E is not None
    mixed.eval_grad(q)  # array-valued: the tables are its packed part's
    assert _no_table(mixed)


@pytest.mark.parametrize("seed", range(40))
def test_the_value_table_is_the_value_block_of_the_jet_table(seed):
    rng = np.random.default_rng(1000 + seed)
    size, T = int(rng.integers(1, 6)), int(rng.integers(1, 40))
    if seed % 5 == 0:  # exponents whose integer keys overflow: _merge_monomials' fallback
        arity = int(rng.integers(2, 5))
        exps = rng.integers(0, 2**40, size=(T, arity))
        assert (int(exps.max()) + 1) ** arity > np.iinfo(np.int64).max
    else:
        arity = int(rng.integers(0, 5))
        exps = rng.integers(0, int(rng.integers(1, 7)), size=(T, arity))
    rows, coefs = rng.integers(0, size, size=T), rng.uniform(-1, 1, T)
    F = TensorField.from_terms(rows, coefs, exps, (size,), arity)
    F._value_table()
    E, nv, C = _jet_table(rows, coefs, exps, size, arity)
    assert np.array_equal(F._Ev, E[:nv]) and np.array_equal(F._Cv, C[:size, :nv])
    assert F._Cv.tobytes() == np.ascontiguousarray(C[:size, :nv]).tobytes()
    # eval reads the value table before and after eval_grad builds the jet table
    G = TensorField.from_terms(rows, coefs, exps, (size,), arity)
    Q = rng.uniform(-1, 1, size=(3, arity))
    before = [G.eval(Q[0]), G.eval(Q)]
    G.eval_grad(Q)
    after = [G.eval(Q[0]), G.eval(Q)]
    for b, a in zip(before, after):
        assert b.tobytes() == a.tobytes()


def test_no_module_builds_an_object_array():
    # nested input is packed by tensor_from_config in one walk; an array with one
    # Python object per entry is the per-entry form it replaced
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "algmech"
    pattern = re.compile(r"dtype\s*=\s*(object|['\"]O['\"])")
    assert [p.name for p in sorted(src.glob("*.py")) if pattern.search(p.read_text())] == []
