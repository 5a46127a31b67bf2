import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algmech.errors import InputError, NumericError
from algmech.fields import (
    SmoothField,
    TensorField,
    field_from_config_with_arity,
    field_from_polynomial,
    fd_default_step,
    tensor_from_config,
)


def test_polynomial_eval_and_gradient():
    f = field_from_polynomial([(1.0, [2, 1])], 2)  # q1^2 q2
    v, g = f.eval([2.0, 3.0])
    assert v == 12.0
    assert np.allclose(g, [12.0, 4.0], rtol=0, atol=0)


def test_constant_field():
    f = SmoothField.constant(5.0, 1)
    v, g = f.eval([0.0])
    assert v == 5.0
    assert g.shape == (1,) and g[0] == 0.0


def test_sin_builtin_fd_gradient():
    f = SmoothField.builtin("sin", h=1e-5)
    v, g = f.eval([0.0])
    assert v == 0.0
    # central-difference truncation is bounded by h^2/6 * max|f'''| = 1.7e-11
    assert abs(g[0] - 1.0) <= 1e-10


def test_field_from_polynomial_examples():
    f = field_from_polynomial([(1, [2, 0]), (-3, [0, 1])], 2)
    assert f.value([1.0, 1.0]) == -2.0

    z = field_from_polynomial([], 3)
    assert z.value([4.0, -1.0, 2.0]) == 0.0
    assert np.all(z.gradient([4.0, -1.0, 2.0]) == 0.0)

    lin = field_from_polynomial([(2, [1])], 1)
    assert np.allclose(lin.gradient([17.3]), [2.0])


def test_arity_zero_polynomial():
    f = field_from_polynomial([(3.0, [])], 0)
    v, g = f.eval([])
    assert v == 3.0 and g.shape == (0,)


def test_input_errors():
    with pytest.raises(InputError):
        field_from_polynomial([(1.0, [1, 2])], 1)  # exponent length mismatch
    with pytest.raises(InputError):
        field_from_polynomial([(1.0, [-1])], 1)  # negative exponent
    f = field_from_polynomial([(1.0, [1])], 1)
    with pytest.raises(InputError):
        f.value([1.0, 2.0])  # wrong point length
    with pytest.raises(InputError):
        f.value([math.nan])


def test_non_finite_result_is_numeric_error():
    f = SmoothField.from_callable(lambda q: math.inf, 1, grad=lambda q: [0.0])
    with pytest.raises(NumericError):
        f.value([0.0])


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
    wrapped = SmoothField.from_callable(f.value, arity, h=h)
    g_exact = f.gradient(q)
    g_fd = wrapped.gradient(q)
    # C h^2 truncation with C from a coarse third-derivative bound on [-2,2]^n,
    # plus the roundoff floor eps/h
    bound = 200.0 * sum(abs(c) for c, _ in terms) * h * h + 1e-12 / h
    assert np.max(np.abs(g_fd - g_exact)) <= bound + 1e-12


def test_linear_combinations_keep_exact_jets():
    f = field_from_polynomial([(2.0, [1, 0])], 2)
    g = SmoothField.from_callable(
        lambda q: math.sin(q[0]) * q[1],
        2,
        grad=lambda q: [math.cos(q[0]) * q[1], math.sin(q[0])],
    )
    combo = f - g.scaled(2.0)
    q = np.array([0.3, -1.2])
    assert np.isclose(combo.value(q), 2 * q[0] - 2 * math.sin(q[0]) * q[1])
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


def test_serialization_round_trip():
    f = field_from_polynomial([(1.5, [2, 0]), (-3.0, [0, 1])], 2)
    cfg = f.as_config()
    f2 = field_from_config_with_arity(cfg, 2)
    q = [0.7, -0.2]
    assert f.value(q) == f2.value(q)
    assert np.all(f.gradient(q) == f2.gradient(q))

    T = tensor_from_config([[1, 0], [0, cfg]], (2, 2), 2)
    assert T.eval(q)[1, 1] == f.value(q)


def test_fd_step_env_override(monkeypatch):
    monkeypatch.setenv("ALGMECH_FD_STEP", "1e-3")
    assert fd_default_step() == 1e-3
    monkeypatch.setenv("ALGMECH_FD_STEP", "-1")
    with pytest.raises(InputError):
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
        SmoothField.from_callable(_wiggle, arity, grad=_wiggle_grad)
        if spec == "closure"
        else SmoothField.polynomial(spec, arity)
        for spec in specs
    ]
    out = np.empty(len(comps), dtype=object)
    out[:] = comps
    return TensorField(out.reshape(shape), arity=arity), specs


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


def test_overflowing_point_is_numeric_error():
    T = TensorField(
        np.array([field_from_polynomial([(1.0, [3, 0])], 2), SmoothField.constant(1.0, 2)], dtype=object)
    )
    q = [1e200, 1.0]
    with pytest.raises(NumericError):
        T.eval(q)
    with pytest.raises(NumericError):
        T.eval_grad(q)
    with pytest.raises(NumericError):
        T[0].gradient(q)
    with pytest.raises(InputError):
        T.eval([math.inf, 1.0])


def test_polynomial_gradient_needs_only_its_derivative_monomials():
    # the value q1^3 overflows at this point; the gradient 3 q1^2 does not
    f = field_from_polynomial([(1.0, [3])], 1)
    assert f.gradient([1e103])[0] == pytest.approx(3e206)
    with pytest.raises(NumericError):
        f.value([1e103])


def test_packed_components_build_no_derivative_tables():
    T, specs = _random_tensor_case(2, 2, (2, 2), "polynomial")
    q = np.array([0.4, -1.1])
    T.eval(q)
    T.eval_grad(q)
    assert all(f._dexps is None and f._dcoefs is None for f in T.fields.reshape(-1))
    # a standalone gradient builds the table of its own component only
    f = T[0, 1]
    value, grad, scale = _oracle_jet(specs[1], 2, [0.4, -1.1])
    assert np.max(np.abs(f.gradient(q) - grad)) <= 1e-13 * max(scale, 1e-300)
    assert f._dexps is not None
    assert T[0, 0]._dexps is None


def test_components_and_fields_view():
    T, _ = _random_tensor_case(3, 2, (2, 3), "mixed")
    F = T.fields
    assert F.shape == (2, 3) and F.dtype == object
    for idx in np.ndindex(2, 3):
        assert T[idx] is F[idx]
    assert T[-1, -1] is F[1, 2]
    assert list(T[0]) == list(F[0])
    with pytest.raises(IndexError):
        T[2, 0]
