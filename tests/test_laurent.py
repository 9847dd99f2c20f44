from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallq.laurent import (
    ExactDivisionError,
    LaurentPoly,
    SqrtQScalar,
    bar_involution,
    evaluate_at_sqrt_q,
    gaussian_binomial_q,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)

V = LaurentPoly.v


def L(d):
    return LaurentPoly(d)


# independent oracle: count subspaces of F_q^d of dimension m by enumerating
# reduced row echelon bases directly
def count_subspaces_brute(d, m, q):
    if m == 0:
        return 1
    total = 0
    for pivots in combinations(range(d), m):
        free = 0
        for r, c in enumerate(pivots):
            for j in range(c + 1, d):
                if j not in pivots:
                    free += 1
        total += q**free
    return total


def test_quantum_integer_small():
    assert quantum_integer(0) == L({})
    assert quantum_integer(1) == L({0: 1})
    # frozen from expanding (v^3 - v^-3)/(v - v^-1) by hand
    assert quantum_integer(3) == L({2: 1, 0: 1, -2: 1})


def test_quantum_integer_against_multiplication_oracle():
    # [m] * (v - v^-1) == v^m - v^-m, division-free check
    for m in range(9):
        lhs = quantum_integer(m) * (V(1) - V(-1))
        assert lhs == V(m) - V(-m)


def test_quantum_factorial():
    assert quantum_factorial(0) == LaurentPoly.one()
    assert quantum_factorial(1) == LaurentPoly.one()
    assert quantum_factorial(2) == L({1: 1, -1: 1})


def test_quantum_binomial_examples():
    assert quantum_binomial(2, 1) == L({1: 1, -1: 1})
    assert quantum_binomial(5, 0) == LaurentPoly.one()
    assert quantum_binomial(3, 4) == LaurentPoly.zero()
    assert quantum_binomial(3, -1) == LaurentPoly.zero()


def test_quantum_binomial_symmetry_and_pascal():
    for m in range(9):
        for t in range(m + 1):
            b = quantum_binomial(m, t)
            assert b == quantum_binomial(m, m - t)
            if m >= 1:
                # Pascal identity in balanced form
                assert b == V(t) * quantum_binomial(m - 1, t) + V(t - m) * quantum_binomial(
                    m - 1, t - 1
                )


def test_gaussian_binomial_against_brute_count():
    for d in range(5):
        for m in range(d + 1):
            poly = gaussian_binomial_q(d, m)
            for q in (2, 3):
                assert poly.eval_rational(q) == count_subspaces_brute(d, m, q)
    assert gaussian_binomial_q(2, 1) == L({1: 1, 0: 1})
    assert gaussian_binomial_q(3, 3) == LaurentPoly.one()
    assert gaussian_binomial_q(1, 2) == LaurentPoly.zero()


def test_gaussian_vs_quantum_binomial_bridge():
    # v^{m(d-m)} * qbin(d,m) with q = v^2 equals gauss(d,m) for all d <= 6
    for d in range(7):
        for m in range(d + 1):
            qb = quantum_binomial(d, m)
            lifted = LaurentPoly({2 * e: c for e, c in gaussian_binomial_q(d, m).items()})
            assert V(m * (d - m)) * qb == lifted


def test_bar_involution():
    f = L({2: 1, 0: 3})
    assert bar_involution(f) == L({-2: 1, 0: 3})
    assert bar_involution(LaurentPoly.zero()) == LaurentPoly.zero()
    assert bar_involution(bar_involution(f)) == f
    # balanced binomials are bar-symmetric
    assert bar_involution(quantum_binomial(4, 2)) == quantum_binomial(4, 2)


def test_exact_division_raises_on_remainder():
    with pytest.raises(ExactDivisionError):
        (V(1) + 1).exact_div(V(1) - 1)
    with pytest.raises(ZeroDivisionError):
        V(1).exact_div(LaurentPoly.zero())


def test_evaluate_at_sqrt_q_examples():
    r = evaluate_at_sqrt_q(V(1) + V(-1), 2, 1)
    assert (r.even, r.odd) == (0, Fraction(3, 2))
    r = evaluate_at_sqrt_q(V(2), 3, -1)
    assert (r.even, r.odd) == (3, 0)
    r = evaluate_at_sqrt_q(LaurentPoly.one(), 5, 1)
    assert (r.even, r.odd) == (1, 0)
    # sign flips odd part only
    r = evaluate_at_sqrt_q(V(1) + V(-1), 2, -1)
    assert (r.even, r.odd) == (0, Fraction(-3, 2))


small_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
).map(LaurentPoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_evaluation_is_ring_homomorphism(f, g):
    for q, sign in [(2, 1), (3, -1), (5, 1)]:
        ef, eg = evaluate_at_sqrt_q(f, q, sign), evaluate_at_sqrt_q(g, q, sign)
        assert evaluate_at_sqrt_q(f * g, q, sign) == ef * eg
        assert evaluate_at_sqrt_q(f + g, q, sign) == ef + eg


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_sqrtq_field_ops():
    a = SqrtQScalar.of(Fraction(1, 2), 3, 5)
    b = SqrtQScalar.of(2, Fraction(-1, 3), 5)
    assert (a * b) * b.inverse() == a
    assert a - a == SqrtQScalar.zero(5)
    with pytest.raises(ValueError):
        a * SqrtQScalar.of(1, 1, 3)
    third = SqrtQScalar.of(3, 0, 2).inverse()
    assert third.even == Fraction(1, 3) and third.odd == 0
    with pytest.raises(ZeroDivisionError):
        SqrtQScalar.zero(5).inverse()


def test_render_parse_round_trip():
    for f in [
        LaurentPoly.zero(),
        LaurentPoly.one(),
        L({3: Fraction(-1, 2), 0: 4, -2: 1}),
        quantum_binomial(5, 2),
    ]:
        assert LaurentPoly.parse(f.render()) == f
    assert L({2: 1, 0: 3}).render() == "1*v^2 + 3*v^0"


def test_monomial_extraction():
    c, e = V(3, Fraction(5, 2)).monomial()
    assert (c, e) == (Fraction(5, 2), 3)
    with pytest.raises(ValueError):
        (V(1) + 1).monomial()


def _reference_evaluate(f, q, sign):
    """The Fraction loop evaluate_at_sqrt_q used before integer accumulation."""
    even = Fraction(0)
    odd = Fraction(0)
    qf = Fraction(q)
    for e, x in f.items():
        s = 1 if (sign == 1 or e % 2 == 0) else -1
        if e % 2 == 0:
            even += s * x * qf ** (e // 2)
        else:
            odd += s * x * qf ** ((e - 1) // 2)
    return SqrtQScalar(even, odd, q)


mixed_scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    # integral Fractions must be stored as ints
    st.integers(min_value=-9, max_value=9).map(lambda n: Fraction(3 * n, 3)),
)
mixed_coeffs = st.dictionaries(st.integers(min_value=-7, max_value=7), mixed_scalars, max_size=6)


def _assert_canonical(f):
    for _, x in f.items():
        assert x != 0
        if x.denominator == 1:
            assert type(x) is int
        else:
            assert type(x) is Fraction


@settings(max_examples=100, deadline=None)
@given(mixed_coeffs, mixed_coeffs)
def test_coefficients_are_int_exactly_when_integral(a, b):
    f, g = LaurentPoly(a), LaurentPoly(b)
    for h in (f, g, f + g, f - g, f * g, -f, f.bar()):
        _assert_canonical(h)
    as_fractions = LaurentPoly({e: Fraction(x) for e, x in a.items()})
    assert f == as_fractions
    assert hash(f) == hash(as_fractions)
    assert f.render() == as_fractions.render()
    assert LaurentPoly.parse(f.render()) == f
    _assert_canonical(LaurentPoly.parse(f.render()))


def test_integral_quotients_are_ints():
    _assert_canonical(quantum_binomial(6, 3))
    q = (V(2) - 1).exact_div(V(1) - 1)
    assert q == V(1) + 1
    _assert_canonical(q)
    half = LaurentPoly.const(1).exact_div(LaurentPoly.const(2))
    assert half.coeff(0) == Fraction(1, 2) and type(half.coeff(0)) is Fraction
    assert type(LaurentPoly.const(Fraction(4, 2)).coeff(0)) is int


@settings(max_examples=100, deadline=None)
@given(mixed_coeffs)
def test_evaluate_at_sqrt_q_matches_fraction_loop(coeffs):
    f = LaurentPoly(coeffs)
    for q in (2, 3, 5):
        # the four conventions v = sign * q^(power/2); power -1 evaluates the bar
        for sign in (1, -1):
            for g in (f, f.bar()):
                got = evaluate_at_sqrt_q(g, q, sign)
                assert got == _reference_evaluate(g, q, sign)
                assert str(got) == str(_reference_evaluate(g, q, sign))


def test_evaluate_at_sqrt_q_negative_odd_exponents():
    f = L({-5: 3, -3: Fraction(1, 2), -2: -7, 1: 4, 4: 1})
    for q in (2, 3, 5, 7, 11):
        for sign in (1, -1):
            assert evaluate_at_sqrt_q(f, q, sign) == _reference_evaluate(f, q, sign)


def _assert_canonical_parts(s):
    """Each part of a SqrtQScalar is an int exactly when it is integral."""
    for part in (s.even, s.odd):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (part.denominator == 1)


def test_sqrtq_inverse_and_division_of_int_parts_are_exact():
    # int parts: `/` on the parts would give floats
    s = SqrtQScalar.of(1, 1, 2)  # 1 + sqrt 2, norm -1
    assert (s.inverse().even, s.inverse().odd) == (-1, 1)
    assert type(s.inverse().even) is int and type(s.inverse().odd) is int
    t = SqrtQScalar.of(2, 0, 3)
    assert (t.inverse().even, t.inverse().odd) == (Fraction(1, 2), 0)
    assert type(t.inverse().even) is Fraction
    u = SqrtQScalar.of(3, 1, 5)  # norm 9 - 5 = 4
    for got in (u.inverse(), SqrtQScalar.one(5) / u, u / SqrtQScalar.of(2, 0, 5)):
        _assert_canonical_parts(got)
    assert (u.inverse().even, u.inverse().odd) == (Fraction(3, 4), Fraction(-1, 4))
    assert u * u.inverse() == SqrtQScalar.one(5)
    assert (u / u).even == 1 and type((u / u).even) is int
    third = SqrtQScalar.of(3, 0, 2).inverse()
    assert third.even == Fraction(1, 3) and third.odd == 0
    with pytest.raises(ZeroDivisionError):
        SqrtQScalar.zero(5).inverse()


@settings(max_examples=100, deadline=None)
@given(mixed_coeffs, mixed_coeffs, mixed_scalars)
def test_evaluate_at_sqrt_q_parts_are_int_exactly_when_integral(a, b, c):
    f, g = LaurentPoly(a), LaurentPoly(b)
    for q in (2, 3, 5):
        for sign in (1, -1):
            x, y = evaluate_at_sqrt_q(f, q, sign), evaluate_at_sqrt_q(g, q, sign)
            assert x == _reference_evaluate(f, q, sign)
            assert str(x) == str(_reference_evaluate(f, q, sign))
            results = [x, x + y, x - y, -x, x * y, x * c, c * x]
            if y:
                results += [y.inverse(), x / y]
                assert (x / y) * y == x
            for s in results:
                _assert_canonical_parts(s)
