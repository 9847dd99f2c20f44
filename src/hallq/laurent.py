"""Exact scalar arithmetic: Laurent polynomials in a formal variable v over Q,
quantum integers/binomials, and the quadratic ring Q[sqrt(q)] used when v is
specialized to a square root of a prime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

Scalar = Union[int, Fraction]

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11)


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _canon(x) -> Scalar:
    """The canonical coefficient: an `int` when integral, else a `Fraction`."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class LaurentPoly:
    """Finitely supported map exponent -> rational, in canonical form.

    Canonical form never stores a zero coefficient, and stores a coefficient
    as `int` when it is integral and as `Fraction` only where a denominator
    arises (pairings, interpolation, inexact divisions). Since an `int` and
    the equal `Fraction` compare and hash alike, equality is structural.
    Instances are immutable; all operations return new values.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c = {}
        if coeffs:
            for e, x in coeffs.items():
                if type(x) is not int:
                    x = _canon(x)
                if x:
                    c[int(e)] = x
        self._c = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def const(x: Scalar) -> "LaurentPoly":
        return LaurentPoly({0: x})

    @staticmethod
    def v(exp: int = 1, coeff: Scalar = 1) -> "LaurentPoly":
        """The monomial coeff * v^exp."""
        return LaurentPoly({exp: coeff})

    # -- mapping access ----------------------------------------------------

    def coeff(self, exp: int) -> Scalar:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, Scalar]]:
        return iter(sorted(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_one(self) -> bool:
        return self._c == {0: 1}

    @property
    def degree(self) -> int:
        """Top exponent. Raises on the zero polynomial."""
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    @property
    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        add_scaled(c, o)
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -x for e, x in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c: dict[int, Scalar] = {}
        for e1, x1 in self._c.items():
            add_scaled(c, o, x1, e1)
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by `other`, requiring a zero remainder.

        Division happens in Q[v] after clearing valuations; a nonzero
        remainder raises ExactDivisionError since callers rely on exactness.
        """
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero()
        shift = self.valuation - other.valuation
        num = {e - self.valuation: x for e, x in self._c.items()}
        den = {e - other.valuation: x for e, x in other._c.items()}
        dn = max(den)
        lead = den[dn]
        quot: dict[int, Scalar] = {}
        while num:
            top = max(num)
            if top < dn:
                raise ExactDivisionError("inexact polynomial division")
            k = top - dn
            x = num[top]
            if type(x) is int and type(lead) is int and not x % lead:
                c = x // lead
            else:
                c = _canon(Fraction(x) / lead)
            quot[k] = c
            for e, x in den.items():
                ne = e + k
                r = num.get(ne, 0) - c * x
                if r:
                    num[ne] = r
                else:
                    num.pop(ne, None)
        return LaurentPoly({e + shift: x for e, x in quot.items()})

    # -- involutions and evaluations ----------------------------------------

    def bar(self) -> "LaurentPoly":
        """Exponent negation v -> v^{-1}."""
        return LaurentPoly({-e: x for e, x in self._c.items()})

    def monomial(self) -> tuple[Scalar, int]:
        """Return (coeff, exp) when the value is a single monomial, else raise."""
        if len(self._c) != 1:
            raise ValueError("not a monomial: %s" % self)
        [(e, x)] = self._c.items()
        return x, e

    def eval_rational(self, q: Scalar) -> Fraction:
        """Substitute a nonzero rational for the variable."""
        qq = _frac(q)
        if not qq:
            raise ZeroDivisionError("cannot evaluate Laurent polynomial at 0")
        return sum((x * qq**e for e, x in self._c.items()), Fraction(0))

    # -- rendering -----------------------------------------------------------

    def render(self, var: str = "v") -> str:
        """Canonical text form: `c*var^e` terms joined by ` + `, exponents descending."""
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            parts.append(f"{self._c[e]}*{var}^{e}")
        return " + ".join(parts)

    @staticmethod
    def parse(text: str, var: str = "v") -> "LaurentPoly":
        text = text.strip()
        if text == "0":
            return LaurentPoly.zero()
        term = re.compile(
            r"^\s*(-?\d+(?:/\d+)?)\*" + re.escape(var) + r"\^(-?\d+)\s*$"
        )
        c: dict[int, Scalar] = {}
        for piece in text.split(" + "):
            m = term.match(piece)
            if not m:
                raise ValueError(f"cannot parse term {piece!r}")
            coeff = Fraction(m.group(1))
            e = int(m.group(2))
            c[e] = c.get(e, 0) + coeff
        return LaurentPoly(c)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def add_scaled(acc: dict[int, Scalar], f: LaurentPoly, scale: Scalar = 1, shift: int = 0) -> None:
    """acc += scale * v^shift * f, on a plain exponent -> coefficient dict.

    Hot loops collect their results this way and build one LaurentPoly per
    output at the end; `LaurentPoly(acc)` drops the zeros.
    """
    for e, x in f._c.items():
        e += shift
        acc[e] = acc.get(e, 0) + scale * x


# -- quantum combinatorics ---------------------------------------------------


def quantum_integer(m: int) -> LaurentPoly:
    """Balanced quantum integer [m] = v^{m-1} + v^{m-3} + ... + v^{-(m-1)}."""
    if m < 0:
        raise ValueError("quantum_integer needs m >= 0")
    return LaurentPoly({m - 1 - 2 * k: 1 for k in range(m)})


def quantum_factorial(m: int) -> LaurentPoly:
    """[m]! = [1][2]...[m], with [0]! = 1."""
    if m < 0:
        raise ValueError("quantum_factorial needs m >= 0")
    out = LaurentPoly.one()
    for l in range(1, m + 1):
        out = out * quantum_integer(l)
    return out


def quantum_binomial(m: int, t: int) -> LaurentPoly:
    """Balanced Gaussian binomial [m]!/([t]![m-t]!); zero outside 0 <= t <= m.

    The two divisions must be exact; a remainder would mean broken arithmetic,
    so ExactDivisionError is allowed to propagate.
    """
    if m < 0:
        raise ValueError("quantum_binomial needs m >= 0")
    if t < 0 or t > m:
        return LaurentPoly.zero()
    if t == 0 or t == m:
        return LaurentPoly.one()
    num = quantum_factorial(m)
    return num.exact_div(quantum_factorial(t)).exact_div(quantum_factorial(m - t))


_gauss_cache: dict[tuple[int, int], LaurentPoly] = {}


def gaussian_binomial_q(d: int, m: int) -> LaurentPoly:
    """Number of m-dimensional subspaces of F_q^d, as a polynomial in q.

    Computed by the Pascal-type recurrence gauss(d, m) = gauss(d-1, m-1)
    + q^m * gauss(d-1, m), which keeps all coefficients integral. Relates to
    quantum_binomial(d, m) by the substitution q = v^2 and an overall factor
    v^{m(d-m)}.
    """
    if d < 0:
        raise ValueError("gaussian_binomial_q needs d >= 0")
    if m < 0 or m > d:
        return LaurentPoly.zero()
    key = (d, m)
    got = _gauss_cache.get(key)
    if got is not None:
        return got
    if m == 0 or m == d:
        out = LaurentPoly.one()
    else:
        out = gaussian_binomial_q(d - 1, m - 1) + LaurentPoly.v(m) * gaussian_binomial_q(d - 1, m)
    _gauss_cache[key] = out
    return out


def bar_involution(f: LaurentPoly) -> LaurentPoly:
    return f.bar()


# -- specialization ring Q[sqrt(q)] ------------------------------------------


def _check_prime(q: int) -> None:
    if q not in _SUPPORTED_PRIMES:
        raise ValueError(f"q must be a prime in {_SUPPORTED_PRIMES}, got {q}")


@dataclass(frozen=True)
class SqrtQScalar:
    """Element even + odd*sqrt(q) of Q[sqrt(q)], with exact rational parts."""

    even: Fraction
    odd: Fraction
    q: int

    @staticmethod
    def of(even: Scalar, odd: Scalar, q: int) -> "SqrtQScalar":
        _check_prime(q)
        return SqrtQScalar(_frac(even), _frac(odd), q)

    @staticmethod
    def zero(q: int) -> "SqrtQScalar":
        return SqrtQScalar.of(0, 0, q)

    @staticmethod
    def one(q: int) -> "SqrtQScalar":
        return SqrtQScalar.of(1, 0, q)

    def _check(self, other: "SqrtQScalar") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed base primes {self.q} and {other.q}")

    def __bool__(self) -> bool:
        return bool(self.even or self.odd)

    def __add__(self, other: "SqrtQScalar") -> "SqrtQScalar":
        self._check(other)
        return SqrtQScalar(self.even + other.even, self.odd + other.odd, self.q)

    def __neg__(self) -> "SqrtQScalar":
        return SqrtQScalar(-self.even, -self.odd, self.q)

    def __sub__(self, other: "SqrtQScalar") -> "SqrtQScalar":
        return self + (-other)

    def __mul__(self, other) -> "SqrtQScalar":
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return SqrtQScalar(self.even * f, self.odd * f, self.q)
        self._check(other)
        return SqrtQScalar(
            self.even * other.even + self.odd * other.odd * self.q,
            self.even * other.odd + self.odd * other.even,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "SqrtQScalar":
        # (a + b sqrt q)(a - b sqrt q) = a^2 - b^2 q, nonzero since sqrt q is irrational
        n = self.even * self.even - self.odd * self.odd * self.q
        if not n:
            raise ZeroDivisionError("inverse of zero in Q[sqrt(q)]")
        return SqrtQScalar(self.even / n, -self.odd / n, self.q)

    def __truediv__(self, other: "SqrtQScalar") -> "SqrtQScalar":
        return self * other.inverse()

    def __str__(self) -> str:
        return f"{self.even} + {self.odd}*sqrt({self.q})"


def evaluate_at_sqrt_q(f: LaurentPoly, q: int, sign: int) -> SqrtQScalar:
    """Substitute v = sign * sqrt(q); exponent parities land in the two components.

    v^e = sign^e * q^(e // 2) * sqrt(q)^(e % 2). Each component is summed
    over the common denominator q^k0, so integer coefficients stay integers
    until the one division at the end.
    """
    _check_prime(q)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c = f._c
    k0 = max(0, -(min(c, default=0) // 2))
    even = odd = 0
    for e, x in c.items():
        term = x * q ** (e // 2 + k0)
        if e & 1:
            odd += term if sign == 1 else -term
        else:
            even += term
    den = q**k0
    return SqrtQScalar(Fraction(even, den), Fraction(odd, den), q)
