"""Symbolic negative half: the free algebra on generators F_i over Laurent
scalars, the left and right Leibniz derivations, quantum Serre elements, and
evaluation into the Hall algebra.

Words are tuples of vertex indices; no relations are imposed. Serre elements
are kept in the integral form with Gaussian binomial coefficients (the
quantum-factorial multiple of the divided-power form), so every coefficient
stays a Laurent polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

# geometric_induction is not used here, but perfbench's tracer tests call it as
# uminus.geometric_induction to check that names bound by import are traced
from .hall import HallElement, HallModel, geometric_induction, ringel_product, unit_class, unit_element
from .laurent import LaurentPoly, quantum_binomial
from .quiver import DimVector, Quiver, symmetric_form

Word = tuple[int, ...]


def word_degree(Q: Quiver, w: Word) -> DimVector:
    counts = [0] * Q.n
    for letter in w:
        counts[letter] += 1
    return DimVector(tuple(counts))


@dataclass(frozen=True)
class FreeElement:
    quiver: Quiver
    terms: tuple[tuple[Word, LaurentPoly], ...]

    @staticmethod
    def make(Q: Quiver, coeffs: dict[Word, LaurentPoly]) -> "FreeElement":
        clean = {w: c for w, c in coeffs.items() if c}
        for w in clean:
            if any(not (0 <= v < Q.n) for v in w):
                raise ValueError(f"word {w} uses letters outside the vertex set")
        return FreeElement(Q, tuple(sorted(clean.items())))

    @staticmethod
    def zero(Q: Quiver) -> "FreeElement":
        return FreeElement(Q, ())

    @staticmethod
    def one(Q: Quiver) -> "FreeElement":
        return FreeElement.make(Q, {(): LaurentPoly.one()})

    @staticmethod
    def generator(Q: Quiver, i: int) -> "FreeElement":
        if not (0 <= i < Q.n):
            raise ValueError("vertex index out of range")
        return FreeElement.make(Q, {(i,): LaurentPoly.one()})

    def coeffs(self) -> dict[Word, LaurentPoly]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if self.quiver != other.quiver:
            raise ValueError("elements over different quivers")
        c = self.coeffs()
        for w, x in other.terms:
            c[w] = c.get(w, LaurentPoly.zero()) + x
        return FreeElement.make(self.quiver, c)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + other.scale(-1)

    def scale(self, s) -> "FreeElement":
        sp = s if isinstance(s, LaurentPoly) else LaurentPoly.const(s)
        return FreeElement.make(self.quiver, {w: sp * c for w, c in self.terms})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.quiver == other.quiver and self.terms == other.terms

    def to_json(self) -> dict:
        return {"terms": [{"word": list(w), "laurent": c.render()} for w, c in self.terms]}

    @staticmethod
    def from_json(Q: Quiver, data: dict) -> "FreeElement":
        return FreeElement.make(
            Q,
            {tuple(t["word"]): LaurentPoly.parse(t["laurent"]) for t in data["terms"]},
        )


def multiply(x: FreeElement, y: FreeElement) -> FreeElement:
    """Bilinear concatenation product."""
    if x.quiver != y.quiver:
        raise ValueError("elements over different quivers")
    out: dict[Word, LaurentPoly] = {}
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w = w1 + w2
            c = c1 * c2
            out[w] = out.get(w, LaurentPoly.zero()) + c
    return FreeElement.make(x.quiver, out)


def derivation_left(x: FreeElement, i: int) -> FreeElement:
    """The unique linear map with seed F_j -> delta_{ij} and Leibniz rule
    d(xy) = d(x) y + v^{(deg x, i)} x d(y)."""
    Q = x.quiver
    ui = Q.unit(i)
    out: dict[Word, LaurentPoly] = {}
    for w, c in x.terms:
        prefix = Q.zero_dim()
        for l, letter in enumerate(w):
            if letter == i:
                nw = w[:l] + w[l + 1:]
                factor = LaurentPoly.v(symmetric_form(Q, prefix, ui))
                out[nw] = out.get(nw, LaurentPoly.zero()) + c * factor
            prefix = prefix + Q.unit(letter)
    return FreeElement.make(Q, out)


def derivation_right(x: FreeElement, i: int) -> FreeElement:
    """Mirror map with rule d(xy) = x d(y) + v^{(i, deg y)} d(x) y."""
    Q = x.quiver
    ui = Q.unit(i)
    out: dict[Word, LaurentPoly] = {}
    for w, c in x.terms:
        for l, letter in enumerate(w):
            if letter == i:
                nw = w[:l] + w[l + 1:]
                suffix = word_degree(Q, w[l + 1:])
                factor = LaurentPoly.v(symmetric_form(Q, ui, suffix))
                out[nw] = out.get(nw, LaurentPoly.zero()) + c * factor
    return FreeElement.make(Q, out)


def iterated_derivation(x: FreeElement, i: int, m: int, side: str = "left") -> FreeElement:
    if m < 0:
        raise ValueError("m must be nonnegative")
    step = derivation_left if side == "left" else derivation_right
    for _ in range(m):
        x = step(x, i)
    return x


def serre_element(i: int, j: int, Q: Quiver) -> FreeElement:
    """Integral quantum Serre element
    sum_{m+n=N} (-1)^m qbinom(N, m) F_i^m F_j F_i^n with N = 1 - (i, j).

    This is the quantum factorial [N]! times the divided-power form, which
    keeps coefficients inside Z[v, v^{-1}].
    """
    if i == j:
        raise ValueError("serre element requires distinct vertices")
    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
    out: dict[Word, LaurentPoly] = {}
    for m in range(n_top + 1):
        n = n_top - m
        w = (i,) * m + (j,) + (i,) * n
        coeff = quantum_binomial(n_top, m)
        if m % 2:
            coeff = -coeff
        out[w] = out.get(w, LaurentPoly.zero()) + coeff
    return FreeElement.make(Q, out)


def evaluate_to_hall(x: FreeElement, model: HallModel) -> HallElement:
    """Multiplicative evaluation F_i -> u_{S_i} into the Hall algebra, bridged
    by the Euler-form twist (`ringel_product`); coefficients stay formal."""
    Q = model.quiver
    if x.quiver != Q:
        raise ValueError("element over a different quiver")
    degrees = {word_degree(Q, w).entries for w, _ in x.terms}
    if len(degrees) > 1:
        raise ValueError("evaluation needs a homogeneous element")
    acc: HallElement | None = None
    for w, c in x.terms:
        cur = unit_element(model)
        for letter in w:
            cur = ringel_product(model, cur, unit_class(model, model.simple_class(letter)))
        cur = cur.scale(c)
        acc = cur if acc is None else acc + cur
    return acc if acc is not None else HallElement.zero(Q, model.p)
