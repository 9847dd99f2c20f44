"""Verification engine: every theorem shadow is a named, parameterized check
producing a structured Report.

Checks compare exact scalars in Q[sqrt(p)] after specializing the formal
variable. Four specialization conventions are supported, v = s * p^{e/2} with
s in {+1,-1} and e in {+1,-1}; which convention validates is not assumed but
pinned empirically per identity family and emitted as a machine-readable
table. Vanishing in Q[sqrt(p)] at one sign forces vanishing at the other
(the two components vanish separately), so the pinning really selects the
exponent direction; both signs are recorded.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

from . import hall, uminus
from .ffrep import DEFAULT_POINT_BUDGET, IsoClassId
from .hall import HallElement, HallModel, TensorElement
from .laurent import (
    LaurentPoly,
    Scalar,
    SqrtQScalar,
    add_scaled,
    evaluate_at_sqrt_q,
    quantum_binomial,
    quantum_factorial,
)
from .quiver import DimVector, Quiver, builtin_quiver, stratum_data, symmetric_form


@dataclass(frozen=True)
class Convention:
    """v = sign * p^{power/2}."""

    label: str
    sign: int
    power: int

    def poly(self, f: LaurentPoly, p: int) -> SqrtQScalar:
        if self.power == 1:
            return evaluate_at_sqrt_q(f, p, self.sign)
        return evaluate_at_sqrt_q(f.bar(), p, self.sign)


CONVENTIONS = (
    Convention("-1/sqrt(q)", -1, -1),
    Convention("+1/sqrt(q)", +1, -1),
    Convention("+sqrt(q)", +1, +1),
    Convention("-sqrt(q)", -1, +1),
)

CONVENTION_BY_LABEL = {c.label: c for c in CONVENTIONS}

# theory-predicted pins, re-derived empirically by pin_convention_table
DEFAULT_PINS = {
    "associativity": "formal",
    "green": "-1/sqrt(q)",
    "derivation_product_rule": "-1/sqrt(q)",
    "stratification": "-1/sqrt(q)",
    "serre_generators": "-1/sqrt(q)",
    "serre_derivations": "-1/sqrt(q)",
    "pairing_adjunction": "-1/sqrt(q)",
    "operator_relations": "-1/sqrt(q)",
    "uminus_serre": "+sqrt(q)",
}


def spec_hall(f: HallElement, p: int, conv: Convention) -> dict[IsoClassId, SqrtQScalar]:
    out = {}
    for M, c in f.terms:
        v = conv.poly(c, p)
        if v:
            out[M] = v
    return out


def spec_tensor(f: TensorElement, p: int, conv: Convention) -> dict:
    out = {}
    for k, c in f.terms:
        v = conv.poly(c, p)
        if v:
            out[k] = v
    return out


def _render_spec(model: HallModel, d: dict) -> dict:
    def lab(k):
        if isinstance(k, tuple):
            return "(" + ",".join(lab(x) for x in k) + ")"
        return model.table(DimVector(k.dim)).label(k)

    return {lab(k): str(v) for k, v in sorted(d.items(), key=lambda kv: repr(kv[0]))}


@dataclass
class Report:
    identity: str
    params: dict
    status: str  # pass | fail | info
    witness: dict | None = None
    convention: str | None = None
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "convention": self.convention,
            "details": self.details,
            "elapsed": round(self.elapsed, 6),
        }


def _dims_up_to(Q: Quiver, total: int, include_zero: bool = True) -> list[DimVector]:
    out = []
    rng = range(total + 1)
    for entries in product(rng, repeat=Q.n):
        if sum(entries) <= total and (include_zero or any(entries)):
            out.append(DimVector(entries))
    return sorted(out, key=lambda d: (d.total, d.entries))


def _splits_of(nu: DimVector) -> list[tuple[DimVector, DimVector]]:
    out = []
    for entries in product(*(range(e + 1) for e in nu.entries)):
        a = DimVector(entries)
        out.append((a, nu - a))
    return out


# -- associativity --------------------------------------------------------------


def verify_associativity(model: HallModel, maxdim: int = 4, corrupt: bool = False) -> Report:
    """(u_A * u_B) * u_C = u_A * (u_B * u_C), all basis triples with total
    grading at most maxdim, both twist conventions, compared formally."""
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {"quiver": Q.to_text(), "p": p, "maxdim": maxdim, "corrupt": corrupt}
    checked = 0
    for prod_fn, twist_name in ((hall.geometric_induction, "geometric"), (hall.ringel_product, "ringel")):
        for da in _dims_up_to(Q, maxdim):
            for db in _dims_up_to(Q, maxdim - da.total):
                for dc in _dims_up_to(Q, maxdim - da.total - db.total):
                    for A in model.table(da).ids():
                        fa = hall.unit_class(model, A)
                        for B in model.table(db).ids():
                            fb = hall.unit_class(model, B)
                            ab = prod_fn(model, fa, fb)
                            for C in model.table(dc).ids():
                                fc = hall.unit_class(model, C)
                                lhs = prod_fn(model, ab, fc)
                                if corrupt:
                                    lhs = lhs.scale(LaurentPoly.v(1))
                                rhs = prod_fn(model, fa, prod_fn(model, fb, fc))
                                checked += 1
                                if lhs != rhs:
                                    wit = {
                                        "twist": twist_name,
                                        "triple": [
                                            model.table(da).label(A),
                                            model.table(db).label(B),
                                            model.table(dc).label(C),
                                        ],
                                        "lhs": hall.element_to_json(model, lhs),
                                        "rhs": hall.element_to_json(model, rhs),
                                    }
                                    return Report(
                                        "associativity", params, "fail", wit,
                                        "formal", {"checked": checked},
                                        time.perf_counter() - t0,
                                    )
    return Report("associativity", params, "pass", None, "formal",
                  {"checked": checked}, time.perf_counter() - t0)


# -- Green compatibility ---------------------------------------------------------


def _green_strata(alpha: DimVector, beta: DimVector, alpha_p: DimVector, beta_p: DimVector):
    """The index set of (a1, a2, b1, b2) with a1+a2 = alpha, b1+b2 = beta,
    a1+b1 = alpha', a2+b2 = beta'."""
    out = []
    for entries in product(*(range(e + 1) for e in alpha.entries)):
        a1 = DimVector(entries)
        b1e = tuple(x - y for x, y in zip(alpha_p.entries, a1.entries))
        if any(e < 0 for e in b1e):
            continue
        b1 = DimVector(b1e)
        if not b1 <= beta:
            continue
        out.append((a1, alpha - a1, b1, beta - b1))
    return out


def green_both_sides(
    model: HallModel,
    A: IsoClassId,
    B: IsoClassId,
    alpha_p: DimVector,
    beta_p: DimVector,
    corrupt: bool = False,
) -> tuple[TensorElement, TensorElement]:
    """Left side Res(Ind), right side the sum over the compatibility strata."""
    Q = model.quiver
    alpha, beta = DimVector(A.dim), DimVector(B.dim)
    fa, fb = hall.unit_class(model, A), hall.unit_class(model, B)
    lhs = hall.geometric_restriction(model, hall.geometric_induction(model, fa, fb), (alpha_p, beta_p))

    products: dict[tuple[IsoClassId, IsoClassId], HallElement] = {}

    def unit_product(N: IsoClassId, L: IsoClassId) -> HallElement:
        got = products.get((N, L))
        if got is None:
            got = products[N, L] = hall.geometric_induction(
                model, hall.unit_class(model, N), hall.unit_class(model, L)
            )
        return got

    acc: dict[tuple[IsoClassId, IsoClassId], dict[int, Scalar]] = {}
    for a1, a2, b1, b2 in _green_strata(alpha, beta, alpha_p, beta_p):
        exp = -symmetric_form(Q, a2, b1)
        if corrupt:
            exp += 1
        res_a = hall.geometric_restriction(model, fa, (a1, a2))
        res_b = hall.geometric_restriction(model, fb, (b1, b2))
        for (n1, n2), ca in res_a.terms:
            for (l1, l2), cb in res_b.terms:
                left = unit_product(n1, l1)
                right = unit_product(n2, l2)
                base = ca * cb
                for N, cn in left.terms:
                    left_base = base * cn
                    for L, cl in right.terms:
                        add_scaled(acc.setdefault((N, L), {}), left_base * cl, 1, exp)
    rhs = TensorElement.make(Q, model.p, (alpha_p, beta_p),
                             {k: LaurentPoly(d) for k, d in acc.items()})
    return lhs, rhs


def verify_green_compatibility(
    model: HallModel,
    alpha: DimVector,
    beta: DimVector,
    alpha_p: DimVector,
    beta_p: DimVector,
    convention: Convention,
    corrupt: bool = False,
) -> Report:
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {
        "quiver": Q.to_text(), "p": p,
        "alpha": list(alpha.entries), "beta": list(beta.entries),
        "alpha_p": list(alpha_p.entries), "beta_p": list(beta_p.entries),
        "corrupt": corrupt,
    }
    if alpha + beta != alpha_p + beta_p:
        raise ValueError("splits must share the total grading")
    checked = 0
    for A in model.table(alpha).ids():
        for B in model.table(beta).ids():
            lhs, rhs = green_both_sides(model, A, B, alpha_p, beta_p, corrupt)
            sl, sr = spec_tensor(lhs, p, convention), spec_tensor(rhs, p, convention)
            checked += 1
            if sl != sr:
                wit = {
                    "pair": [model.table(alpha).label(A), model.table(beta).label(B)],
                    "lhs": _render_spec(model, sl),
                    "rhs": _render_spec(model, sr),
                }
                return Report("green", params, "fail", wit, convention.label,
                              {"checked": checked}, time.perf_counter() - t0)
    return Report("green", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


# -- derivation product rules ----------------------------------------------------


def product_rule_sides(
    model: HallModel, A: IsoClassId, B: IsoClassId, i: int, m: int, side: str
) -> tuple[HallElement, list[tuple[int, LaurentPoly, HallElement]]]:
    """Left side: derivation of the product. Right side: the indexed terms
    (t, scalar f_{m,t} v^{-P}, derived-product element), not yet summed."""
    Q = model.quiver
    alpha, beta = DimVector(A.dim), DimVector(B.dim)
    fa, fb = hall.unit_class(model, A), hall.unit_class(model, B)
    derive = hall.derive_sub if side == "sub" else hall.derive_quot
    lhs = derive(model, hall.geometric_induction(model, fa, fb), i, m)
    lo, hi, strata = stratum_data(Q, alpha, beta, i, m)
    terms = []
    for t, pt, ppt in strata:
        exp = -pt if side == "sub" else -ppt
        scalar = quantum_binomial(m, t) * LaurentPoly.v(exp)
        piece = hall.geometric_induction(
            model, derive(model, fa, i, t), derive(model, fb, i, m - t)
        )
        terms.append((t, scalar, piece))
    return lhs, terms


def verify_derivation_product_rule(
    model: HallModel, i: int, m: int, alpha: DimVector, beta: DimVector,
    convention: Convention, corrupt: bool = False,
) -> Report:
    """Both flavors of the derivation-of-a-product formula, coefficientwise."""
    t0 = time.perf_counter()
    p = model.p
    params = {
        "quiver": model.quiver.to_text(), "p": p, "i": i, "m": m,
        "alpha": list(alpha.entries), "beta": list(beta.entries), "corrupt": corrupt,
    }
    checked = 0
    for side in ("sub", "quot"):
        for A in model.table(alpha).ids():
            for B in model.table(beta).ids():
                lhs, terms = product_rule_sides(model, A, B, i, m, side)
                acc: dict[IsoClassId, SqrtQScalar] = {}
                for t, scalar, piece in terms:
                    if corrupt:
                        scalar = scalar * LaurentPoly.v(1)
                    sc = convention.poly(scalar, p)
                    for M, c in piece.terms:
                        v = sc * convention.poly(c, p)
                        prev = acc.get(M)
                        acc[M] = v if prev is None else prev + v
                rhs = {M: v for M, v in acc.items() if v}
                sl = spec_hall(lhs, p, convention)
                checked += 1
                if sl != rhs:
                    wit = {
                        "side": side,
                        "pair": [model.table(alpha).label(A), model.table(beta).label(B)],
                        "lhs": _render_spec(model, sl),
                        "rhs": _render_spec(model, rhs),
                    }
                    return Report("derivation_product_rule", params, "fail", wit,
                                  convention.label, {"checked": checked},
                                  time.perf_counter() - t0)
    return Report("derivation_product_rule", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


# -- stratified refinement -------------------------------------------------------


def verify_stratification(
    model: HallModel, i: int, m: int, alpha: DimVector, beta: DimVector,
    convention: Convention,
) -> Report:
    """Per-stratum equality plus exact telescoping of the stratified pieces."""
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {
        "quiver": Q.to_text(), "p": p, "i": i, "m": m,
        "alpha": list(alpha.entries), "beta": list(beta.entries),
    }
    lo, hi, strata_info = stratum_data(Q, alpha, beta, i, m)
    checked = 0
    for side in ("sub", "quot"):
        derive = hall.derive_sub if side == "sub" else hall.derive_quot
        strat_fn = hall.stratified_derive_sub if side == "sub" else hall.stratified_derive_quot
        for A in model.table(alpha).ids():
            for B in model.table(beta).ids():
                fa, fb = hall.unit_class(model, A), hall.unit_class(model, B)
                strata = strat_fn(model, A, B, i, m)
                if any(t < lo or t > hi for t in strata):
                    return Report("stratification", params, "fail",
                                  {"reason": "stratum index out of range",
                                   "got": sorted(strata)},
                                  convention.label, {}, time.perf_counter() - t0)
                total = derive(model, hall.geometric_induction(model, fa, fb), i, m)
                acc = HallElement.zero(Q, p)
                for t in sorted(strata):
                    acc = acc + strata[t]
                checked += 1
                if acc != total:
                    return Report("stratification", params, "fail",
                                  {"reason": "strata do not telescope to the total",
                                   "pair": [model.table(alpha).label(A), model.table(beta).label(B)],
                                   "sum": hall.element_to_json(model, acc),
                                   "total": hall.element_to_json(model, total)},
                                  convention.label, {"checked": checked},
                                  time.perf_counter() - t0)
                for t, pt, ppt in strata_info:
                    exp = -pt if side == "sub" else -ppt
                    scalar = quantum_binomial(m, t) * LaurentPoly.v(exp)
                    piece = hall.geometric_induction(
                        model, derive(model, fa, i, t), derive(model, fb, i, m - t)
                    )
                    sc = convention.poly(scalar, p)
                    rhs = {}
                    for M, c in piece.terms:
                        v = sc * convention.poly(c, p)
                        if v:
                            rhs[M] = v
                    got = strata.get(t)
                    sl = spec_hall(got, p, convention) if got is not None else {}
                    checked += 1
                    if sl != rhs:
                        wit = {
                            "side": side, "t": t,
                            "pair": [model.table(alpha).label(A), model.table(beta).label(B)],
                            "stratum": _render_spec(model, sl),
                            "expected": _render_spec(model, rhs),
                        }
                        return Report("stratification", params, "fail", wit,
                                      convention.label, {"checked": checked},
                                      time.perf_counter() - t0)
    return Report("stratification", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


# -- quantum Serre, class level ---------------------------------------------------


def serre_generator_sides(model: HallModel, i: int, j: int, corrupt: bool = False):
    """Odd and even halves of the constant-class Serre identity under the
    geometric product."""
    Q = model.quiver
    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
    odd = None
    even = None
    lj = hall.constant_class(model, j, 1)
    for m in range(n_top + 1):
        n = n_top - m
        term = hall.geometric_induction(
            model,
            hall.geometric_induction(model, hall.constant_class(model, i, m), lj),
            hall.constant_class(model, i, n),
        )
        if corrupt and m == 0:
            term = term.scale(LaurentPoly.v(2))
        if m % 2:
            odd = term if odd is None else odd + term
        else:
            even = term if even is None else even + term
    zero = HallElement.zero(Q, model.p)
    return (odd if odd is not None else zero), (even if even is not None else zero)


def verify_serre_generators(
    model: HallModel, i: int, j: int, convention: Convention, corrupt: bool = False
) -> Report:
    t0 = time.perf_counter()
    p = model.p
    params = {"quiver": model.quiver.to_text(), "p": p, "i": i, "j": j, "corrupt": corrupt}
    if i == j:
        raise ValueError("serre check needs distinct vertices")
    odd, even = serre_generator_sides(model, i, j, corrupt)
    so, se = spec_hall(odd, p, convention), spec_hall(even, p, convention)
    if so != se:
        wit = {"odd": _render_spec(model, so), "even": _render_spec(model, se)}
        return Report("serre_generators", params, "fail", wit, convention.label,
                      {}, time.perf_counter() - t0)
    return Report("serre_generators", params, "pass", None, convention.label,
                  {"terms": 2 + 1 - symmetric_form(model.quiver, model.quiver.unit(i), model.quiver.unit(j))},
                  time.perf_counter() - t0)


# -- quantum Serre for derivation operators ----------------------------------------


def _divided_eps_chain(
    model: HallModel, f: HallElement, i: int, j: int, m: int, n: int,
    convention: Convention, flavor: str,
) -> dict[IsoClassId, SqrtQScalar]:
    """Specialized value of eps_i^{(m)} eps_j eps_i^{(n)} (f), with eps the
    one-step derivation of the given flavor and divided powers applied after
    specialization (the quantum factorials are invertible scalars there)."""
    step = hall.derive_sub if flavor == "sub" else hall.derive_quot
    p = model.p
    g = f
    for _ in range(n):
        g = step(model, g, i, 1)
    g = step(model, g, j, 1)
    for _ in range(m):
        g = step(model, g, i, 1)
    denom = convention.poly(quantum_factorial(m) * quantum_factorial(n), p)
    out = {}
    for M, c in g.terms:
        v = convention.poly(c, p) / denom
        if v:
            out[M] = v
    return out


def verify_serre_derivations(
    model: HallModel, i: int, j: int, testdim: DimVector, convention: Convention
) -> Report:
    """Odd-m sum equals even-m sum of the divided derivation composites, on
    every basis class at the test grading, for both derivation flavors."""
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {
        "quiver": Q.to_text(), "p": p, "i": i, "j": j, "testdim": list(testdim.entries),
    }
    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
    need = Q.unit(i).scale(n_top) + Q.unit(j)
    if not need <= testdim:
        raise ValueError(f"testdim must dominate {need}")
    checked = 0
    for flavor in ("sub", "quot"):
        for M in model.table(testdim).ids():
            f = hall.unit_class(model, M)
            odd: dict = {}
            even: dict = {}
            for m in range(n_top + 1):
                n = n_top - m
                val = _divided_eps_chain(model, f, i, j, m, n, convention, flavor)
                target = odd if m % 2 else even
                for k, v in val.items():
                    prev = target.get(k)
                    target[k] = v if prev is None else prev + v
            odd = {k: v for k, v in odd.items() if v}
            even = {k: v for k, v in even.items() if v}
            checked += 1
            if odd != even:
                wit = {
                    "flavor": flavor,
                    "class": model.table(testdim).label(M),
                    "odd": _render_spec(model, odd),
                    "even": _render_spec(model, even),
                }
                return Report("serre_derivations", params, "fail", wit,
                              convention.label, {"checked": checked},
                              time.perf_counter() - t0)
    return Report("serre_derivations", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


# -- pairing adjunction -------------------------------------------------------------


def _as_signed_q_power(s: SqrtQScalar) -> tuple[int, int] | None:
    """Write s = sign * q^{k/2}; returns (sign, k) or None if not of that shape."""
    if s.even and s.odd:
        return None
    if not s.even and not s.odd:
        return None
    part, odd = (s.even, False) if s.even else (s.odd, True)
    sign = 1 if part > 0 else -1
    f = abs(part)
    num, den = f.numerator, f.denominator
    k = 0
    if num == 1 and den > 1:
        while den % s.q == 0 and den > 1:
            den //= s.q
            k -= 2
        if den != 1:
            return None
    else:
        if den != 1:
            return None
        while num % s.q == 0 and num > 1:
            num //= s.q
            k += 2
        if num != 1:
            return None
    if odd:
        k += 1
    return (sign, k)


def verify_pairing_adjunction(
    model: HallModel, i: int, m: int, alpha: DimVector, convention: Convention
) -> Report:
    """Constant-class adjunction with an empirical bridge factor.

    Both {L_{mi} * A, B} and prod_k (1 - v^{2k})^{-1} {A, derive(B)} are
    computed for every basis pair; their ratio must be one signed power of
    sqrt(q), constant across pairs (and flavors mirror with the right product).
    """
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {
        "quiver": Q.to_text(), "p": p, "i": i, "m": m, "alpha": list(alpha.entries),
    }
    big = alpha + Q.unit(i).scale(m)
    lmi = hall.constant_class(model, i, m)
    paper = LaurentPoly.one()
    for k in range(1, m + 1):
        paper = paper * (LaurentPoly.one() - LaurentPoly.v(2 * k))
    paper_inv = convention.poly(paper, p).inverse() if m else SqrtQScalar.one(p)
    bridges = {}
    checked = 0
    for flavor in ("sub", "quot"):
        for A in model.table(alpha).ids():
            fa = hall.unit_class(model, A)
            if flavor == "sub":
                prod = hall.geometric_induction(model, lmi, fa)
            else:
                prod = hall.geometric_induction(model, fa, lmi)
            for B in model.table(big).ids():
                fb = hall.unit_class(model, B)
                lhs = convention.poly(hall.pairing(model, prod, fb), p)
                derive = hall.derive_sub if flavor == "sub" else hall.derive_quot
                inner = hall.pairing(model, fa, derive(model, fb, i, m))
                rhs = paper_inv * convention.poly(inner, p)
                checked += 1
                if bool(lhs) != bool(rhs):
                    wit = {
                        "flavor": flavor,
                        "pair": [model.table(alpha).label(A), model.table(big).label(B)],
                        "lhs": str(lhs), "rhs": str(rhs),
                    }
                    return Report("pairing_adjunction", params, "fail", wit,
                                  convention.label, {"checked": checked},
                                  time.perf_counter() - t0)
                if not lhs:
                    continue
                ratio = lhs / rhs
                power = _as_signed_q_power(ratio)
                if power is None:
                    wit = {
                        "flavor": flavor,
                        "pair": [model.table(alpha).label(A), model.table(big).label(B)],
                        "ratio": str(ratio),
                    }
                    return Report("pairing_adjunction", params, "fail", wit,
                                  convention.label,
                                  {"reason": "bridge is not a signed q-power"},
                                  time.perf_counter() - t0)
                prev = bridges.get(flavor)
                if prev is None:
                    bridges[flavor] = power
                elif prev != power:
                    wit = {
                        "flavor": flavor,
                        "pair": [model.table(alpha).label(A), model.table(big).label(B)],
                        "bridge": list(power), "previous": list(prev),
                    }
                    return Report("pairing_adjunction", params, "fail", wit,
                                  convention.label,
                                  {"reason": "bridge depends on the basis element"},
                                  time.perf_counter() - t0)
    det = {"checked": checked}
    for flavor, (sgn, k) in sorted(bridges.items()):
        det[f"bridge_{flavor}"] = {"sign": sgn, "sqrtq_exponent": k}
    return Report("pairing_adjunction", params, "pass", None, convention.label,
                  det, time.perf_counter() - t0)


def verify_pairing_general(
    model: HallModel, alpha: DimVector, beta: DimVector, convention: Convention
) -> Report:
    """{A*B, C} against {A (x) B, Res C}: zero sets must agree and the ratio
    must be a single signed q-power depending only on the split."""
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {"quiver": Q.to_text(), "p": p,
              "alpha": list(alpha.entries), "beta": list(beta.entries)}
    nu = alpha + beta
    bridge = None
    checked = 0
    for A in model.table(alpha).ids():
        fa = hall.unit_class(model, A)
        for B in model.table(beta).ids():
            fb = hall.unit_class(model, B)
            prod = hall.geometric_induction(model, fa, fb)
            for C in model.table(nu).ids():
                fc = hall.unit_class(model, C)
                lhs = convention.poly(hall.pairing(model, prod, fc), p)
                res = hall.geometric_restriction(model, fc, (alpha, beta))
                rhs_poly = LaurentPoly.zero()
                ta, tb = model.table(alpha), model.table(beta)
                for (N, L), c in res.terms:
                    if N == A and L == B:
                        rhs_poly = rhs_poly + c * Fraction(
                            1, ta.info(A).aut_count * tb.info(B).aut_count
                        )
                rhs = convention.poly(rhs_poly, p)
                checked += 1
                if bool(lhs) != bool(rhs):
                    return Report("pairing_adjunction", params, "fail",
                                  {"triple": [ta.label(A), tb.label(B), model.table(nu).label(C)],
                                   "lhs": str(lhs), "rhs": str(rhs)},
                                  convention.label, {"part": "general"},
                                  time.perf_counter() - t0)
                if not lhs:
                    continue
                power = _as_signed_q_power(rhs / lhs)
                if power is None or (bridge is not None and power != bridge):
                    return Report("pairing_adjunction", params, "fail",
                                  {"triple": [ta.label(A), tb.label(B), model.table(nu).label(C)],
                                   "ratio": str(rhs / lhs)},
                                  convention.label,
                                  {"part": "general", "reason": "bridge not constant"},
                                  time.perf_counter() - t0)
                bridge = power
    det = {"part": "general", "checked": checked}
    if bridge is not None:
        det["bridge"] = {"sign": bridge[0], "sqrtq_exponent": bridge[1]}
    return Report("pairing_adjunction", params, "pass", None, convention.label,
                  det, time.perf_counter() - t0)


# -- operator relations ---------------------------------------------------------------


def verify_operator_relations(
    model: HallModel, i: int, alpha: DimVector, maxother: int, convention: Convention
) -> Report:
    """Composition and commutation laws for the multiplication and one-step
    derivation operators; the divided Serre law is delegated to
    verify_serre_derivations."""
    t0 = time.perf_counter()
    Q, p = model.quiver, model.p
    params = {"quiver": Q.to_text(), "p": p, "i": i, "alpha": list(alpha.entries),
              "maxother": maxother}
    exp = LaurentPoly.v(-symmetric_form(Q, alpha, Q.unit(i)))
    checked = 0
    for A in model.table(alpha).ids():
        fa = hall.unit_class(model, A)
        dsub_a = hall.derive_sub(model, fa, i, 1)
        dquot_a = hall.derive_quot(model, fa, i, 1)
        for db in _dims_up_to(Q, maxother):
            for B in model.table(db).ids():
                fb = hall.unit_class(model, B)
                # (1) m^L_A m^L_B = m^L_{A*B} and the m^R mirror
                for C_dim in (Q.unit(i),):
                    for C in model.table(C_dim).ids():
                        fc = hall.unit_class(model, C)
                        l1 = hall.geometric_induction(model, fa, hall.geometric_induction(model, fb, fc))
                        r1 = hall.geometric_induction(model, hall.geometric_induction(model, fa, fb), fc)
                        checked += 1
                        if l1 != r1:
                            return Report("operator_relations", params, "fail",
                                          {"item": 1}, convention.label, {},
                                          time.perf_counter() - t0)
                # (3) left derivation against left multiplication
                lhs = hall.derive_sub(model, hall.geometric_induction(model, fa, fb), i, 1)
                rhs = hall.geometric_induction(model, fa, hall.derive_sub(model, fb, i, 1)).scale(exp)
                rhs = rhs + hall.geometric_induction(model, dsub_a, fb)
                sl, sr = spec_hall(lhs, p, convention), spec_hall(rhs, p, convention)
                checked += 1
                if sl != sr:
                    return Report("operator_relations", params, "fail",
                                  {"item": 3,
                                   "pair": [model.table(alpha).label(A), model.table(db).label(B)],
                                   "lhs": _render_spec(model, sl), "rhs": _render_spec(model, sr)},
                                  convention.label, {}, time.perf_counter() - t0)
                # (4) right derivation against right multiplication
                lhs = hall.derive_quot(model, hall.geometric_induction(model, fb, fa), i, 1)
                rhs = hall.geometric_induction(model, hall.derive_quot(model, fb, i, 1), fa).scale(exp)
                rhs = rhs + hall.geometric_induction(model, fb, dquot_a)
                sl, sr = spec_hall(lhs, p, convention), spec_hall(rhs, p, convention)
                checked += 1
                if sl != sr:
                    return Report("operator_relations", params, "fail",
                                  {"item": 4,
                                   "pair": [model.table(alpha).label(A), model.table(db).label(B)],
                                   "lhs": _render_spec(model, sl), "rhs": _render_spec(model, sr)},
                                  convention.label, {}, time.perf_counter() - t0)
    return Report("operator_relations", params, "pass", None, convention.label,
                  {"checked": checked, "item2": "delegated to serre_derivations"},
                  time.perf_counter() - t0)


# -- symbolic layer -------------------------------------------------------------------


def verify_uminus_serre(model: HallModel, i: int, j: int, convention: Convention) -> Report:
    """serre_element evaluates to zero in the Hall algebra under the Euler-form
    twist at the pinned convention."""
    t0 = time.perf_counter()
    p = model.p
    params = {"quiver": model.quiver.to_text(), "p": p, "i": i, "j": j, "twist": "ringel"}
    s = uminus.serre_element(i, j, model.quiver)
    formal = uminus.evaluate_to_hall(s, model)
    val = spec_hall(formal, p, convention)
    if val:
        return Report("uminus_serre", params, "fail",
                      {"value": _render_spec(model, val)}, convention.label, {},
                      time.perf_counter() - t0)
    return Report("uminus_serre", params, "pass", None, convention.label, {},
                  time.perf_counter() - t0)


# -- convention pinning ----------------------------------------------------------------


def _convention_probes() -> dict[str, Callable[[int, Convention], bool]]:
    """Small representative instances per identity family; each probe returns
    whether the family's defining equality holds at the given convention."""

    def green_probe(p: int, conv: Convention) -> bool:
        m = HallModel(builtin_quiver("single"), p)
        i = DimVector((1,))
        r = verify_green_compatibility(m, i, i, i, i, conv)
        if not r.passed:
            return False
        m2 = HallModel(builtin_quiver("a2"), p)
        r2 = verify_green_compatibility(
            m2, DimVector((1, 0)), DimVector((0, 1)), DimVector((1, 0)), DimVector((0, 1)), conv
        )
        return r2.passed

    def rule_probe(p, conv):
        m = HallModel(builtin_quiver("single"), p)
        i = DimVector((1,))
        return verify_derivation_product_rule(m, 0, 1, i, i, conv).passed

    def strat_probe(p, conv):
        m = HallModel(builtin_quiver("single"), p)
        i = DimVector((1,))
        return verify_stratification(m, 0, 1, i, i, conv).passed

    def serre_gen_probe(p, conv):
        m = HallModel(builtin_quiver("a2"), p)
        return verify_serre_generators(m, 0, 1, conv).passed

    def serre_der_probe(p, conv):
        m = HallModel(builtin_quiver("a2"), p)
        return verify_serre_derivations(m, 0, 1, DimVector((2, 1)), conv).passed

    def pairing_probe(p, conv):
        m = HallModel(builtin_quiver("single"), p)
        return verify_pairing_adjunction(m, 0, 1, DimVector((1,)), conv).passed

    def oprel_probe(p, conv):
        m = HallModel(builtin_quiver("a2"), p)
        return verify_operator_relations(m, 0, DimVector((1, 0)), 2, conv).passed

    def userre_probe(p, conv):
        m = HallModel(builtin_quiver("a2"), p)
        return verify_uminus_serre(m, 0, 1, conv).passed

    return {
        "green": green_probe,
        "derivation_product_rule": rule_probe,
        "stratification": strat_probe,
        "serre_generators": serre_gen_probe,
        "serre_derivations": serre_der_probe,
        "pairing_adjunction": pairing_probe,
        "operator_relations": oprel_probe,
        "uminus_serre": userre_probe,
    }


def pin_convention_table(primes: tuple[int, ...] = (2, 3)) -> dict:
    """Empirically determine which conventions validate each identity family.

    Returns {family: {"pinned": label or None, "validating": {p: [labels]},
    "consistent": bool}}; a family is consistent when some convention
    validates at every prime. Associativity is convention-free (formal).
    """
    table: dict = {"associativity": {"pinned": "formal", "validating": {}, "consistent": True}}
    for family, probe in sorted(_convention_probes().items()):
        per_prime: dict[int, list[str]] = {}
        for p in primes:
            per_prime[p] = [c.label for c in CONVENTIONS if probe(p, c)]
        common = set(per_prime[primes[0]])
        for p in primes[1:]:
            common &= set(per_prime[p])
        pinned = next((c.label for c in CONVENTIONS if c.label in common), None)
        table[family] = {
            "pinned": pinned,
            "validating": {p: v for p, v in per_prime.items()},
            "consistent": pinned is not None,
        }
    return table


# -- suite runner ------------------------------------------------------------------


@dataclass
class SweepConfig:
    """What the verification run covers; defaults follow the standard sweep."""

    quivers: tuple[str, ...] = ("a2", "a3", "kronecker", "disconnected", "single")
    primes: tuple[int, ...] = (2, 3)
    maxdim: int = 4
    single_maxdim: int = 5
    budget: int = DEFAULT_POINT_BUDGET
    only: tuple[str, ...] | None = None
    corrupt: bool = False
    skip_slow: bool = False
    jobs: int = 1  # capped at os.cpu_count(); below 1 is refused
    quiver_texts: tuple[tuple[str, str], ...] | None = None  # (name, text) overrides

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        self.jobs = min(self.jobs, os.cpu_count() or 1)


IDENTITY_FAMILIES = (
    "associativity",
    "green",
    "derivation_product_rule",
    "stratification",
    "serre_generators",
    "serre_derivations",
    "pairing_adjunction",
    "operator_relations",
    "uminus_serre",
    "polynomiality",
)

_MODEL_POOL: dict[tuple, HallModel] = {}


def _pooled_model(text: str, p: int, budget: int) -> HallModel:
    key = (text, p, budget)
    m = _MODEL_POOL.get(key)
    if m is None:
        m = HallModel(Quiver.from_text(text), p, budget)
        _MODEL_POOL[key] = m
    return m


def verify_green_sweep(model: HallModel, nu: DimVector, convention: Convention,
                       corrupt: bool = False) -> Report:
    """All split pairs of one total grading, aggregated."""
    t0 = time.perf_counter()
    params = {"quiver": model.quiver.to_text(), "p": model.p, "nu": list(nu.entries),
              "corrupt": corrupt}
    checked = 0
    for alpha, beta in _splits_of(nu):
        for alpha_p, beta_p in _splits_of(nu):
            r = verify_green_compatibility(model, alpha, beta, alpha_p, beta_p,
                                           convention, corrupt)
            checked += r.details.get("checked", 0)
            if not r.passed:
                r.params["nu"] = list(nu.entries)
                r.elapsed = time.perf_counter() - t0
                return r
    return Report("green", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


def _rule_pairs(Q: Quiver, i: int, m: int, maxtotal: int) -> list[tuple[DimVector, DimVector]]:
    mi = Q.unit(i).scale(m)
    out = []
    for alpha in _dims_up_to(Q, maxtotal):
        for beta in _dims_up_to(Q, maxtotal - alpha.total):
            if mi <= alpha + beta:
                out.append((alpha, beta))
    return out


def verify_rule_sweep(model: HallModel, i: int, m: int, maxtotal: int,
                      convention: Convention, corrupt: bool = False) -> Report:
    t0 = time.perf_counter()
    params = {"quiver": model.quiver.to_text(), "p": model.p, "i": i, "m": m,
              "maxtotal": maxtotal, "corrupt": corrupt}
    checked = 0
    for alpha, beta in _rule_pairs(model.quiver, i, m, maxtotal):
        r = verify_derivation_product_rule(model, i, m, alpha, beta, convention, corrupt)
        checked += r.details.get("checked", 0)
        if not r.passed:
            r.elapsed = time.perf_counter() - t0
            return r
    return Report("derivation_product_rule", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


def verify_stratification_sweep(model: HallModel, i: int, m: int, maxtotal: int,
                                convention: Convention) -> Report:
    """All (alpha, beta) with a genuinely multi-stratum range a < b, plus one
    degenerate case for coverage."""
    t0 = time.perf_counter()
    Q = model.quiver
    params = {"quiver": Q.to_text(), "p": model.p, "i": i, "m": m, "maxtotal": maxtotal}
    checked = 0
    seen_degenerate = False
    for alpha, beta in _rule_pairs(Q, i, m, maxtotal):
        lo, hi, _ = stratum_data(Q, alpha, beta, i, m)
        if lo > hi:
            continue
        if lo == hi:
            if seen_degenerate or alpha.total + beta.total > 2:
                continue
            seen_degenerate = True
        r = verify_stratification(model, i, m, alpha, beta, convention)
        checked += r.details.get("checked", 0)
        if not r.passed:
            r.elapsed = time.perf_counter() - t0
            return r
    return Report("stratification", params, "pass", None, convention.label,
                  {"checked": checked}, time.perf_counter() - t0)


def experiment_reports(primes: tuple[int, ...]) -> list[Report]:
    """Observations recorded alongside the suite, never failing it: the
    same-vertex commutation of the two symbolic derivations, and the monomial
    bridge between iterated one-step derivations and the single m-step one."""
    t0 = time.perf_counter()
    out = []
    Q = builtin_quiver("a2")
    commute = True
    for w in product(range(Q.n), repeat=3):
        x = uminus.FreeElement.make(Q, {tuple(w): LaurentPoly.one()})
        for i in range(Q.n):
            a = uminus.derivation_right(uminus.derivation_left(x, i), i)
            b = uminus.derivation_left(uminus.derivation_right(x, i), i)
            if a != b:
                commute = False
    out.append(Report(
        "experiment", {"name": "left_right_same_vertex_commute", "words": "length 3"},
        "info", None, None, {"observed_commuting": commute},
        time.perf_counter() - t0,
    ))
    t1 = time.perf_counter()
    bridge_holds = True
    for p in primes:
        model = _pooled_model(Q.to_text(), p, DEFAULT_POINT_BUDGET)
        for dim in (DimVector((2, 1)), DimVector((2, 2))):
            for M in model.table(dim).ids():
                f = hall.unit_class(model, M)
                for i in range(Q.n):
                    for m in (2,):
                        single = hall.derive_sub(model, f, i, m)
                        iterated = f
                        for _ in range(m):
                            iterated = hall.derive_sub(model, iterated, i, 1)
                        if iterated != single.scale(LaurentPoly.v(-m * (m - 1) // 2)):
                            bridge_holds = False
    out.append(Report(
        "experiment",
        {"name": "iterated_vs_single_derivation_monomial_bridge", "relation":
         "eps_i^m = v^{-m(m-1)/2} * (m-step derivation)"},
        "info", None, None, {"observed": bridge_holds}, time.perf_counter() - t1,
    ))
    return out


def _suite_specs(config: SweepConfig) -> list[tuple]:
    """Declarative job list; each entry is (family, quiver_name, quiver_text, p, kwargs)."""
    if config.quiver_texts is not None:
        quivers = list(config.quiver_texts)
    else:
        quivers = [(n, builtin_quiver(n).to_text()) for n in config.quivers]
    specs: list[tuple] = []

    def qmax(name: str, Q: Quiver) -> int:
        return config.single_maxdim if Q.n == 1 else config.maxdim

    for name, text in quivers:
        Q = Quiver.from_text(text)
        md = qmax(name, Q)
        for p in config.primes:
            specs.append(("associativity", name, text, p, {"maxdim": md}))
            for total in range(1, md + 1):
                for nu in _dims_up_to(Q, total):
                    if nu.total == total:
                        specs.append(("green", name, text, p, {"nu": nu.entries}))
            for i in range(Q.n):
                for m in (1, 2):
                    specs.append(("derivation_product_rule", name, text, p,
                                  {"i": i, "m": m, "maxtotal": md}))
                    strat_cap = min(md, 3) if len(Q.arrows) > 1 else md
                    specs.append(("stratification", name, text, p,
                                  {"i": i, "m": m, "maxtotal": strat_cap}))
                specs.append(("operator_relations", name, text, p,
                              {"i": i, "alpha": Q.unit(i).entries, "maxother": 2}))
                for m in (1, 2):
                    specs.append(("pairing_adjunction", name, text, p,
                                  {"i": i, "m": m, "alpha": Q.unit((i + 1) % Q.n).entries}))
            if Q.n >= 2:
                specs.append(("pairing_general", name, text, p,
                              {"alpha": Q.unit(0).entries, "beta": Q.unit(1).entries}))
                for i in range(Q.n):
                    for j in range(Q.n):
                        if i == j:
                            continue
                        specs.append(("serre_generators", name, text, p, {"i": i, "j": j}))
                        n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
                        testdim = Q.unit(i).scale(n_top) + Q.unit(j)
                        specs.append(("serre_derivations", name, text, p,
                                      {"i": i, "j": j, "testdim": testdim.entries}))
                        specs.append(("uminus_serre", name, text, p, {"i": i, "j": j}))
    specs.append(("polynomiality", None, None, None, {"full": not config.skip_slow,
                                                      "budget": config.budget}))
    if config.only is not None:
        keep = set(config.only)
        specs = [s for s in specs if _family_of(s[0]) in keep]
    return specs


def _family_of(kind: str) -> str:
    return "pairing_adjunction" if kind == "pairing_general" else kind


def run_spec(spec: tuple, budget: int, corrupt: bool, pins: dict) -> list[Report]:
    kind, name, text, p, kw = spec
    if kind == "polynomiality":
        from .polyfit import verify_polynomiality

        return verify_polynomiality(budget=kw["budget"], full=kw["full"])
    model = _pooled_model(text, p, budget)
    conv_label = pins.get(_family_of(kind), {}).get("pinned") or DEFAULT_PINS[_family_of(kind)]
    conv = CONVENTION_BY_LABEL.get(conv_label)
    if kind == "associativity":
        return [verify_associativity(model, kw["maxdim"], corrupt=corrupt)]
    if kind == "green":
        return [verify_green_sweep(model, DimVector(kw["nu"]), conv, corrupt=corrupt)]
    if kind == "derivation_product_rule":
        return [verify_rule_sweep(model, kw["i"], kw["m"], kw["maxtotal"], conv,
                                  corrupt=corrupt)]
    if kind == "stratification":
        return [verify_stratification_sweep(model, kw["i"], kw["m"], kw["maxtotal"], conv)]
    if kind == "serre_generators":
        return [verify_serre_generators(model, kw["i"], kw["j"], conv, corrupt=corrupt)]
    if kind == "serre_derivations":
        return [verify_serre_derivations(model, kw["i"], kw["j"],
                                         DimVector(kw["testdim"]), conv)]
    if kind == "pairing_adjunction":
        return [verify_pairing_adjunction(model, kw["i"], kw["m"],
                                          DimVector(kw["alpha"]), conv)]
    if kind == "pairing_general":
        return [verify_pairing_general(model, DimVector(kw["alpha"]),
                                       DimVector(kw["beta"]), conv)]
    if kind == "operator_relations":
        return [verify_operator_relations(model, kw["i"], DimVector(kw["alpha"]),
                                          kw["maxother"], conv)]
    if kind == "uminus_serre":
        conv_u = CONVENTION_BY_LABEL.get(
            pins.get("uminus_serre", {}).get("pinned") or DEFAULT_PINS["uminus_serre"]
        )
        return [verify_uminus_serre(model, kw["i"], kw["j"], conv_u)]
    raise ValueError(f"unknown job kind {kind}")


def _spec_worker(args):
    spec, budget, corrupt, pins = args
    return [r.to_json() for r in run_spec(spec, budget, corrupt, pins)]


def run_suite(config: SweepConfig) -> list[Report]:
    """Execute the configured sweep; the first report carries the convention
    table, experiments are appended as info reports."""
    t0 = time.perf_counter()
    pins = pin_convention_table(config.primes)
    reports = [Report(
        "convention_table", {"primes": list(config.primes)},
        "pass" if all(v.get("consistent", True) for v in pins.values()) else "fail",
        None if all(v.get("consistent", True) for v in pins.values())
        else {"inconsistent": [k for k, v in pins.items() if not v.get("consistent", True)]},
        None, pins, time.perf_counter() - t0,
    )]
    specs = _suite_specs(config)
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            args = [(s, config.budget, config.corrupt, pins) for s in specs]
            for chunk in pool.map(_spec_worker, args):
                for data in chunk:
                    reports.append(Report(**{
                        "identity": data["identity"], "params": data["params"],
                        "status": data["status"], "witness": data["witness"],
                        "convention": data["convention"], "details": data["details"],
                        "elapsed": data["elapsed"],
                    }))
    else:
        for s in specs:
            reports.extend(run_spec(s, config.budget, config.corrupt, pins))
    if config.only is None:
        reports.extend(experiment_reports(config.primes))
    return reports
