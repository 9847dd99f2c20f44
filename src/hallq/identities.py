"""Verification engine: every theorem shadow is a named, parameterized check
producing a structured Report.

Each check is a generator of comparisons between the two sides of its
identity, run by `_check`, which alone times the check, counts the
comparisons and builds the Report; the sweeps over many gradings aggregate
their checks' reports in `_sweep`.

Checks compare exact scalars in Q[sqrt(p)] after specializing the formal
variable. Every specialized two-sided check takes one path: it adds up both
sides formally (`_accumulate`), `_compare` specializes their difference once
per coefficient, and `_failure` renders a mismatch. The telescoping of the
strata and operator relations item 1 compare with `==`. Associativity
compares integers: u_N * u_L = v^{tw(a,b)} sum_M F^M_{N,L} u_M, tw bilinear
and every F positive, so at classes (A, B, C) of gradings (a, b, c) the
sides agree exactly when L[X] = sum_M F^M_{A,B} F^X_{M,C} equals R[X] =
sum_N F^N_{B,C} F^X_{A,N} and either L is empty or tw(a,b) + tw(a+b,c) =
tw(b,c) + tw(a,b+c); L and R serve both twists. Four specialization
conventions are supported, v = s * p^{e/2} with s in {+1,-1} and e in
{+1,-1}; which convention validates is not assumed but pinned empirically
per identity family and emitted as a machine-readable table. Vanishing in
Q[sqrt(p)] at one sign forces vanishing at the other (the two components
vanish separately), so the pinning really selects the exponent direction;
both signs are recorded.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import groupby, product
from operator import itemgetter

from . import hall, uminus
from .ffrep import DEFAULT_POINT_BUDGET, IsoClassId
from .fpmat import check_prime
from .hall import HallElement, HallModel, TensorElement
from .laurent import (
    LaurentPoly,
    Scalar,
    SqrtQScalar,
    add_product,
    evaluate_at_sqrt_q,
    quantum_binomial,
    quantum_factorial,
)
from .quiver import SPLIT_SLOT, DimVector, Quiver, builtin_names, builtin_quiver, stratum_data, symmetric_form


@dataclass(frozen=True)
class Convention:
    """v = sign * p^{power/2}."""

    label: str
    sign: int
    power: int

    def poly(self, f: LaurentPoly | dict[int, Scalar], p: int) -> SqrtQScalar:
        """f at this convention; f is a LaurentPoly or a plain exponent -> coefficient dict."""
        return evaluate_at_sqrt_q(f, p, self.sign, self.power)


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


def _labels(model: HallModel, *classes: IsoClassId) -> list[str]:
    return [model.table(DimVector(c.dim)).label(c) for c in classes]


def _render_spec(model: HallModel, d: dict) -> dict:
    """Class labels (a pair of classes as "(N,L)") -> the coefficient as text."""

    def lab(k):
        if isinstance(k, tuple):
            return "(" + ",".join(_labels(model, *k)) + ")"
        return _labels(model, k)[0]

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
        return {**asdict(self), "elapsed": round(self.elapsed, 6)}


# -- the check runner ---------------------------------------------------------------

# stands, in a check's details, for the number of comparisons it made
_COUNT = object()
_CHECKED = {"checked": _COUNT}


def _failure(model: HallModel, left: dict, right: dict, witness: dict,
             names: tuple[str, str] = ("lhs", "rhs"), details: dict = _CHECKED) -> tuple:
    """The (witness, details) of a failing comparison of two specialized
    sides: `witness` with the sides rendered under `names`."""
    return {**witness, names[0]: _render_spec(model, left),
            names[1]: _render_spec(model, right)}, details


_ONE = LaurentPoly.one()


def _accumulate(acc: dict, f: HallElement | TensorElement, scalar: LaurentPoly = _ONE) -> dict:
    """acc += scalar * f, on a formal side key -> {exponent: coefficient}; returns acc."""
    for k, c in f.terms:
        add_product(acc.setdefault(k, {}), scalar, c)
    return acc


def _compare(left: dict, right: dict, p: int, convention: Convention) -> tuple[dict, dict] | None:
    """Compare two formal sides, key -> {exponent: coefficient}, at
    `convention`: left[k] - right[k] is specialized once per key, a key of one
    side only standing against zero. None when every difference vanishes,
    else both sides specialized, zeros dropped, for `_failure`."""
    for k in left.keys() | right.keys():
        diff = dict(left.get(k, ()))
        for e, x in right.get(k, {}).items():
            diff[e] = diff.get(e, 0) - x
        if convention.poly(diff, p):
            return tuple({k: v for k, d in side.items() if (v := convention.poly(d, p))}
                         for side in (left, right))
    return None


def _check(identity: str, params: dict, convention: str | None, comparisons,
           status: str = "pass") -> Report:
    """Run one check and report it.

    `comparisons` is a generator that yields once per comparison of the two
    sides of the identity: None when they agree, or (witness, details) for
    the first that does not, which ends the check with status "fail"; the
    generator is not resumed after a failure. Otherwise the report's status
    is `status` and its details are what the generator returns (None means
    _CHECKED). In either details dict, the value _COUNT is replaced by the
    number of comparisons made.
    """
    t0 = time.perf_counter()
    checked = 0
    witness = None
    while True:
        try:
            failure = next(comparisons)
        except StopIteration as done:
            details = _CHECKED if done.value is None else done.value
            break
        checked += 1
        if failure is not None:
            status = "fail"
            witness, details = failure
            break
    details = {k: checked if v is _COUNT else v for k, v in details.items()}
    return Report(identity, params, status, witness, convention, details,
                  time.perf_counter() - t0)


def _sweep(identity: str, params: dict, convention: str, reports) -> Report:
    """Aggregate the reports of one family's checks: the first failing
    report, timed from the start of the sweep, or a pass with the comparisons
    of every check summed."""
    t0 = time.perf_counter()
    checked = 0
    for r in reports:
        checked += r.details.get("checked", 0)
        if not r.passed:
            r.elapsed = time.perf_counter() - t0
            return r
    return Report(identity, params, "pass", None, convention, {"checked": checked},
                  time.perf_counter() - t0)


def _params(model: HallModel, **kw) -> dict:
    """A report's params: the quiver text, p, then `kw` with each DimVector as a list."""
    return {"quiver": model.quiver.to_text(), "p": model.p,
            **{k: list(v.entries) if isinstance(v, DimVector) else v for k, v in kw.items()}}


def _dims_up_to(Q: Quiver, total: int) -> list[DimVector]:
    out = []
    for entries in product(range(total + 1), repeat=Q.n):
        if sum(entries) <= total:
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
    grading at most maxdim, both twist conventions, by the integer rule of the
    module docstring; only a failing triple builds the products, for its witness."""
    Q = model.quiver
    params = _params(model, maxdim=maxdim, corrupt=corrupt)

    def witness(A, B, C, ringel, twist_name):
        prod_fn = hall.ringel_product if ringel else hall.geometric_induction
        u_a, u_b, u_c = (hall.unit_class(model, X) for X in (A, B, C))
        lhs = prod_fn(model, prod_fn(model, u_a, u_b), u_c)
        lhs = lhs.scale(LaurentPoly.v(1)) if corrupt else lhs
        rhs = prod_fn(model, u_a, prod_fn(model, u_b, u_c))
        return {"twist": twist_name, "triple": _labels(model, A, B, C),
                "lhs": hall.element_to_json(model, lhs), "rhs": hall.element_to_json(model, rhs)}, _CHECKED

    def comparisons():
        verdicts = bytearray()  # per triple, in order: 0 if L != R, 1 if L is empty, else 2
        for ringel, twist_name in ((False, "geometric"), (True, "ringel")):
            t, stored = (2 if ringel else 1), iter(verdicts)  # t: the twist's place in a grading
            for da in _dims_up_to(Q, maxdim):
                for db in _dims_up_to(Q, maxdim - da.total):
                    for dc in _dims_up_to(Q, maxdim - da.total - db.total):
                        g_ab, g_bc = model.grading(da, db), model.grading(db, dc)
                        # the verdicts that pass; the corrupt fixture's v is on the left side
                        left_exp = g_ab[t] + model.grading(g_ab[0], dc)[t] + (1 if corrupt else 0)
                        passing = (1, 2) if left_exp == g_bc[t] + model.grading(da, g_bc[0])[t] else (1,)
                        if not ringel:  # the Ringel pass reads only the stored verdicts
                            t_ab, t_left = model.filtration_table(da, db), model.filtration_table(g_ab[0], dc)
                            t_bc, t_right = model.filtration_table(db, dc), model.filtration_table(da, g_bc[0])
                        for A, B in product(model.table(da).ids(), model.table(db).ids()):
                            if not ringel:
                                hist_ab = t_ab.get((A, B), {}).items()
                            for C in model.table(dc).ids():
                                if not ringel:  # the verdict appended is the next one `stored` reads
                                    left, right = defaultdict(int), defaultdict(int)
                                    for M, c in hist_ab:
                                        for X, d in t_left.get((M, C), {}).items():
                                            left[X] += c * d
                                    for N, c in t_bc.get((B, C), {}).items():
                                        for X, d in t_right.get((A, N), {}).items():
                                            right[X] += c * d
                                    verdicts.append(0 if left != right else 2 if left else 1)
                                yield None if next(stored) in passing else witness(A, B, C, ringel, twist_name)

    return _check("associativity", params, "formal", comparisons())


# -- Green compatibility ---------------------------------------------------------


def _green_strata(Q: Quiver, alpha: DimVector, beta: DimVector, alpha_p: DimVector,
                  beta_p: DimVector) -> list[tuple[tuple[DimVector, ...], int]]:
    """The strata (a1, a2, b1, b2) with a1+a2 = alpha, b1+b2 = beta,
    a1+b1 = alpha', a2+b2 = beta', each with its Green twist -(a2, b1), in
    the order of the splits of alpha: a1 runs componentwise over
    [max(0, alpha' - beta), min(alpha, alpha')]."""
    out = []
    ranges = [range(max(0, ap - b), min(a, ap) + 1)
              for a, b, ap in zip(alpha.entries, beta.entries, alpha_p.entries)]
    for e1 in product(*ranges):
        a1 = DimVector._unchecked(e1)
        a2 = DimVector._unchecked(tuple(a - x for a, x in zip(alpha.entries, e1)))
        b1 = DimVector._unchecked(tuple(ap - x for ap, x in zip(alpha_p.entries, e1)))
        b2 = DimVector._unchecked(tuple(b - x for b, x in zip(beta.entries, b1.entries)))
        out.append(((a1, a2, b1, b2), -symmetric_form(Q, a2, b1)))
    return out


def _add_green_stratum(
    model: HallModel,
    acc: dict[tuple[IsoClassId, IsoClassId], dict[int, Scalar]],
    A: IsoClassId,
    B: IsoClassId,
    stratum: tuple[DimVector, DimVector, DimVector, DimVector],
    exp: int,
) -> None:
    """Add the Green right-hand side of one stratum (a1, a2, b1, b2), times
    v^exp, into acc: (N, L) -> exponent -> coefficient. The restrictions
    Res u_A at (a1, a2) and Res u_B at (b1, b2) are multiplied slotwise,
    u_{n1} (x) u_{n2} times u_{l1} (x) u_{l2} giving (u_{n1} * u_{l1}) (x)
    (u_{n2} * u_{l2}); the model memoizes the restrictions and unit products."""
    a1, a2, b1, b2 = stratum
    res_a = model.unit_restriction(A, (a1, a2))
    res_b = model.unit_restriction(B, (b1, b2))
    for (n1, n2), ca in res_a.terms:
        for (l1, l2), cb in res_b.terms:
            left = model.unit_product(n1, l1)
            right = model.unit_product(n2, l2)
            base = ca * cb
            for N, cn in left.terms:
                left_base = base * cn
                for L, cl in right.terms:
                    add_product(acc.setdefault((N, L), {}), left_base, cl, exp)


def _green_sides(model: HallModel, A: IsoClassId, B: IsoClassId,
                 split: tuple[DimVector, DimVector], strata) -> tuple[dict, dict]:
    """Both sides of Green's formula at the class pair (A, B) as formal sides
    (N, L) -> {exponent: coefficient}: the left Res(u_A * u_B) at `split` =
    sum_M c_M Res u_M over u_A * u_B = sum_M c_M u_M, the right the sum over
    `strata`, (stratum, exponent) pairs from `_green_strata`, each twisted by
    v^exponent."""
    lhs: dict = {}
    for M, c in model.unit_product(A, B).terms:
        _accumulate(lhs, model.unit_restriction(M, split), c)
    rhs: dict = {}
    for stratum, exp in strata:
        _add_green_stratum(model, rhs, A, B, stratum, exp)
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
    Q, p = model.quiver, model.p
    params = _params(model, alpha=alpha, beta=beta, alpha_p=alpha_p, beta_p=beta_p,
                     corrupt=corrupt)
    if alpha + beta != alpha_p + beta_p:
        raise ValueError("splits must share the total grading")

    def comparisons():
        # the strata depend on the gradings alone: once per check, not per pair.
        # Not on the model: a sweep checks each grading once, so a memo there
        # would only hold memory until the run releases the space
        strata = [(stratum, exp + 1 if corrupt else exp)
                  for stratum, exp in _green_strata(Q, alpha, beta, alpha_p, beta_p)]
        for A in model.table(alpha).ids():
            for B in model.table(beta).ids():
                sides = _compare(*_green_sides(model, A, B, (alpha_p, beta_p), strata), p, convention)
                yield sides and _failure(model, *sides, {"pair": _labels(model, A, B)})

    return _check("green", params, convention.label, comparisons())


# -- derivation product rules ----------------------------------------------------


def _rule_cases(model: HallModel, i: int, m: int, alpha: DimVector, beta: DimVector,
                corrupt: bool = False):
    """The cases of the product rule at (alpha, beta), per side and class pair
    (A, B), read from the model's operator values on unit classes:
    (side, A, B, total, [(t, scalar, a, b)]). total is derive(u_A * u_B, i, m)
    as a formal side, sum_M c_M derive(u_M, i, m) over u_A * u_B = sum_M c_M
    u_M; per stratum (t, P_t, P'_t) of `stratum_data`, a = derive(u_A, i, t),
    b = derive(u_B, i, m - t) and scalar = f_{m,t} v^{-P}, P being P_t for
    side "sub" and P'_t for "quot". The rule's right side is the sum of
    scalar * a * b (`_add_rule_term`). `corrupt` multiplies each scalar by v."""
    strata = [(t, quantum_binomial(m, t), pt, ppt)
              for t, pt, ppt in stratum_data(model.quiver, alpha, beta, i, m)[2]]
    shift = 1 if corrupt else 0
    for side in ("sub", "quot"):
        scalars = [(t, f * LaurentPoly.v(shift - (pt if side == "sub" else ppt)))
                   for t, f, pt, ppt in strata]
        for A in model.table(alpha).ids():
            derived_a = [model.unit_derived(A, i, t, side) for t, _ in scalars]
            for B in model.table(beta).ids():
                total: dict = {}
                for M, c in model.unit_product(A, B).terms:
                    _accumulate(total, model.unit_derived(M, i, m, side), c)
                yield side, A, B, total, [(t, scalar, a, model.unit_derived(B, i, m - t, side))
                                          for (t, scalar), a in zip(scalars, derived_a)]


def _add_rule_term(model: HallModel, acc: dict, scalar: LaurentPoly, a: HallElement,
                   b: HallElement) -> dict:
    """acc += scalar * a * b, read from the model's unit products: the sum over
    the classes N of a and L of b of scalar a_N b_L (u_N * u_L); returns acc."""
    for N, ca in a.terms:
        base = scalar * ca
        for L, cb in b.terms:
            _accumulate(acc, model.unit_product(N, L), base * cb)
    return acc


def verify_derivation_product_rule(
    model: HallModel, i: int, m: int, alpha: DimVector, beta: DimVector,
    convention: Convention, corrupt: bool = False,
) -> Report:
    """Both flavors of the derivation-of-a-product formula, coefficientwise."""
    p = model.p
    params = _params(model, i=i, m=m, alpha=alpha, beta=beta, corrupt=corrupt)

    def comparisons():
        for side, A, B, total, terms in _rule_cases(model, i, m, alpha, beta, corrupt):
            rhs: dict = {}
            for _, scalar, a, b in terms:
                _add_rule_term(model, rhs, scalar, a, b)
            sides = _compare(total, rhs, p, convention)
            yield sides and _failure(model, *sides, {"side": side, "pair": _labels(model, A, B)})

    return _check("derivation_product_rule", params, convention.label, comparisons())


# -- stratified refinement -------------------------------------------------------


def verify_stratification(
    model: HallModel, i: int, m: int, alpha: DimVector, beta: DimVector,
    convention: Convention,
) -> Report:
    """Per-stratum equality plus exact telescoping of the stratified pieces:
    the strata sum to the product rule's left side, and stratum t equals
    its right-hand term."""
    Q, p = model.quiver, model.p
    params = _params(model, i=i, m=m, alpha=alpha, beta=beta)
    lo, hi, _ = stratum_data(Q, alpha, beta, i, m)
    nu = alpha + beta

    def comparisons():
        for side, A, B, total, terms in _rule_cases(model, i, m, alpha, beta):
            stratified = hall.stratified_derive_sub if side == "sub" else hall.stratified_derive_quot
            strata = stratified(model, A, B, i, m)
            if any(t < lo or t > hi for t in strata):
                yield {"reason": "stratum index out of range", "got": sorted(strata)}, {}
            acc = sum((strata[t] for t in sorted(strata)), HallElement.zero(Q, p))
            split = model.split(nu, i, m, side)  # the total's grading is its rest slot
            whole = HallElement._of(Q, p, split and split[SPLIT_SLOT[side]],
                                    {M: LaurentPoly(d) for M, d in total.items()})
            yield None if acc == whole else ({
                "reason": "strata do not telescope to the total",
                "pair": _labels(model, A, B),
                "sum": hall.element_to_json(model, acc),
                "total": hall.element_to_json(model, whole),
            }, _CHECKED)
            for t, scalar, a, b in terms:
                got = strata.get(t)
                stratum = {} if got is None else _accumulate({}, got)
                sides = _compare(stratum, _add_rule_term(model, {}, scalar, a, b), p, convention)
                yield sides and _failure(
                    model, *sides, {"side": side, "t": t, "pair": _labels(model, A, B)},
                    ("stratum", "expected"))

    return _check("stratification", params, convention.label, comparisons())


# -- quantum Serre, class level ---------------------------------------------------


def verify_serre_generators(
    model: HallModel, i: int, j: int, convention: Convention, corrupt: bool = False
) -> Report:
    """Odd-m sum equals even-m sum of L_{mi} * L_j * L_{(n-m)i}, the
    constant-class Serre identity under the geometric product."""
    Q, p = model.quiver, model.p
    params = _params(model, i=i, j=j, corrupt=corrupt)
    if i == j:
        raise ValueError("serre check needs distinct vertices")
    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))

    def comparisons():
        ind, const = hall.geometric_induction, hall.constant_class
        lj = const(model, j, 1)
        halves: tuple[dict, dict] = ({}, {})  # even m, odd m
        for m in range(n_top + 1):
            term = ind(model, ind(model, const(model, i, m), lj), const(model, i, n_top - m))
            _accumulate(halves[m % 2], term, LaurentPoly.v(2) if corrupt and m == 0 else _ONE)
        sides = _compare(halves[1], halves[0], p, convention)
        yield sides and _failure(model, *sides, {}, ("odd", "even"), {})
        return {"terms": n_top + 2}

    return _check("serre_generators", params, convention.label, comparisons())


# -- quantum Serre for derivation operators ----------------------------------------


def verify_serre_derivations(
    model: HallModel, i: int, j: int, testdim: DimVector, convention: Convention
) -> Report:
    """Odd-m sum equals even-m sum of the divided derivation composites
    eps_i^{(m)} eps_j eps_i^{(n-m)}, eps the one-step derivation, on every
    basis class at the test grading, for both derivation flavors."""
    Q, p = model.quiver, model.p
    params = _params(model, i=i, j=j, testdim=testdim)
    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
    need = Q.unit(i).scale(n_top) + Q.unit(j)
    if not need <= testdim:
        raise ValueError(f"testdim must dominate {need}")

    def comparisons():
        # both sides times [n]!: the divided powers of chain m become the
        # formal scalar [n]!/([m]![n-m]!) on its one-step chain
        chains = [(m, quantum_binomial(n_top, m), [i] * (n_top - m) + [j] + [i] * m)
                  for m in range(n_top + 1)]
        for flavor in ("sub", "quot"):
            step = hall.derivation(flavor)
            for M in model.table(testdim).ids():
                halves: tuple[dict, dict] = ({}, {})  # even m, odd m
                for m, scalar, vertices in chains:
                    g = hall.unit_class(model, M)
                    for k in vertices:
                        g = step(model, g, k, 1)
                    _accumulate(halves[m % 2], g, scalar)
                sides = _compare(halves[1], halves[0], p, convention)
                if sides:  # divided back by [n]!, nonzero at every convention
                    nf = convention.poly(quantum_factorial(n_top), p)
                    sides = [{k: v / nf for k, v in side.items()} for side in sides]
                yield sides and _failure(
                    model, *sides,
                    {"flavor": flavor, "class": model.table(testdim).label(M)}, ("odd", "even"))

    return _check("serre_derivations", params, convention.label, comparisons())


# -- pairing adjunction -------------------------------------------------------------


def _as_signed_q_power(s: SqrtQScalar) -> tuple[int, int] | None:
    """Write s = sign * q^{k/2}; returns (sign, k) or None if not of that shape."""
    if bool(s.even) == bool(s.odd):
        return None
    part = s.even or s.odd
    num, den = abs(part).numerator, abs(part).denominator
    if num != 1 and den != 1:
        return None
    n, j = max(num, den), 0
    while n % s.q == 0:
        n //= s.q
        j += 1
    if n != 1:
        return None
    k = 2 * j if den == 1 else -2 * j
    return (1 if part > 0 else -1, k if s.even else k + 1)


def _bridged(cases, details: dict):
    """Compare the (key, witness, lhs, rhs) cases of one pairing check, one
    comparison per case. Each key's bridge b is lhs / rhs at its first case
    with both sides nonzero, and must be a signed power of sqrt(q); every case
    must then have lhs == b * rhs, and before it both sides must be zero.
    Returns `details` plus key -> {"sign", "sqrtq_exponent"} of each
    b = sign * q^{k/2}."""
    bridges, powers = {}, {}
    for key, witness, lhs, rhs in cases:
        b = bridges.get(key)
        if b is None and lhs and rhs:
            b = bridges[key] = lhs / rhs
            powers[key] = _as_signed_q_power(b)
            if powers[key] is None:
                yield {**witness, "ratio": str(b)}, {"reason": "bridge is not a signed q-power"}
        agrees = not (lhs or rhs) if b is None else lhs == b * rhs
        yield None if agrees else (
            {**witness, "lhs": str(lhs), "rhs": str(rhs), "bridge": None if b is None else str(b)},
            {"reason": "lhs is not the bridge times rhs"})
    return {**details, **{key: {"sign": sgn, "sqrtq_exponent": k}
                          for key, (sgn, k) in sorted(powers.items())}}


def verify_pairing_adjunction(
    model: HallModel, i: int, m: int, alpha: DimVector, convention: Convention
) -> Report:
    """Constant-class adjunction with an empirical bridge factor.

    Both {L_{mi} * A, B} and prod_k (1 - v^{2k})^{-1} {A, derive(B)} are
    computed for every basis pair; their ratio must be one signed power of
    sqrt(q), constant across pairs (and flavors mirror with the right product).
    """
    Q, p = model.quiver, model.p
    params = _params(model, i=i, m=m, alpha=alpha)
    big = alpha + Q.unit(i).scale(m)

    def cases():
        L = hall.constant_class(model, i, m).terms[0][0]  # the one class at m*e_i
        paper = LaurentPoly.one()
        for k in range(1, m + 1):
            paper = paper * (LaurentPoly.one() - LaurentPoly.v(2 * k))
        paper_inv = convention.poly(paper, p).inverse() if m else SqrtQScalar.one(p)
        for flavor in ("sub", "quot"):
            for A in model.table(alpha).ids():
                fa = hall.unit_class(model, A)
                prod = model.unit_product(L, A) if flavor == "sub" else model.unit_product(A, L)
                for B in model.table(big).ids():
                    lhs = convention.poly(hall.pairing(model, prod, hall.unit_class(model, B)), p)
                    inner = hall.pairing(model, fa, model.unit_derived(B, i, m, flavor))
                    yield (f"bridge_{flavor}", {"flavor": flavor, "pair": _labels(model, A, B)},
                           lhs, paper_inv * convention.poly(inner, p))

    return _check("pairing_adjunction", params, convention.label, _bridged(cases(), _CHECKED))


def verify_pairing_general(
    model: HallModel, alpha: DimVector, beta: DimVector, convention: Convention
) -> Report:
    """{A (x) B, Res C} against {A*B, C}: their ratio must be a single signed
    q-power depending only on the split, zero where both sides are zero."""
    p = model.p
    params = _params(model, alpha=alpha, beta=beta)
    nu = alpha + beta

    def cases():
        ta, tb = model.table(alpha), model.table(beta)
        for A in ta.ids():
            for B in tb.ids():
                prod = model.unit_product(A, B)
                weight = Fraction(1, ta.info(A).aut_count * tb.info(B).aut_count)
                for C in model.table(nu).ids():
                    res = model.unit_restriction(C, (alpha, beta)).coeffs()
                    yield ("bridge", {"triple": _labels(model, A, B, C)},
                           convention.poly(res.get((A, B), LaurentPoly.zero()) * weight, p),
                           convention.poly(hall.pairing(model, prod, hall.unit_class(model, C)), p))

    return _check("pairing_adjunction", params, convention.label,
                  _bridged(cases(), {"part": "general", **_CHECKED}))


# -- operator relations ---------------------------------------------------------------


def verify_operator_relations(
    model: HallModel, i: int, alpha: DimVector, maxother: int, convention: Convention
) -> Report:
    """Composition and commutation laws for the multiplication and one-step
    derivation operators; the divided Serre law is delegated to
    verify_serre_derivations."""
    Q, p = model.quiver, model.p
    params = _params(model, i=i, alpha=alpha, maxother=maxother)
    exp = LaurentPoly.v(-symmetric_form(Q, alpha, Q.unit(i)))

    def comparisons():
        ind = hall.geometric_induction

        def mul(side, x, y):  # left multiplication for "sub", right for its mirror
            return ind(model, x, y) if side == "sub" else ind(model, y, x)

        for A in model.table(alpha).ids():
            fa = hall.unit_class(model, A)
            for db in _dims_up_to(Q, maxother):
                for B in model.table(db).ids():
                    fb = hall.unit_class(model, B)
                    # (1) m^L_A m^L_B = m^L_{A*B} and the m^R mirror
                    for C in model.table(Q.unit(i)).ids():
                        l1 = ind(model, fa, model.unit_product(B, C))
                        r1 = ind(model, model.unit_product(A, B), hall.unit_class(model, C))
                        yield None if l1 == r1 else ({"item": 1}, {})
                    # (3) left derivation against left multiplication, (4) the right mirror
                    for item, side in ((3, "sub"), (4, "quot")):
                        ab = model.unit_product(*((A, B) if side == "sub" else (B, A)))
                        lhs = _accumulate({}, hall.derivation(side)(model, ab, i, 1))
                        rhs = _accumulate({}, mul(side, fa, model.unit_derived(B, i, 1, side)), exp)
                        _accumulate(rhs, mul(side, model.unit_derived(A, i, 1, side), fb))
                        sides = _compare(lhs, rhs, p, convention)
                        yield sides and _failure(
                            model, *sides, {"item": item, "pair": _labels(model, A, B)}, details={})
        return {**_CHECKED, "item2": "delegated to serre_derivations"}

    return _check("operator_relations", params, convention.label, comparisons())


# -- symbolic layer -------------------------------------------------------------------


def verify_uminus_serre(model: HallModel, i: int, j: int, convention: Convention) -> Report:
    """serre_element evaluates to zero in the Hall algebra under the Euler-form
    twist at the pinned convention."""
    p = model.p
    params = _params(model, i=i, j=j, twist="ringel")

    def comparisons():
        value = _accumulate({}, uminus.evaluate_to_hall(uminus.serre_element(i, j, model.quiver), model))
        sides = _compare(value, {}, p, convention)
        yield sides and ({"value": _render_spec(model, sides[0])}, {})
        return {}

    return _check("uminus_serre", params, convention.label, comparisons())


# -- convention pinning ----------------------------------------------------------------

_E1 = DimVector((1,))

# (family, quiver, check): small representative instances per identity
# family; a convention validates a family at p when all its checks pass
_PROBES = (
    ("green", "single", lambda m, c: verify_green_compatibility(m, _E1, _E1, _E1, _E1, c)),
    ("green", "a2", lambda m, c: verify_green_compatibility(
        m, DimVector((1, 0)), DimVector((0, 1)), DimVector((1, 0)), DimVector((0, 1)), c)),
    ("derivation_product_rule", "single",
     lambda m, c: verify_derivation_product_rule(m, 0, 1, _E1, _E1, c)),
    ("stratification", "single", lambda m, c: verify_stratification(m, 0, 1, _E1, _E1, c)),
    ("serre_generators", "a2", lambda m, c: verify_serre_generators(m, 0, 1, c)),
    ("serre_derivations", "a2",
     lambda m, c: verify_serre_derivations(m, 0, 1, DimVector((2, 1)), c)),
    ("pairing_adjunction", "single", lambda m, c: verify_pairing_adjunction(m, 0, 1, _E1, c)),
    ("operator_relations", "a2",
     lambda m, c: verify_operator_relations(m, 0, DimVector((1, 0)), 2, c)),
    ("uminus_serre", "a2", lambda m, c: verify_uminus_serre(m, 0, 1, c)),
)


_MODEL_POOL: dict[tuple, HallModel] = {}


def _pooled_model(text: str, p: int, budget: int = DEFAULT_POINT_BUDGET) -> HallModel:
    """The one model of a (quiver text, p, budget) in this process, shared by
    the probes, the suite's jobs and the polynomiality harness."""
    key = (text, p, budget)
    m = _MODEL_POOL.get(key)
    if m is None:
        m = _MODEL_POOL[key] = HallModel(Quiver.from_text(text), p, budget)
    return m


def pin_convention_table(primes: tuple[int, ...] = (2, 3),
                         budget: int = DEFAULT_POINT_BUDGET) -> dict:
    """Empirically determine which conventions validate each identity family.

    Returns {family: {"pinned": label or None, "validating": {p: [labels]},
    "consistent": bool}}; a family is consistent when some convention
    validates at every prime. Associativity is convention-free (formal).
    """
    table: dict = {"associativity": {"pinned": "formal", "validating": {}, "consistent": True}}
    for family in sorted({f for f, _, _ in _PROBES}):
        probes = [(builtin_quiver(qname).to_text(), check)
                  for f, qname, check in _PROBES if f == family]
        per_prime = {
            p: [c.label for c in CONVENTIONS
                if all(check(_pooled_model(text, p, budget), c).passed for text, check in probes)]
            for p in primes
        }
        common = set.intersection(*(set(v) for v in per_prime.values()))
        pinned = next((c.label for c in CONVENTIONS if c.label in common), None)
        table[family] = {
            "pinned": pinned,
            "validating": per_prime,
            "consistent": pinned is not None,
        }
    return table


# -- suite runner ------------------------------------------------------------------


IDENTITY_FAMILIES = (*DEFAULT_PINS, "polynomiality")


@dataclass
class SweepConfig:
    """What the verification run covers; defaults follow the standard sweep.
    Construction validates the run, so a bad one is refused before any work."""

    quivers: tuple[str | Quiver, ...] = ("a2", "a3", "kronecker", "disconnected", "single")
    primes: tuple[int, ...] = (2, 3)
    maxdim: int = 4
    single_maxdim: int = 5
    budget: int = DEFAULT_POINT_BUDGET
    only: tuple[str, ...] | None = None
    corrupt: bool = False
    skip_slow: bool = False
    jobs: int = 1  # capped at os.cpu_count(); below 1 is refused

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not self.primes:
            raise ValueError("primes must not be empty")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must not repeat, got {self.primes}")
        for p in self.primes:
            check_prime(p)
        if min(self.maxdim, self.single_maxdim) < 1:
            raise ValueError(f"maxdim and single_maxdim must be at least 1, "
                             f"got {self.maxdim} and {self.single_maxdim}")
        unknown = {q for q in self.quivers if not isinstance(q, Quiver)} - set(builtin_names())
        if unknown:
            raise ValueError(f"unknown builtin quivers: {sorted(unknown)}")
        unknown = set(self.only or ()) - set(IDENTITY_FAMILIES)
        if unknown:
            raise ValueError(f"unknown identity ids: {sorted(unknown)}")
        self.jobs = min(self.jobs, os.cpu_count() or 1)


def verify_green_sweep(model: HallModel, nu: DimVector, convention: Convention,
                       corrupt: bool = False) -> Report:
    """All split pairs of one total grading, aggregated."""
    params = _params(model, nu=nu, corrupt=corrupt)

    def reports():
        splits = _splits_of(nu)
        for alpha, beta in splits:
            for alpha_p, beta_p in splits:
                r = verify_green_compatibility(model, alpha, beta, alpha_p, beta_p, convention, corrupt)
                r.params["nu"] = params["nu"]  # a failing report names its sweep
                yield r

    return _sweep("green", params, convention.label, reports())


def _rule_pairs(Q: Quiver, i: int, m: int, maxtotal: int) -> list[tuple[DimVector, DimVector]]:
    Q.unit(i)  # refuses a vertex out of range
    dims = _dims_up_to(Q, maxtotal)  # its gradings of total <= k are _dims_up_to(Q, k), in order
    return [(alpha, beta) for alpha in dims for beta in dims
            if alpha.total + beta.total <= maxtotal and alpha[i] + beta[i] >= m]


def verify_rule_sweep(model: HallModel, i: int, m: int, maxtotal: int,
                      convention: Convention, corrupt: bool = False) -> Report:
    params = _params(model, i=i, m=m, maxtotal=maxtotal, corrupt=corrupt)
    reports = (verify_derivation_product_rule(model, i, m, alpha, beta, convention, corrupt)
               for alpha, beta in _rule_pairs(model.quiver, i, m, maxtotal))
    return _sweep("derivation_product_rule", params, convention.label, reports)


def verify_stratification_sweep(model: HallModel, i: int, m: int, maxtotal: int,
                                convention: Convention) -> Report:
    """All (alpha, beta) with a genuinely multi-stratum range a < b, plus one
    degenerate case for coverage."""
    Q = model.quiver
    params = _params(model, i=i, m=m, maxtotal=maxtotal)

    def reports():
        seen_degenerate = False
        for alpha, beta in _rule_pairs(Q, i, m, maxtotal):
            lo, hi, _ = stratum_data(Q, alpha, beta, i, m)
            if lo > hi:
                continue
            if lo == hi:
                if seen_degenerate or alpha.total + beta.total > 2:
                    continue
                seen_degenerate = True
            yield verify_stratification(model, i, m, alpha, beta, convention)

    return _sweep("stratification", params, convention.label, reports())


def experiment_reports(primes: tuple[int, ...], budget: int = DEFAULT_POINT_BUDGET) -> list[Report]:
    """Observations recorded alongside the suite, never failing it: the
    same-vertex commutation of the two symbolic derivations, and the monomial
    bridge between iterated one-step derivations and the single m-step one.
    Each yields one None per comparison and returns what it observed."""
    Q = builtin_quiver("a2")

    def commuting():
        observed = True
        for w in product(range(Q.n), repeat=3):
            x = uminus.FreeElement.make(Q, {tuple(w): LaurentPoly.one()})
            for i in range(Q.n):
                a = uminus.derivation_right(uminus.derivation_left(x, i), i)
                b = uminus.derivation_left(uminus.derivation_right(x, i), i)
                observed = observed and a == b
                yield None
        return {"observed_commuting": observed}

    def bridge():
        observed = True
        m = 2
        for p in primes:
            model = _pooled_model(Q.to_text(), p, budget)
            for dim in (DimVector((2, 1)), DimVector((2, 2))):
                for M in model.table(dim).ids():
                    f = hall.unit_class(model, M)
                    for i in range(Q.n):
                        single = hall.derive_sub(model, f, i, m)
                        iterated = f
                        for _ in range(m):
                            iterated = hall.derive_sub(model, iterated, i, 1)
                        bridged = single.scale(LaurentPoly.v(-m * (m - 1) // 2))
                        observed = observed and iterated == bridged
                        yield None
        return {"observed": observed}

    return [
        _check("experiment", {"name": "left_right_same_vertex_commute", "words": "length 3"},
               None, commuting(), "info"),
        _check("experiment", {"name": "iterated_vs_single_derivation_monomial_bridge",
                              "relation": "eps_i^m = v^{-m(m-1)/2} * (m-step derivation)"},
               None, bridge(), "info"),
    ]


def _suite_specs(config: SweepConfig) -> list[tuple]:
    """Declarative job list; each entry is (family, check name, quiver text, p,
    the check's keyword arguments). Polynomiality is one job on no quiver,
    its check a function of `polyfit`."""
    texts = [(q if isinstance(q, Quiver) else builtin_quiver(q)).to_text()
             for q in config.quivers]
    corrupt = {"corrupt": config.corrupt}
    specs: list[tuple] = []
    for text in texts:
        Q = Quiver.from_text(text)
        md = config.single_maxdim if Q.n == 1 else config.maxdim
        strat_cap = min(md, 3) if len(Q.arrows) > 1 else md
        for p in config.primes:
            jobs = [("associativity", "verify_associativity", {"maxdim": md, **corrupt})]
            jobs += [("green", "verify_green_sweep", {"nu": nu, **corrupt})
                     for total in range(1, md + 1)
                     for nu in _dims_up_to(Q, total) if nu.total == total]
            for i in range(Q.n):
                for m in (1, 2):
                    jobs.append(("derivation_product_rule", "verify_rule_sweep",
                                 {"i": i, "m": m, "maxtotal": md, **corrupt}))
                    jobs.append(("stratification", "verify_stratification_sweep",
                                 {"i": i, "m": m, "maxtotal": strat_cap}))
                jobs.append(("operator_relations", "verify_operator_relations",
                             {"i": i, "alpha": Q.unit(i), "maxother": 2}))
                jobs += [("pairing_adjunction", "verify_pairing_adjunction",
                          {"i": i, "m": m, "alpha": Q.unit((i + 1) % Q.n)}) for m in (1, 2)]
            if Q.n >= 2:
                jobs.append(("pairing_adjunction", "verify_pairing_general",
                             {"alpha": Q.unit(0), "beta": Q.unit(1)}))
                for i, j in product(range(Q.n), repeat=2):
                    if i == j:
                        continue
                    n_top = 1 - symmetric_form(Q, Q.unit(i), Q.unit(j))
                    jobs += [
                        ("serre_generators", "verify_serre_generators",
                         {"i": i, "j": j, **corrupt}),
                        ("serre_derivations", "verify_serre_derivations",
                         {"i": i, "j": j, "testdim": Q.unit(i).scale(n_top) + Q.unit(j)}),
                        ("uminus_serre", "verify_uminus_serre", {"i": i, "j": j}),
                    ]
            specs += [(family, check, text, p, kw) for family, check, kw in jobs]
    specs.append(("polynomiality", "verify_polynomiality", None, None,
                  {"full": not config.skip_slow, "budget": config.budget}))
    if config.only is not None:
        specs = [s for s in specs if s[0] in config.only]
    return specs


def run_spec(spec: tuple, budget: int, pins: dict) -> list[Report]:
    """Run one job of `_suite_specs` on the pooled model of its space. The
    check is looked up by name when the job runs, so a re-bound check is the
    one that runs."""
    family, check, text, p, kw = spec
    if family == "polynomiality":
        from . import polyfit

        return getattr(polyfit, check)(**kw)
    conv = CONVENTION_BY_LABEL.get(pins.get(family, {}).get("pinned") or DEFAULT_PINS[family])
    if conv is not None:  # None for a formal check
        kw = {**kw, "convention": conv}
    return [globals()[check](_pooled_model(text, p, budget), **kw)]


def _space_units(specs: list[tuple]) -> list[list[tuple]]:
    """The specs cut into runs of one space (quiver text, p), in order: the
    jobs of a space are contiguous in `_suite_specs`, and polynomiality, on
    no space, is a unit of its own."""
    return [list(unit) for _, unit in groupby(specs, key=itemgetter(2, 3))]


def run_unit(unit: list[tuple], budget: int, pins: dict) -> list[Report]:
    """Run one unit of `_space_units`, then release its space's model: the
    unit holds every job of that space. Polynomiality fills the models of
    several spaces, so after it every pooled model is released."""
    reports = [r for spec in unit for r in run_spec(spec, budget, pins)]
    _, _, text, p, _ = unit[-1]
    for model in _MODEL_POOL.values() if text is None else [_pooled_model(text, p, budget)]:
        model.release()
    return reports


def _unit_worker(args):
    return [r.to_json() for r in run_unit(*args)]


def run_suite(config: SweepConfig) -> list[Report]:
    """Execute the configured sweep; the first report carries the convention
    table, experiments are appended as info reports. Every pooled model is
    released when it returns."""
    pins: dict = {}

    def convention_table():
        pins.update(pin_convention_table(config.primes, config.budget))
        inconsistent = [k for k, v in pins.items() if not v.get("consistent", True)]
        yield ({"inconsistent": inconsistent}, pins) if inconsistent else None
        return pins

    reports = [_check("convention_table", {"primes": list(config.primes)}, None,
                      convention_table())]
    units = _space_units(_suite_specs(config))
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # each worker takes whole spaces, so it builds a space's model once and
        # releases it after the space's last job
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            args = [(unit, config.budget, pins) for unit in units]
            for chunk in pool.map(_unit_worker, args):
                reports.extend(Report(**data) for data in chunk)
    else:
        for unit in units:
            reports.extend(run_unit(unit, config.budget, pins))
    if config.only is None:
        reports.extend(experiment_reports(config.primes, config.budget))
    # the probes, polynomiality and the experiments fill models that no unit
    # releases after them
    for model in _MODEL_POOL.values():
        model.release()
    return reports
