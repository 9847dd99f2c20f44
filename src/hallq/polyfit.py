"""Multi-prime polynomiality: the integer counts behind the identity checks,
collected at several primes, interpolated as polynomials in q, and validated
against a held-out prime.

Classes are matched across primes by dimension vector and hom fingerprint,
which is prime-independent on the representation-finite sweep quivers; any
fingerprint collision disqualifies the instance rather than risking a wrong
match (tame gradings with prime-dependent class counts are excluded by
construction).
"""

from __future__ import annotations

from fractions import Fraction

from . import ffrep, hall, identities
from .ffrep import DEFAULT_POINT_BUDGET, IsoClassId
from .hall import HallModel
from .identities import (
    _COUNT,
    CONVENTION_BY_LABEL,
    Report,
    _add_green_stratum,
    _check,
    _green_strata,
    _pooled_model,
)
from .laurent import LaurentPoly
from .quiver import DimVector, builtin_quiver, euler_form, induction_twist


class SeriesLabelError(RuntimeError):
    """Raised when classes cannot be matched across primes."""


def lagrange_fit(points: list[tuple[int, Fraction | int]]) -> LaurentPoly:
    """Interpolating polynomial (in q) through the points, exact rationals."""
    out = LaurentPoly.zero()
    for k, (xk, yk) in enumerate(points):
        term = LaurentPoly.const(yk)
        for l, (xl, _) in enumerate(points):
            if l == k:
                continue
            term = term * LaurentPoly({1: Fraction(1, xk - xl), 0: Fraction(-xl, xk - xl)})
        out = out + term
    return out


def _xlabel(model: HallModel, cid: IsoClassId) -> str:
    """Prime-independent class key; tiebreak must be trivial to be usable."""
    table = model.table(DimVector(cid.dim))
    fps = [c.id.fingerprint for c in table.classes]
    if len(set(fps)) != len(fps):
        raise SeriesLabelError(f"fingerprint collision at dim {cid.dim}, p={model.p}")
    return ",".join(map(str, cid.dim)) + "#" + ".".join(map(str, cid.fingerprint))


def _histogram_series(model: HallModel, prefix: str, table: dict) -> dict[str, int]:
    """A count table (N, L) -> {M: count} keyed by prime-independent labels."""
    out = {}
    for (N, L), hist in table.items():
        for M, c in hist.items():
            out[f"{prefix}|{_xlabel(model, M)}|{_xlabel(model, N)}|{_xlabel(model, L)}"] = c
    return out


def filtration_series(model: HallModel, alpha: DimVector, beta: DimVector) -> dict[str, int]:
    return _histogram_series(model, "F", model.filtration_table(alpha, beta))


def extension_series(model: HallModel, alpha: DimVector, beta: DimVector) -> dict[str, int]:
    return _histogram_series(model, "e", model.extension_table(alpha, beta))


def derive_series(model: HallModel, alpha: DimVector, i: int, m: int, flavor: str) -> dict[str, int]:
    table = (
        model.derive_sub_table(alpha, i, m)
        if flavor == "sub"
        else model.derive_quot_table(alpha, i, m)
    )
    out = {}
    for (M, N), c in table.items():
        out[f"d{flavor}|{i}|{m}|{_xlabel(model, M)}|{_xlabel(model, N)}"] = c
    return out


def strata_series(model: HallModel, alpha: DimVector, beta: DimVector, i: int, m: int) -> dict[str, int]:
    out = {}
    for A in model.table(alpha).ids():
        for B in model.table(beta).ids():
            counts = ffrep.stratified_pair_counts(model.tables, alpha, beta, A, B, i, m, "sub")
            for t, per in counts.items():
                for N, c in per.items():
                    key = f"S|{t}|{_xlabel(model, A)}|{_xlabel(model, B)}|{_xlabel(model, N)}"
                    out[key] = c
    return out


_SERIES_INSTANCES = [
    ("a2-filt-1001", "a2", filtration_series, ((1, 0), (0, 1))),
    ("a2-filt-1110", "a2", filtration_series, ((1, 1), (1, 0))),
    ("a2-filt-1111", "a2", filtration_series, ((1, 1), (1, 1))),
    ("single-filt-11", "single", filtration_series, ((1,), (1,))),
    ("single-filt-21", "single", filtration_series, ((2,), (1,))),
    ("a3-filt", "a3", filtration_series, ((1, 1, 0), (0, 1, 1))),
    ("a2-ext-1001", "a2", extension_series, ((1, 0), (0, 1))),
    ("a2-ext-1110", "a2", extension_series, ((1, 1), (1, 0))),
    ("a2-dsub-21", "a2", derive_series, ((2, 1), 0, 1, "sub")),
    ("a2-dquot-21", "a2", derive_series, ((2, 1), 1, 1, "quot")),
    ("single-dsub-3", "single", derive_series, ((3,), 0, 2, "sub")),
    ("a2-strata", "a2", strata_series, ((1, 1), (1, 0), 0, 1)),
    ("single-strata", "single", strata_series, ((1,), (1,), 0, 1)),
]


def _collect(qname: str, fn, args, p: int, budget: int) -> dict[str, int]:
    model = _pooled_model(builtin_quiver(qname).to_text(), p, budget)
    return fn(model, *(DimVector(a) if isinstance(a, tuple) else a for a in args))


def _series_comparisons(qname: str, fn, args, primes, holdout: int, budget: int,
                        max_degree: int):
    """One comparison per count of the series: its fit through `primes`
    against the count at the held-out prime."""
    try:
        per_prime = {p: _collect(qname, fn, args, p, budget) for p in primes}
        held = _collect(qname, fn, args, holdout, budget)
    except SeriesLabelError as e:
        yield {"reason": str(e)}, {}
    for label in sorted(set(held).union(*per_prime.values())):
        poly = lagrange_fit([(p, per_prime[p].get(label, 0)) for p in primes])
        if poly and poly.degree > max_degree:
            yield {"label": label, "reason": "fit degree exceeds bound",
                   "fit": poly.render("q")}, {}
        predicted = poly.eval_rational(holdout) if poly else Fraction(0)
        actual = held.get(label, 0)
        yield None if predicted == actual else ({
            "label": label, "fit": poly.render("q"),
            "predicted": str(predicted), "actual": actual,
        }, {})
    return {"series": _COUNT}


def verify_count_series(
    primes: tuple[int, ...] = (2, 3, 5),
    holdout: int = 7,
    budget: int = DEFAULT_POINT_BUDGET,
    max_degree: int = 2,
) -> list[Report]:
    """Fit every curated count series at `primes` and reproduce the held-out
    prime exactly. One report per instance."""
    return [
        _check("polynomiality", {"instance": name, "primes": list(primes), "holdout": holdout},
               None, _series_comparisons(qname, fn, args, primes, holdout, budget, max_degree))
        for name, qname, fn, args in _SERIES_INSTANCES
    ]


def _monomial_count(c: LaurentPoly, expected_exp: int):
    """Counts enter coefficients as count * v^exp; peel the count off."""
    if not c:
        return Fraction(0)
    coeff, e = c.monomial()
    if e != expected_exp:
        raise AssertionError(f"unexpected twist exponent {e}, wanted {expected_exp}")
    return coeff


def green_sides_fit(
    qname: str,
    alpha: tuple,
    beta: tuple,
    alpha_p: tuple,
    beta_p: tuple,
    primes: tuple[int, ...] = (2, 3, 5),
    budget: int = DEFAULT_POINT_BUDGET,
) -> Report:
    """Fit the raw integer counts of both sides of the compatibility identity
    and check the fitted polynomials agree after the exact q-power bookkeeping
    of the twists (v^2 = 1/q direction)."""
    params = {"instance": f"green-fit-{qname}", "alpha": list(alpha), "beta": list(beta),
              "alpha_p": list(alpha_p), "beta_p": list(beta_p), "primes": list(primes)}
    a, b = DimVector(alpha), DimVector(beta)
    ap, bp = DimVector(alpha_p), DimVector(beta_p)
    Q = builtin_quiver(qname)
    e_lhs = induction_twist(Q, a, b) - euler_form(Q, ap, bp)
    strata = _green_strata(Q, a, b, ap, bp)
    # the exponent of every count in a stratum: its Green twist v^{-(a2, b1)}
    # plus the twists of the restrictions and products
    exps = []
    for (a1, a2, b1, b2), green in strata:
        exps.append(
            green
            - euler_form(Q, a1, a2)
            - euler_form(Q, b1, b2)
            + induction_twist(Q, a1, b1)
            + induction_twist(Q, a2, b2)
        )

    def comparisons():
        lhs_vals: dict[str, dict[int, Fraction]] = {}
        rhs_vals: dict[tuple[int, str], dict[int, Fraction]] = {}
        for p in primes:
            model = _pooled_model(Q.to_text(), p, budget)
            for A in model.table(a).ids():
                for B in model.table(b).ids():
                    fa, fb = hall.unit_class(model, A), hall.unit_class(model, B)
                    lhs = hall.geometric_restriction(
                        model, hall.geometric_induction(model, fa, fb), (ap, bp)
                    )
                    pair = f"{_xlabel(model, A)};{_xlabel(model, B)}"
                    for (N, L), c in lhs.terms:
                        key = f"{pair}>{_xlabel(model, N)};{_xlabel(model, L)}"
                        lhs_vals.setdefault(key, {})[p] = _monomial_count(c, e_lhs)
                    products: dict = {}
                    for si, (stratum, exp) in enumerate(strata):
                        acc: dict = {}
                        _add_green_stratum(model, acc, products, fa, fb, stratum, exp)
                        for (N, L), d in acc.items():
                            c = LaurentPoly(d)
                            if not c:
                                continue
                            key = f"{pair}>{_xlabel(model, N)};{_xlabel(model, L)}"
                            rhs_vals.setdefault((si, key), {})[p] = _monomial_count(c, exps[si])

        # a count absent at some prime is zero there
        lhs_fit = {
            k: lagrange_fit([(p, vals.get(p, Fraction(0))) for p in primes])
            for k, vals in lhs_vals.items()
        }
        rhs_fit: dict[str, LaurentPoly] = {}
        for (si, key), vals in rhs_vals.items():
            # q-power from the twist difference; v^2 = 1/q makes it (e_lhs - e_si)/2
            diff = e_lhs - exps[si]
            if diff % 2:
                yield {"reason": "odd twist mismatch between the sides"}, {}
            fit = lagrange_fit([(p, vals.get(p, Fraction(0))) for p in primes])
            shifted = LaurentPoly.v(diff // 2) * fit
            rhs_fit[key] = rhs_fit.get(key, LaurentPoly.zero()) + shifted
        zero = LaurentPoly.zero()
        for k in sorted(set(lhs_fit) | set(rhs_fit)):
            lf, rf = lhs_fit.get(k, zero), rhs_fit.get(k, zero)
            yield None if lf == rf else (
                {"key": k, "lhs_fit": lf.render("q"), "rhs_fit": rf.render("q")}, {})
        return {"coefficients": _COUNT}

    return _check("polynomiality", params, None, comparisons())


def verify_holdout_identities(holdout: int = 7, budget: int = DEFAULT_POINT_BUDGET) -> list[Report]:
    """Re-run three identity checks at the held-out prime directly."""
    conv = CONVENTION_BY_LABEL["-1/sqrt(q)"]
    m = _pooled_model(builtin_quiver("single").to_text(), holdout, budget)
    one, two = DimVector((1,)), DimVector((2,))
    out = [
        identities.verify_green_compatibility(m, one, one, one, one, conv),
        identities.verify_derivation_product_rule(m, 0, 2, two, two, conv),
        identities.verify_serre_generators(
            _pooled_model(builtin_quiver("a2").to_text(), holdout, budget), 0, 1, conv),
    ]
    for r in out:
        r.params["holdout"] = holdout
    return out


def verify_polynomiality(
    primes: tuple[int, ...] = (2, 3, 5),
    holdout: int = 7,
    budget: int = DEFAULT_POINT_BUDGET,
    full: bool = True,
) -> list[Report]:
    """Criterion harness: count-series fits, both-sides fits, and held-out
    identity reruns. `full=False` keeps only the count-series subset."""
    reports = verify_count_series(primes, holdout, budget)
    if full:
        reports.append(green_sides_fit("single", (1,), (1,), (1,), (1,), primes, budget))
        reports.append(green_sides_fit("a2", (1, 0), (0, 1), (0, 1), (1, 0), primes, budget))
        reports.append(green_sides_fit("a2", (1, 0), (1, 1), (1, 1), (1, 0), primes, budget))
        reports.extend(verify_holdout_identities(holdout, budget))
    return reports
