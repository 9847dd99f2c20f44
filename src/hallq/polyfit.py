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

from . import identities
from .ffrep import DEFAULT_POINT_BUDGET, IsoClassId, stratum_entries
from .hall import HallModel
from .identities import _COUNT, CONVENTION_BY_LABEL, Report, _check, _green_sides, _green_strata, _pooled_model
from .laurent import LaurentPoly
from .quiver import DimVector, builtin_quiver


# counts are fitted through PRIMES and checked at HOLDOUT; a Lagrange fit
# through three primes has degree at most 2 in q, so the held-out prime, not a
# degree cap, is what can fail a series
PRIMES = (2, 3, 5)
HOLDOUT = 7


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
    table = model.stratified_table(alpha, beta, i, m, "sub")
    out = {}
    for A in model.table(alpha).ids():
        for B in model.table(beta).ids():
            for t, N, c in stratum_entries(table.get((A, B), ())):
                out[f"S|{t}|{_xlabel(model, A)}|{_xlabel(model, B)}|{_xlabel(model, N)}"] = c
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


def _series_comparisons(qname: str, fn, args, budget: int):
    """One comparison per count of the series: its fit through PRIMES
    against the count at HOLDOUT."""
    try:
        per_prime = {p: _collect(qname, fn, args, p, budget) for p in PRIMES}
        held = _collect(qname, fn, args, HOLDOUT, budget)
    except SeriesLabelError as e:
        yield {"reason": str(e)}, {}
    for label in sorted(set(held).union(*per_prime.values())):
        poly = lagrange_fit([(p, per_prime[p].get(label, 0)) for p in PRIMES])
        predicted = poly.eval_rational(HOLDOUT) if poly else Fraction(0)
        actual = held.get(label, 0)
        yield None if predicted == actual else ({
            "label": label, "fit": poly.render("q"),
            "predicted": str(predicted), "actual": actual,
        }, {})
    return {"series": _COUNT}


def verify_count_series(budget: int = DEFAULT_POINT_BUDGET) -> list[Report]:
    """Fit every curated count series at PRIMES and reproduce the held-out
    prime exactly. One report per instance."""
    return [
        _check("polynomiality", {"instance": name, "primes": list(PRIMES), "holdout": HOLDOUT},
               None, _series_comparisons(qname, fn, args, budget))
        for name, qname, fn, args in _SERIES_INSTANCES
    ]


def green_sides_fit(
    qname: str,
    alpha: tuple,
    beta: tuple,
    alpha_p: tuple,
    beta_p: tuple,
    budget: int = DEFAULT_POINT_BUDGET,
) -> Report:
    """Fit both sides of the compatibility identity, as `identities._green_sides`
    builds them at each of PRIMES, and check that the fits agree: each count c
    of v^e is fitted per (side, key, e) as sum_k a_k q^k, which is sum_k a_k
    v^{e-2k} at q = v^{-2}, and the sides are compared as Laurent polynomials
    in v."""
    params = {"instance": f"green-fit-{qname}", "alpha": list(alpha), "beta": list(beta),
              "alpha_p": list(alpha_p), "beta_p": list(beta_p), "primes": list(PRIMES)}
    a, b = DimVector(alpha), DimVector(beta)
    split = (DimVector(alpha_p), DimVector(beta_p))
    Q = builtin_quiver(qname)
    strata = _green_strata(Q, a, b, *split)

    def comparisons():
        counts: dict = {}  # (side, key, e) -> {p: count}
        try:
            for p in PRIMES:
                model = _pooled_model(Q.to_text(), p, budget)
                for A in model.table(a).ids():
                    for B in model.table(b).ids():
                        pair = f"{_xlabel(model, A)};{_xlabel(model, B)}"
                        for side, formal in enumerate(_green_sides(model, A, B, split, strata)):
                            for (N, L), d in formal.items():
                                key = f"{pair}>{_xlabel(model, N)};{_xlabel(model, L)}"
                                for e, c in d.items():
                                    counts.setdefault((side, key, e), {})[p] = c
        except SeriesLabelError as err:
            yield {"reason": str(err)}, {}
        fits: tuple[dict, dict] = ({}, {})  # per side, key -> the fit in v
        for (side, key, e), vals in counts.items():
            # a count absent at some prime is zero there
            fit = lagrange_fit([(p, vals.get(p, 0)) for p in PRIMES])
            shifted = LaurentPoly({e - 2 * k: x for k, x in fit.items()})
            fits[side][key] = fits[side].get(key, LaurentPoly.zero()) + shifted
        zero = LaurentPoly.zero()
        lhs_fit, rhs_fit = fits
        for k in sorted(lhs_fit.keys() | rhs_fit.keys()):
            lf, rf = lhs_fit.get(k, zero), rhs_fit.get(k, zero)
            yield None if lf == rf else ({"key": k, "lhs_fit": lf.render(), "rhs_fit": rf.render()}, {})
        return {"coefficients": _COUNT}

    return _check("polynomiality", params, None, comparisons())


def verify_holdout_identities(budget: int = DEFAULT_POINT_BUDGET) -> list[Report]:
    """Re-run three identity checks at the held-out prime directly."""
    conv = CONVENTION_BY_LABEL["-1/sqrt(q)"]
    m = _pooled_model(builtin_quiver("single").to_text(), HOLDOUT, budget)
    one, two = DimVector((1,)), DimVector((2,))
    out = [
        identities.verify_green_compatibility(m, one, one, one, one, conv),
        identities.verify_derivation_product_rule(m, 0, 2, two, two, conv),
        identities.verify_serre_generators(
            _pooled_model(builtin_quiver("a2").to_text(), HOLDOUT, budget), 0, 1, conv),
    ]
    for r in out:
        r.params["holdout"] = HOLDOUT
    return out


def verify_polynomiality(budget: int = DEFAULT_POINT_BUDGET, full: bool = True) -> list[Report]:
    """Criterion harness: count-series fits, both-sides fits, and held-out
    identity reruns. `full=False` keeps only the count-series subset."""
    reports = verify_count_series(budget)
    if full:
        reports.append(green_sides_fit("single", (1,), (1,), (1,), (1,), budget))
        reports.append(green_sides_fit("a2", (1, 0), (0, 1), (0, 1), (1, 0), budget))
        reports.append(green_sides_fit("a2", (1, 0), (1, 1), (1, 1), (1, 0), budget))
        reports.extend(verify_holdout_identities(budget))
    return reports
