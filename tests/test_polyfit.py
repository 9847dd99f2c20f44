from fractions import Fraction

from hallq import identities
from hallq.hall import HallModel
from hallq.laurent import LaurentPoly
from hallq.polyfit import (
    _xlabel,
    filtration_series,
    green_sides_fit,
    lagrange_fit,
    verify_count_series,
    verify_holdout_identities,
)
from hallq.quiver import DimVector, builtin_quiver


def test_lagrange_fit_recovers_polynomials():
    # q^2 through three points
    assert lagrange_fit([(2, 4), (3, 9), (5, 25)]) == LaurentPoly({2: 1})
    # q + 1, the line count
    assert lagrange_fit([(2, 3), (3, 4), (5, 6)]) == LaurentPoly({1: 1, 0: 1})
    assert lagrange_fit([(2, 0), (3, 0), (5, 0)]) == LaurentPoly.zero()
    f = lagrange_fit([(2, 1), (3, 2)])
    assert f.eval_rational(2) == 1 and f.eval_rational(3) == 2


def test_filtration_series_labels_are_prime_independent():
    labels = {}
    for p in (2, 3, 5):
        m = HallModel(builtin_quiver("a2"), p)
        labels[p] = set(filtration_series(m, DimVector((1, 0)), DimVector((0, 1))))
    assert labels[2] == labels[3] == labels[5]


def test_count_series_holdout():
    reports = verify_count_series()
    assert reports and all(r.passed for r in reports)


def test_green_sides_fit_single_vertex():
    r = green_sides_fit("single", (1,), (1,), (1,), (1,))
    assert r.passed


# A fit through the three primes cannot follow a count series of degree above
# 2 in q, so Green's formula fails on these instances of the fit's region,
# each at this key; every other instance passes.
_FIT_BEYOND_DEGREE_2 = {
    ("single", (1,), (3,), (1,), (3,)): "1#1.1.1;3#9.3.3>1#1.1.1;3#9.3.3",
    ("single", (1,), (3,), (2,), (2,)): "1#1.1.1;3#9.3.3>2#4.2.2;2#4.2.2",
    ("single", (1,), (3,), (3,), (1,)): "1#1.1.1;3#9.3.3>3#9.3.3;1#1.1.1",
    ("single", (2,), (2,), (1,), (3,)): "2#4.2.2;2#4.2.2>1#1.1.1;3#9.3.3",
    ("single", (2,), (2,), (2,), (2,)): "2#4.2.2;2#4.2.2>2#4.2.2;2#4.2.2",
    ("single", (2,), (2,), (3,), (1,)): "2#4.2.2;2#4.2.2>3#9.3.3;1#1.1.1",
    ("single", (3,), (1,), (1,), (3,)): "3#9.3.3;1#1.1.1>1#1.1.1;3#9.3.3",
    ("single", (3,), (1,), (2,), (2,)): "3#9.3.3;1#1.1.1>2#4.2.2;2#4.2.2",
    ("single", (3,), (1,), (3,), (1,)): "3#9.3.3;1#1.1.1>3#9.3.3;1#1.1.1",
    ("a2", (1, 0), (1, 1), (2, 0), (0, 1)):
        "1,0#1.1.0.1.0;1,1#1.1.0.0.1>2,0#4.2.0.2.0;0,1#1.0.1.0.1",
    ("a2", (1, 1), (0, 1), (1, 0), (0, 2)):
        "1,1#1.1.0.0.1;0,1#1.0.1.0.1>1,0#1.1.0.1.0;0,2#4.0.2.0.2",
    ("a3", (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 0, 1)):
        "0,1,0#1.0.1.0.0.1.0;0,1,1#1.0.1.0.0.0.1>0,2,0#4.0.2.0.0.2.0;0,0,1#1.0.0.1.0.0.1",
    ("a3", (1, 0, 0), (1, 1, 0), (2, 0, 0), (0, 1, 0)):
        "1,0,0#1.1.0.0.1.0.0;1,1,0#1.1.0.0.0.1.0>2,0,0#4.2.0.0.2.0.0;0,1,0#1.0.1.0.0.1.0",
    ("a3", (0, 1, 1), (0, 0, 1), (0, 1, 0), (0, 0, 2)):
        "0,1,1#1.0.1.0.0.0.1;0,0,1#1.0.0.1.0.0.1>0,1,0#1.0.1.0.0.1.0;0,0,2#4.0.0.2.0.0.2",
    ("a3", (1, 1, 0), (0, 1, 0), (1, 0, 0), (0, 2, 0)):
        "1,1,0#1.1.0.0.0.1.0;0,1,0#1.0.1.0.0.1.0>1,0,0#1.1.0.0.1.0.0;0,2,0#4.0.2.0.0.2.0",
}


def _fit_region():
    """Every (quiver, alpha, beta, alpha', beta') with alpha and beta nonzero:
    the one-vertex quiver up to total 4, a2 and a3 up to total 3."""
    for qname, total in (("single", 4), ("a2", 3), ("a3", 3)):
        dims = [d for d in identities._dims_up_to(builtin_quiver(qname), total) if d.total]
        for alpha in dims:
            for beta in dims:
                if alpha.total + beta.total <= total:
                    for ap, bp in identities._splits_of(alpha + beta):
                        yield qname, alpha.entries, beta.entries, ap.entries, bp.entries


def test_green_fit_verdicts_over_the_region():
    instances = list(_fit_region())
    assert len(instances) == 353
    for inst in instances:
        r = green_sides_fit(*inst)
        key = _FIT_BEYOND_DEGREE_2.get(inst)
        if key is None:
            assert r.passed and r.details["coefficients"] > 0, inst
        else:
            assert not r.passed and r.witness["key"] == key, inst
            assert set(r.witness) == {"key", "lhs_fit", "rhs_fit"}
    assert set(_FIT_BEYOND_DEGREE_2) <= set(instances)


def test_green_fit_renders_both_fits_in_v():
    # the left count (q^4 - 1)/(q - 1) of u_1 * u_3 at ((1),(3)) has degree 3
    # in q, so its fit through 2, 3, 5 is 11 q^2 - 30 q + 31; q = v^-2
    r = green_sides_fit("single", (1,), (3,), (1,), (3,))
    assert r.witness["lhs_fit"] == "31*v^0 + -30*v^-2 + 11*v^-4"
    assert r.witness["rhs_fit"] == "1*v^0 + 1*v^-2 + 1*v^-4 + 1*v^-6"


def test_green_fit_fails_at_a_count_raised_at_one_prime(monkeypatch):
    # one count of the right side raised by 1 at p = 3 only: the fit through
    # the three primes leaves the left side's at that key
    inst = ("a2", (1, 0), (1, 1), (1, 1), (1, 0))
    assert green_sides_fit(*inst).passed
    original, raised = identities._add_green_stratum, []

    def raising(model, acc, A, B, stratum, exp):
        original(model, acc, A, B, stratum, exp)
        if model.p == 3 and acc and not raised:
            NL = next(iter(acc))
            d = acc[NL]
            e = next(iter(d))
            d[e] += 1
            raised.append((model, A, B, NL))

    monkeypatch.setattr(identities, "_add_green_stratum", raising)
    r = green_sides_fit(*inst)
    model, A, B, (N, L) = raised[0]
    assert not r.passed
    assert r.witness["key"] == f"{_xlabel(model, A)};{_xlabel(model, B)}>{_xlabel(model, N)};{_xlabel(model, L)}"


def test_green_fit_reports_unmatched_classes_as_a_failure():
    # kronecker has p + 2 classes at (1, 1) with colliding fingerprints, so its
    # classes cannot be matched across primes
    r = green_sides_fit("kronecker", (1, 1), (1, 1), (1, 1), (1, 1))
    assert not r.passed
    assert r.witness == {"reason": "fingerprint collision at dim (1, 1), p=2"} and r.details == {}


def test_holdout_identities_run_at_seven():
    reports = verify_holdout_identities()
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    assert all(r.params["holdout"] == 7 for r in reports)
