from fractions import Fraction

from hallq.hall import HallModel
from hallq.laurent import LaurentPoly
from hallq.polyfit import (
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


def test_holdout_identities_run_at_seven():
    reports = verify_holdout_identities()
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    assert all(r.params["holdout"] == 7 for r in reports)
