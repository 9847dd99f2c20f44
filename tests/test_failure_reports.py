"""Failure reports of the identity checks, pinned field by field.

The families without a `corrupt` flag are made to fail by patching one Hall
operator (or by checking at a convention that does not validate), and each
test asserts the failing report's witness and details exactly. The last test
pins the whole report stream of a small sweep, with and without the corrupt
fixture, by a digest of its JSON with `elapsed` removed.
"""

import hashlib
import itertools
import json

import pytest

from hallq import hall
from hallq.hall import HallElement, HallModel, TensorElement
from hallq.identities import (
    CONVENTION_BY_LABEL,
    SweepConfig,
    run_suite,
    verify_operator_relations,
    verify_pairing_adjunction,
    verify_pairing_general,
    verify_serre_derivations,
    verify_stratification,
    verify_uminus_serre,
)
from hallq.laurent import LaurentPoly
from hallq.quiver import DimVector, builtin_quiver

GEOM = CONVENTION_BY_LABEL["-1/sqrt(q)"]
RINGEL = CONVENTION_BY_LABEL["+sqrt(q)"]


def dv(*e):
    return DimVector(tuple(e))


@pytest.fixture(scope="module")
def a2():
    return HallModel(builtin_quiver("a2"), 2)


def scaled_by(original, exponent):
    """`original` with its output multiplied by v^exponent(input element)."""

    def patched(model, f, *args):
        return original(model, f, *args).scale(LaurentPoly.v(exponent(f)))

    return patched


def by_total(f):
    return f.dim.total if f.dim is not None else 0


def by_first_entry(f):
    return f.dim.entries[0] if f.dim is not None else 0


def assert_fail(r, identity, witness, details):
    assert r.status == "fail"
    assert r.identity == identity
    assert r.witness == witness
    assert r.details == details


def test_stratification_fails_when_strata_do_not_telescope(a2, monkeypatch):
    monkeypatch.setattr(hall, "derive_sub", scaled_by(hall.derive_sub, lambda f: 1))
    r = verify_stratification(a2, 0, 1, dv(1, 1), dv(1, 0), GEOM)
    assert_fail(r, "stratification", {
        "reason": "strata do not telescope to the total",
        "pair": ["1,1:0", "1,0:0"],
        "sum": {"dim": [1, 1], "terms": [{"class": "1,1:0", "laurent": "2*v^1"},
                                         {"class": "1,1:1", "laurent": "1*v^1"}]},
        "total": {"dim": [1, 1], "terms": [{"class": "1,1:0", "laurent": "2*v^2"},
                                           {"class": "1,1:1", "laurent": "1*v^2"}]},
    }, {"checked": 1})


def test_stratification_fails_on_a_stratum_out_of_range(a2, monkeypatch):
    original = hall.stratified_derive_sub
    monkeypatch.setattr(hall, "stratified_derive_sub",
                        lambda *args: {99: None, **original(*args)})
    r = verify_stratification(a2, 0, 1, dv(1, 1), dv(1, 0), GEOM)
    assert_fail(r, "stratification",
                {"reason": "stratum index out of range", "got": [0, 1, 99]}, {})


def test_stratification_fails_per_stratum_at_the_wrong_convention():
    r = verify_stratification(HallModel(builtin_quiver("single"), 2), 0, 1, dv(1), dv(1),
                              RINGEL)
    assert_fail(r, "stratification", {
        "side": "sub", "t": 0, "pair": ["1:0", "1:0"],
        "stratum": {"1:0": "2 + 0*sqrt(2)"}, "expected": {"1:0": "1/2 + 0*sqrt(2)"},
    }, {"checked": 2})


@pytest.mark.parametrize("name, flavor, checked, even", [
    ("derive_sub", "sub", 1, "0 + -1/4*sqrt(2)"),
    ("derive_quot", "quot", 3, "0 + -1/8*sqrt(2)"),
])
def test_serre_derivations_fail_with_a_grading_dependent_twist(
        a2, monkeypatch, name, flavor, checked, even):
    monkeypatch.setattr(hall, name, scaled_by(getattr(hall, name), by_first_entry))
    r = verify_serre_derivations(a2, 0, 1, dv(2, 1), GEOM)
    assert_fail(r, "serre_derivations", {
        "flavor": flavor, "class": "2,1:0",
        "odd": {"0,0:0": "1/4 + 0*sqrt(2)"}, "even": {"0,0:0": even},
    }, {"checked": checked})


def test_pairing_adjunction_fails_when_the_zero_sets_differ(a2, monkeypatch):
    monkeypatch.setattr(hall, "derive_sub",
                        lambda model, f, i, m: HallElement.zero(model.quiver, model.p))
    r = verify_pairing_adjunction(a2, 0, 1, dv(0, 1), GEOM)
    assert_fail(r, "pairing_adjunction", {
        "flavor": "sub", "pair": ["0,1:0", "1,1:0"],
        "lhs": "0 + -1/2*sqrt(2)", "rhs": "0 + 0*sqrt(2)", "bridge": None,
    }, {"reason": "lhs is not the bridge times rhs"})


def test_pairing_adjunction_fails_when_the_bridge_is_not_a_q_power(a2, monkeypatch):
    original = hall.derive_sub
    monkeypatch.setattr(hall, "derive_sub", lambda *args: original(*args).scale(
        LaurentPoly.one() + LaurentPoly.v(1)))
    r = verify_pairing_adjunction(a2, 0, 1, dv(0, 1), GEOM)
    assert_fail(r, "pairing_adjunction",
                {"flavor": "sub", "pair": ["0,1:0", "1,1:0"], "ratio": "1 + 1/2*sqrt(2)"},
                {"reason": "bridge is not a signed q-power"})


def test_pairing_adjunction_fails_when_the_bridge_varies(a2, monkeypatch):
    original, calls = hall.derive_sub, itertools.count()
    monkeypatch.setattr(hall, "derive_sub", lambda *args: original(*args).scale(
        LaurentPoly.v(2 * next(calls))))
    r = verify_pairing_adjunction(a2, 0, 1, dv(0, 1), GEOM)
    assert_fail(r, "pairing_adjunction", {
        "flavor": "sub", "pair": ["0,1:0", "1,1:1"],
        "lhs": "0 + -1/2*sqrt(2)", "rhs": "0 + -1/2*sqrt(2)", "bridge": "1/2 + 0*sqrt(2)",
    }, {"reason": "lhs is not the bridge times rhs"})


def test_pairing_general_fails_when_the_zero_sets_differ(a2, monkeypatch):
    monkeypatch.setattr(hall, "geometric_restriction",
                        lambda model, f, split: TensorElement.zero(model.quiver, model.p))
    r = verify_pairing_general(a2, dv(1, 0), dv(0, 1), GEOM)
    assert_fail(r, "pairing_adjunction", {
        "triple": ["1,0:0", "0,1:0", "1,1:0"], "lhs": "0 + 0*sqrt(2)", "rhs": "0 + -1/2*sqrt(2)",
        "bridge": None,
    }, {"reason": "lhs is not the bridge times rhs"})


@pytest.mark.parametrize("scale, triple, compared, reason", [
    (lambda n: LaurentPoly.one() + LaurentPoly.v(1), ["1,0:0", "0,1:0", "1,1:0"],
     {"ratio": "1 + -1/2*sqrt(2)"}, "bridge is not a signed q-power"),
    (lambda n: LaurentPoly.v(2 * n), ["1,0:0", "0,1:0", "1,1:1"],
     {"lhs": "0 + -1/4*sqrt(2)", "rhs": "0 + -1/2*sqrt(2)", "bridge": "1 + 0*sqrt(2)"},
     "lhs is not the bridge times rhs"),
])
def test_pairing_general_fails_when_the_bridge_is_not_constant(a2, monkeypatch, scale, triple,
                                                               compared, reason):
    original, calls = hall.geometric_restriction, itertools.count()
    monkeypatch.setattr(hall, "geometric_restriction",
                        lambda *args: original(*args).scale(scale(next(calls))))
    r = verify_pairing_general(a2, dv(1, 0), dv(0, 1), GEOM)
    assert_fail(r, "pairing_adjunction", {"triple": triple, **compared}, {"reason": reason})


def test_operator_relations_fail_on_item_1(a2, monkeypatch):
    monkeypatch.setattr(hall, "geometric_induction",
                        scaled_by(hall.geometric_induction, by_total))
    r = verify_operator_relations(a2, 0, dv(1, 0), 2, GEOM)
    assert_fail(r, "operator_relations", {"item": 1}, {})


@pytest.mark.parametrize("name, item", [("derive_sub", 3), ("derive_quot", 4)])
def test_operator_relations_fail_on_items_3_and_4(a2, monkeypatch, name, item):
    monkeypatch.setattr(hall, name, scaled_by(getattr(hall, name), by_total))
    r = verify_operator_relations(a2, 0, dv(1, 0), 2, GEOM)
    assert_fail(r, "operator_relations", {
        "item": item, "pair": ["1,0:0", "0,1:0"],
        "lhs": {"0,1:0": "1/2 + 0*sqrt(2)"}, "rhs": {"0,1:0": "0 + -1/2*sqrt(2)"},
    }, {})


def test_uminus_serre_fails_at_the_wrong_convention(a2):
    r = verify_uminus_serre(a2, 0, 1, GEOM)
    assert_fail(r, "uminus_serre", {"value": {"2,1:0": "0 + -3/2*sqrt(2)"}}, {})


# sha256 of the sweep's reports, one `json.dumps(sort_keys=True)` line each
# with `elapsed` removed
STREAM_DIGESTS = {
    False: "1507221523b345b960d3df5f35f7a30a8aa8e43384054bf49985a0b23726a3fc",
    True: "d744247688a94c049e0b1cd7d97b53fddadacbbe7578fe6f41077b2b5a477463",
}


@pytest.mark.parametrize("corrupt", [False, True])
def test_small_sweep_report_stream_is_pinned(corrupt):
    reports = run_suite(SweepConfig(quivers=("a2",), primes=(2,), maxdim=2, skip_slow=True,
                                    corrupt=corrupt))
    digest = hashlib.sha256()
    for r in reports:
        data = r.to_json()
        data.pop("elapsed")
        digest.update((json.dumps(data, sort_keys=True) + "\n").encode())
    assert len(reports) == 43
    assert sum(r.status == "fail" for r in reports) == (12 if corrupt else 0)
    assert digest.hexdigest() == STREAM_DIGESTS[corrupt]
