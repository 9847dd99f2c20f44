import json
import os
from collections import Counter
from fractions import Fraction

import pytest

from hallq import hall, identities, polyfit
from hallq.ffrep import DEFAULT_POINT_BUDGET, BudgetExceededError
from hallq.hall import HallModel, unit_class
from hallq.identities import (
    CONVENTION_BY_LABEL,
    CONVENTIONS,
    SweepConfig,
    _as_signed_q_power,
    pin_convention_table,
    run_suite,
    verify_associativity,
    verify_derivation_product_rule,
    verify_green_compatibility,
    verify_green_sweep,
    verify_operator_relations,
    verify_pairing_adjunction,
    verify_pairing_general,
    verify_rule_sweep,
    verify_serre_derivations,
    verify_serre_generators,
    verify_stratification,
    verify_stratification_sweep,
    verify_uminus_serre,
)
from hallq.laurent import LaurentPoly, SqrtQScalar
from hallq.quiver import DimVector, builtin_quiver

GEOM = CONVENTION_BY_LABEL["-1/sqrt(q)"]
RINGEL = CONVENTION_BY_LABEL["+sqrt(q)"]

_models = {}


def model(name, p):
    if (name, p) not in _models:
        _models[(name, p)] = HallModel(builtin_quiver(name), p)
    return _models[(name, p)]


def dv(*e):
    return DimVector(tuple(e))


def test_green_needs_inverse_sqrt_direction():
    m = model("single", 3)
    one = dv(1)
    assert verify_green_compatibility(m, one, one, one, one, GEOM).passed
    r = verify_green_compatibility(m, one, one, one, one, RINGEL)
    assert not r.passed and r.witness is not None


def test_green_sweep_kronecker():
    m = model("kronecker", 2)
    r = verify_green_sweep(m, dv(2, 1), GEOM)
    assert r.passed and r.details["checked"] > 0


def test_green_negative_control():
    m = model("a2", 2)
    r = verify_green_compatibility(m, dv(1, 0), dv(0, 1), dv(0, 1), dv(1, 0), GEOM, corrupt=True)
    assert r.status == "fail"
    assert "lhs" in r.witness and "rhs" in r.witness


def test_compare_specializes_the_difference_of_formal_sides():
    # v^2 and 1/2 differ formally but agree at v = -1/sqrt(2)
    assert identities._compare({"k": {2: 1}}, {"k": {0: Fraction(1, 2)}}, 2, GEOM) is None
    assert identities._compare({"k": {2: 1}}, {"k": {0: Fraction(1, 2)}}, 2, RINGEL) is not None
    # a key of one side only is compared against zero
    assert identities._compare({"k": {0: 1, 2: -2}}, {}, 2, GEOM) is None
    assert identities._compare({}, {"k": {0: -1, 2: 2}}, 2, GEOM) is None
    assert identities._compare({"k": {0: 1}}, {}, 2, GEOM) is not None
    assert identities._compare({}, {"k": {1: 1}}, 2, GEOM) is not None


def test_a_failing_comparison_returns_both_sides_specialized_without_zeros():
    left = {"a": {0: 1}, "b": {0: -1, 2: 2}, "c": {}}
    right = {"a": {0: 2}, "d": {4: 4, 0: -1}}
    assert identities._compare(left, right, 2, GEOM) == (
        {"a": SqrtQScalar.of(1, 0, 2)}, {"a": SqrtQScalar.of(2, 0, 2)})


def test_green_specializes_once_per_pair_and_key(monkeypatch):
    m = HallModel(builtin_quiver("a2"), 2)
    alpha, beta, alpha_p, beta_p = dv(1, 1), dv(1, 1), dv(1, 1), dv(1, 1)
    keys = 0  # the union of the two sides' keys, summed over the class pairs
    strata = identities._green_strata(m.quiver, alpha, beta, alpha_p, beta_p)
    for A in m.table(alpha).ids():
        for B in m.table(beta).ids():
            left = hall.geometric_restriction(m, m.unit_product(A, B), (alpha_p, beta_p))
            right = {}
            for stratum, exp in strata:
                identities._add_green_stratum(m, right, A, B, stratum, exp)
            keys += len(left.coeffs().keys() | right.keys())
    calls = Counter()
    original = identities.evaluate_at_sqrt_q

    def counted(*args):
        calls["evaluate"] += 1
        return original(*args)

    monkeypatch.setattr(identities, "evaluate_at_sqrt_q", counted)
    assert verify_green_compatibility(m, alpha, beta, alpha_p, beta_p, GEOM).passed
    assert keys > 4 and 0 < calls["evaluate"] <= keys


_TWO_SIDED = {  # family -> (quiver, a passing check on a fresh model)
    "serre_generators": ("kronecker", lambda m: verify_serre_generators(m, 0, 1, GEOM)),
    "serre_derivations": ("a2", lambda m: verify_serre_derivations(m, 0, 1, dv(2, 1), GEOM)),
    "operator_relations": ("a2", lambda m: verify_operator_relations(m, 0, dv(1, 0), 2, GEOM)),
    "uminus_serre": ("a2", lambda m: verify_uminus_serre(m, 0, 1, RINGEL)),
}


@pytest.mark.parametrize("family", sorted(_TWO_SIDED))
def test_two_sided_checks_specialize_once_per_compared_key(monkeypatch, family):
    # every specialization of a passing check is one of `_compare`'s, one per
    # key of the two formal sides it is handed
    quiver, check = _TWO_SIDED[family]
    m = HallModel(builtin_quiver(quiver), 2)
    calls = Counter()
    evaluate, compare = identities.evaluate_at_sqrt_q, identities._compare

    def counted_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    def counted_compare(left, right, *args):
        calls["keys"] += len(left.keys() | right.keys())
        return compare(left, right, *args)

    monkeypatch.setattr(identities, "evaluate_at_sqrt_q", counted_evaluate)
    monkeypatch.setattr(identities, "_compare", counted_compare)
    r = check(m)
    assert r.passed and r.identity == family
    assert 0 < calls["evaluate"] <= calls["keys"]


def _green_strata_by_filter(Q, alpha, beta, alpha_p, beta_p):
    """Every split (a1, a2) of alpha, kept when a1 <= alpha' and alpha' - a1 <= beta."""
    from hallq.quiver import symmetric_form

    out = []
    for a1, a2 in identities._splits_of(alpha):
        if a1 <= alpha_p and (b1 := alpha_p - a1) <= beta:
            out.append(((a1, a2, b1, beta - b1), -symmetric_form(Q, a2, b1)))
    return out


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_green_strata_are_the_kept_splits_in_order(name):
    Q = builtin_quiver(name)
    for alpha in identities._dims_up_to(Q, 3):
        for beta in identities._dims_up_to(Q, 3):
            nu = alpha + beta
            for alpha_p, beta_p in identities._splits_of(nu):
                got = identities._green_strata(Q, alpha, beta, alpha_p, beta_p)
                assert got == _green_strata_by_filter(Q, alpha, beta, alpha_p, beta_p)


def test_associativity_formal_and_control():
    for name in ("a2", "kronecker"):
        assert verify_associativity(model(name, 2), 3).passed
    r = verify_associativity(model("a2", 2), 3, corrupt=True)
    assert r.status == "fail" and r.witness["triple"]


def _unit(model, f):
    """M when f is the model's unit class u_M itself, else None: a product
    such as u_M * u_0 equals u_M but is a value of its pair, not of M."""
    if len(f.terms) == 1 and f is unit_class(model, f.terms[0][0]):
        return f.terms[0][0]
    return None


def _count_unit_calls(monkeypatch):
    """Re-bind the hall operators to count their calls on unit classes:
    restrictions per (class, split), products per (pair, operator) and
    derivations per (class, i, t, side)."""
    calls = Counter()

    def restriction_key(model, f, split):
        M = _unit(model, f)
        return M and (M, *(d.entries for d in split))

    def product_key(model, f, g):
        M, L = _unit(model, f), _unit(model, g)
        return M and L and (M, L)

    def derive_key(model, f, i, t):
        M = _unit(model, f)
        return M and (M, i, t)

    def wrap(name, key_of):
        original = getattr(hall, name)

        def counted(model, *args):
            key = key_of(model, *args)
            if key:
                calls[(name, *key)] += 1
            return original(model, *args)

        monkeypatch.setattr(hall, name, counted)

    wrap("geometric_restriction", restriction_key)
    for name in ("geometric_induction", "ringel_product"):
        wrap(name, product_key)
    for name in ("derive_sub", "derive_quot"):
        wrap(name, derive_key)
    return calls


def test_green_sweep_restricts_and_multiplies_each_unit_class_once(monkeypatch):
    calls = _count_unit_calls(monkeypatch)
    assert verify_green_sweep(HallModel(builtin_quiver("a2"), 2), dv(2, 2), GEOM).passed
    per_op = Counter(key[0] for key in calls)
    assert per_op["geometric_restriction"] > 20 and per_op["geometric_induction"] > 20
    assert max(calls.values()) == 1


def test_rule_and_stratification_sweeps_derive_each_unit_class_once(monkeypatch):
    calls = _count_unit_calls(monkeypatch)
    m = HallModel(builtin_quiver("a2"), 2)
    assert verify_rule_sweep(m, 0, 1, 3, GEOM).passed
    per_op = Counter(key[0] for key in calls)
    assert per_op["derive_sub"] > 5 and per_op["derive_quot"] > 5 and per_op["geometric_induction"] > 5
    assert max(calls.values()) == 1
    calls.clear()
    assert verify_stratification_sweep(m, 0, 2, 3, GEOM).passed
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", ["a2", "kronecker"])
def test_rule_and_stratification_apply_operators_to_unit_classes_only(monkeypatch, name):
    # both sides are read from operator values on the model's own unit classes:
    # no product or derivation of a product, and no product of derived elements
    m = HallModel(builtin_quiver(name), 2)
    calls, others = Counter(), []

    def wrap(op):
        original = getattr(hall, op)

        def recording(model, *args):
            calls[op] += 1
            others.extend(f for f in args if isinstance(f, hall.HallElement) and _unit(model, f) is None)
            return original(model, *args)

        monkeypatch.setattr(hall, op, recording)

    for op in ("geometric_induction", "derive_sub", "derive_quot"):
        wrap(op)
    for i in range(m.quiver.n):
        for mm in (1, 2):
            assert verify_rule_sweep(m, i, mm, 3, GEOM).passed
            assert verify_stratification_sweep(m, i, mm, 3, GEOM).passed
    assert min(calls.values()) > 5 and len(calls) == 3
    assert others == []


def _exact(side):
    """A formal side key -> {exponent: coefficient} as key -> LaurentPoly, zeros dropped."""
    return {k: c for k, d in side.items() if (c := LaurentPoly(d))}


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_rule_sides_from_unit_values_equal_the_operators_on_products(name):
    # the left side sum_M c_M derive(u_M) is derive(u_A * u_B), and each
    # right-hand term's expansion over unit products is the product of the
    # two derived elements
    m = HallModel(builtin_quiver(name), 2)
    terms = 0
    for alpha in identities._dims_up_to(m.quiver, 3):
        for beta in identities._dims_up_to(m.quiver, 3 - alpha.total):
            for i in range(m.quiver.n):
                for mm in (1, 2):
                    for side, A, B, total, rule in identities._rule_cases(m, i, mm, alpha, beta):
                        derived = hall.derivation(side)(m, m.unit_product(A, B), i, mm)
                        assert _exact(total) == derived.coeffs()
                        for t, scalar, a, b in rule:
                            assert a == hall.derivation(side)(m, unit_class(m, A), i, t)
                            assert b == hall.derivation(side)(m, unit_class(m, B), i, mm - t)
                            want = identities._accumulate({}, hall.geometric_induction(m, a, b), scalar)
                            assert _exact(identities._add_rule_term(m, {}, scalar, a, b)) == _exact(want)
                            terms += 1
    assert terms > 100


def test_a_passing_associativity_run_applies_no_hall_operator(monkeypatch):
    # the check compares integer vectors of the filtration tables; only a
    # failing triple multiplies, to render its witness: u_A * u_B, that times
    # u_C, u_B * u_C and u_A times that
    calls = Counter()

    def count(name):
        original = getattr(hall, name)

        def counted(model, *args):
            calls[name] += 1
            return original(model, *args)

        monkeypatch.setattr(hall, name, counted)

    for name in ("geometric_induction", "ringel_product"):
        count(name)
    assert verify_associativity(HallModel(builtin_quiver("a2"), 2), 3).passed
    assert not calls
    r = verify_associativity(HallModel(builtin_quiver("a2"), 2), 3, corrupt=True)
    assert not r.passed and r.details == {"checked": 1}
    assert 0 < sum(calls.values()) <= 4


def _operator_associativity(m, maxdim, corrupt=False):
    """The comparison of every (twist, triple) in the check's order by the
    operators: None where (u_A * u_B) * u_C == u_A * (u_B * u_C) as Hall
    elements (times v on the left when `corrupt`), else the witness."""
    out = []
    for ringel, twist in ((False, "geometric"), (True, "ringel")):
        prod = hall.ringel_product if ringel else hall.geometric_induction
        for da in identities._dims_up_to(m.quiver, maxdim):
            for db in identities._dims_up_to(m.quiver, maxdim - da.total):
                for dc in identities._dims_up_to(m.quiver, maxdim - da.total - db.total):
                    for A in m.table(da).ids():
                        for B in m.table(db).ids():
                            for C in m.table(dc).ids():
                                u_a, u_b, u_c = (unit_class(m, X) for X in (A, B, C))
                                lhs = prod(m, prod(m, u_a, u_b), u_c)
                                if corrupt:
                                    lhs = lhs.scale(LaurentPoly.v(1))
                                rhs = prod(m, u_a, prod(m, u_b, u_c))
                                out.append(None if lhs == rhs else {
                                    "twist": twist, "triple": identities._labels(m, A, B, C),
                                    "lhs": hall.element_to_json(m, lhs),
                                    "rhs": hall.element_to_json(m, rhs)})
    return out


def _sink_and_mixed():
    from hallq.quiver import Quiver

    return (Quiver(("1", "2", "3"), ((0, 1), (2, 1))),
            Quiver(("a", "b", "c"), ((0, 1), (0, 1), (1, 2))))


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker", "sink", "mixed"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_associativity_integer_rule_agrees_with_the_operators(monkeypatch, name, corrupt):
    # every comparison the check would make, the generator run to its end
    # instead of stopping at a failure, against the products of the operators
    Q = dict(zip(("sink", "mixed"), _sink_and_mixed())).get(name) or builtin_quiver(name)
    monkeypatch.setattr(identities, "_check", lambda *args: list(args[3]))
    got = [c and c[0] for c in verify_associativity(HallModel(Q, 2), 3, corrupt)]
    want = _operator_associativity(HallModel(Q, 2), 3, corrupt)
    assert len(got) == len(want) > 100
    assert got == want
    assert all(w is not None for w in want) if corrupt else not any(want)


def test_associativity_fails_on_a_corrupted_filtration_count():
    # one count in one table of the model's memo raised by 1: a fresh model
    # fails, and its witness triple's gradings read that table
    m = HallModel(builtin_quiver("a2"), 2)
    a, b = dv(1, 0), dv(0, 1)
    table = m.filtration_table(a, b)
    assert table is m.memo[("filt", a.entries, b.entries)]
    hist = next(iter(table.values()))
    M = next(iter(hist))
    hist[M] += 1
    r = verify_associativity(m, 3)
    assert not r.passed
    da, db, dc = (DimVector.from_csv(label.partition(":")[0], 2) for label in r.witness["triple"])
    read = {(da, db), (da + db, dc), (db, dc), (da, db + dc)}
    assert (a, b) in read
    assert verify_associativity(HallModel(builtin_quiver("a2"), 2), 3).passed


def _inside_sweep(monkeypatch, name, sweep):
    """The result of `sweep()` and the reports that the check `name` of
    identities gave it, recorded by re-binding the check for the sweep's run."""
    reports = []
    original = getattr(identities, name)

    def recording(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(identities, name, recording)
    result = sweep()
    monkeypatch.undo()
    return result, reports


def _same_report(inside, alone):
    a, b = inside.to_json(), alone.to_json()
    for d in (a, b):
        d.pop("elapsed")
        d["params"].pop("nu", None)  # the green sweep names itself in its checks
    assert a == b


@pytest.mark.parametrize("corrupt", [False, True])
def test_checks_alone_report_as_inside_their_sweep(monkeypatch, corrupt):
    m = HallModel(builtin_quiver("a2"), 2)
    swept, inside = _inside_sweep(monkeypatch, "verify_green_compatibility",
                                  lambda: verify_green_sweep(m, dv(2, 1), GEOM, corrupt))
    assert swept.passed != corrupt and len(inside) == (1 if corrupt else 36)
    for r in inside:
        kw = {k: dv(*r.params[k]) for k in ("alpha", "beta", "alpha_p", "beta_p")}
        _same_report(r, verify_green_compatibility(m, **kw, convention=GEOM, corrupt=corrupt))
    swept, inside = _inside_sweep(monkeypatch, "verify_derivation_product_rule",
                                  lambda: verify_rule_sweep(m, 1, 2, 3, GEOM, corrupt))
    assert swept.passed != corrupt and inside
    for r in inside:
        alone = verify_derivation_product_rule(m, 1, 2, dv(*r.params["alpha"]),
                                               dv(*r.params["beta"]), GEOM, corrupt)
        _same_report(r, alone)
    if not corrupt:
        swept, inside = _inside_sweep(monkeypatch, "verify_stratification",
                                      lambda: verify_stratification_sweep(m, 0, 1, 3, GEOM))
        assert swept.passed and inside
        for r in inside:
            alone = verify_stratification(m, 0, 1, dv(*r.params["alpha"]),
                                          dv(*r.params["beta"]), GEOM)
            _same_report(r, alone)


def test_corrupt_checks_fail_with_and_without_a_sweep():
    m = model("a2", 2)
    assert verify_green_sweep(m, dv(1, 1), GEOM, corrupt=True).status == "fail"
    assert verify_rule_sweep(m, 0, 1, 2, GEOM, corrupt=True).status == "fail"
    r = verify_derivation_product_rule(m, 0, 1, dv(1, 0), dv(0, 1), GEOM, corrupt=True)
    assert r.status == "fail" and r.witness["pair"]
    assert verify_associativity(m, 2, corrupt=True).status == "fail"


def test_derivation_product_rule_examples():
    assert verify_derivation_product_rule(model("a2", 2), 0, 1, dv(1, 0), dv(0, 1), GEOM).passed
    for p in (2, 3):
        assert verify_derivation_product_rule(model("single", p), 0, 2, dv(1), dv(1), GEOM).passed
    assert verify_derivation_product_rule(model("kronecker", 2), 1, 1, dv(1, 1), dv(1, 0), GEOM).passed


def test_derivation_product_rule_binomial_case():
    # the [2] = v + 1/v factor must reconcile with the line count p + 1
    for p in (2, 3):
        m = model("single", p)
        s = m.simple_class(0)
        lhs = hall.derive_sub(m, hall.geometric_induction(m, unit_class(m, s), unit_class(m, s)), 0, 2)
        [(_, c)] = lhs.terms
        assert c == LaurentPoly.v(1, p + 1)
        from hallq.laurent import quantum_binomial

        assert GEOM.poly(c, p) == GEOM.poly(quantum_binomial(2, 1), p)


def test_stratification_cases():
    assert verify_stratification(model("single", 2), 0, 2, dv(2), dv(2), GEOM).passed
    assert verify_stratification(model("a2", 2), 0, 1, dv(1, 1), dv(1, 0), GEOM).passed
    assert verify_stratification(model("a2", 3), 0, 1, dv(1, 1), dv(1, 0), GEOM).passed
    assert verify_stratification(model("kronecker", 2), 0, 1, dv(1, 1), dv(1, 1), GEOM).passed


def test_stratification_wrong_convention_fails():
    r = verify_stratification(model("single", 2), 0, 1, dv(1), dv(1), RINGEL)
    assert not r.passed


def test_serre_generators_all_quivers():
    for name in ("a2", "kronecker", "disconnected"):
        for p in (2, 3):
            for i, j in ((0, 1), (1, 0)):
                assert verify_serre_generators(model(name, p), i, j, GEOM).passed
    r = verify_serre_generators(model("a2", 2), 0, 1, GEOM, corrupt=True)
    assert r.status == "fail"


def test_serre_derivations():
    assert verify_serre_derivations(model("a2", 2), 0, 1, dv(2, 1), GEOM).passed
    assert verify_serre_derivations(model("a2", 2), 1, 0, dv(1, 2), GEOM).passed
    assert verify_serre_derivations(model("kronecker", 2), 0, 1, dv(3, 1), GEOM).passed
    with pytest.raises(ValueError):
        verify_serre_derivations(model("a2", 2), 0, 1, dv(1, 1), GEOM)


def test_pairing_adjunction_records_constant_bridge():
    for p in (2, 3):
        r = verify_pairing_adjunction(model("a2", p), 0, 1, dv(0, 1), GEOM)
        assert r.passed
        assert r.details["bridge_sub"] == r.details["bridge_quot"]
    # single vertex, m = 2 exercises the two-factor product branch
    r = verify_pairing_adjunction(model("single", 2), 0, 2, dv(1), GEOM)
    assert r.passed
    # bridge exponent q^{-2 m alpha_i - m^2} in sqrt-q units
    assert r.details["bridge_sub"]["sqrtq_exponent"] == 2 * (-2 * 2 * 1 - 4)


def test_pairing_general_adjunction():
    for name in ("a2", "kronecker"):
        r = verify_pairing_general(model(name, 2), dv(1, 0), dv(0, 1), GEOM)
        assert r.passed
        assert "bridge" in r.details


def test_operator_relations():
    for name, p in (("a2", 2), ("a2", 3), ("kronecker", 2)):
        m = model(name, p)
        for i in range(m.quiver.n):
            r = verify_operator_relations(m, i, m.quiver.unit(i), 2, GEOM)
            assert r.passed


def test_uminus_serre_pins_sqrt():
    m = model("a2", 2)
    assert verify_uminus_serre(m, 0, 1, RINGEL).passed
    assert not verify_uminus_serre(m, 0, 1, GEOM).passed


def test_as_signed_q_power():
    from fractions import Fraction

    assert _as_signed_q_power(SqrtQScalar.of(9, 0, 3)) == (1, 4)
    assert _as_signed_q_power(SqrtQScalar.of(Fraction(-1, 3), 0, 3)) == (-1, -2)
    assert _as_signed_q_power(SqrtQScalar.of(0, 3, 3)) == (1, 3)
    assert _as_signed_q_power(SqrtQScalar.of(0, Fraction(1, 9), 3)) == (1, -3)
    assert _as_signed_q_power(SqrtQScalar.of(2, 0, 3)) is None
    assert _as_signed_q_power(SqrtQScalar.of(1, 1, 3)) is None
    assert _as_signed_q_power(SqrtQScalar.zero(3)) is None


def test_convention_table_pins():
    table = pin_convention_table((2, 3))
    assert table["green"]["pinned"] == "-1/sqrt(q)"
    assert table["uminus_serre"]["pinned"] == "+sqrt(q)"
    assert all(v["consistent"] for v in table.values())
    # sign never discriminates: labels come in +- pairs per exponent direction
    for fam, data in table.items():
        for p, labels in data.get("validating", {}).items():
            dirs = {l.lstrip("+-") for l in labels}
            for d in dirs:
                assert sum(1 for l in labels if l.lstrip("+-") == d) == 2


def test_convention_table_builds_one_model_per_space(monkeypatch):
    # the probes run on a2 and single at each prime: four (quiver, p) spaces
    built = []

    class CountingModel(HallModel):
        def __init__(self, *args, **kwargs):
            built.append(args[:2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(identities, "HallModel", CountingModel)
    table = pin_convention_table((2, 3))
    assert len(built) <= 4 and len(set(built)) == len(built)
    inverse = {p: ["-1/sqrt(q)", "+1/sqrt(q)"] for p in (2, 3)}
    expected = {
        family: {"pinned": "-1/sqrt(q)", "validating": inverse, "consistent": True}
        for family in ("derivation_product_rule", "green", "operator_relations",
                       "serre_derivations", "serre_generators", "stratification")
    }
    expected["associativity"] = {"pinned": "formal", "validating": {}, "consistent": True}
    expected["pairing_adjunction"] = {
        "pinned": "-1/sqrt(q)", "consistent": True,
        "validating": {p: ["-1/sqrt(q)", "+1/sqrt(q)", "+sqrt(q)", "-sqrt(q)"] for p in (2, 3)}}
    expected["uminus_serre"] = {
        "pinned": "+sqrt(q)", "consistent": True,
        "validating": {p: ["+sqrt(q)", "-sqrt(q)"] for p in (2, 3)}}
    assert table == expected


def test_suite_small_run_and_determinism():
    cfg = SweepConfig(quivers=("a2",), primes=(2,), maxdim=2, single_maxdim=2,
                      only=("associativity", "serre_generators"))
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert all(r.status == "pass" for r in r1)
    # the convention table is timed like every other report
    assert r1[0].identity == "convention_table" and r1[0].elapsed > 0

    def strip(reports):
        out = []
        for r in reports:
            d = r.to_json()
            d.pop("elapsed")
            out.append(d)
        return json.dumps(out, sort_keys=True)

    assert strip(r1) == strip(r2)


def test_suite_corrupt_mode_fails():
    cfg = SweepConfig(quivers=("a2",), primes=(2,), maxdim=2, only=("associativity",),
                      corrupt=True)
    reports = run_suite(cfg)
    assert any(r.status == "fail" and r.witness for r in reports)


@pytest.mark.parametrize("primes", [(2, 2), (2, 3, 2), ()])
def test_sweep_config_refuses_a_repeated_prime(primes):
    # no prime at all is refused too: the convention table needs one
    with pytest.raises(ValueError, match="repeat" if primes else "empty"):
        SweepConfig(quivers=("a2",), primes=primes, maxdim=2, only=("serre_generators",))


def test_each_space_gets_one_model(monkeypatch):
    # the convention probes, the suite's jobs and the polynomiality harness
    # share one model per (quiver text, p, budget)
    built = Counter()
    original = HallModel.__init__

    def counting_init(self, quiver, p, budget=DEFAULT_POINT_BUDGET, tables=None):
        built[quiver.to_text(), p, budget] += 1
        original(self, quiver, p, budget, tables)

    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    monkeypatch.setattr(HallModel, "__init__", counting_init)
    pin_convention_table((2, 3))
    run_suite(SweepConfig(quivers=("a2", "single"), primes=(2, 3), maxdim=2, single_maxdim=2,
                          only=("green", "serre_generators")))
    polyfit.verify_polynomiality()
    assert len(built) > 4
    assert [key for key, n in built.items() if n > 1] == []


def test_the_run_budget_reaches_every_model(monkeypatch):
    # the convention probes, the jobs, polynomiality and the experiments all
    # build their models at the run's budget
    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    run_suite(SweepConfig(quivers=("a2",), primes=(2,), maxdim=2, single_maxdim=2,
                          skip_slow=True, budget=10**5))
    assert identities._MODEL_POOL
    assert {budget for _, _, budget in identities._MODEL_POOL} == {10**5}

    # a budget too small for the probes is refused before any default model
    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    with pytest.raises(BudgetExceededError):
        run_suite(SweepConfig(quivers=("a2",), primes=(2,), budget=3, only=("green",)))
    assert all(budget != DEFAULT_POINT_BUDGET for _, _, budget in identities._MODEL_POOL)


def test_jobs_parallel_matches_serial():
    def key(rs):
        return sorted(json.dumps({**r.to_json(), "elapsed": 0}, sort_keys=True) for r in rs)

    # a passing slice, and a failing one whose reports and witnesses cross
    # the workers' JSON round trip
    for corrupt, only in ((False, ("serre_generators",)), (True, ("associativity", "green"))):
        cfg = dict(quivers=("a2",), primes=(2,), maxdim=2, skip_slow=True,
                   only=only, corrupt=corrupt)
        serial = run_suite(SweepConfig(**cfg))
        assert any(not r.passed for r in serial) == corrupt
        assert key(serial) == key(run_suite(SweepConfig(**cfg, jobs=2)))


def test_run_releases_each_space_after_its_last_job(monkeypatch):
    # one release per (quiver, p) space, right after the space's last job,
    # leaving the model's memo empty
    events = []
    run_spec, release = identities.run_spec, HallModel.release

    def recording_spec(spec, *args):
        events.append(("spec", spec[2], spec[3]))
        return run_spec(spec, *args)

    def recording_release(self):
        release(self)
        events.append(("release", self.quiver.to_text(), self.p, not self.memo))

    monkeypatch.setattr(identities, "run_spec", recording_spec)
    monkeypatch.setattr(HallModel, "release", recording_release)
    run_suite(SweepConfig(primes=(2,)))
    spaces = {e[1:] for e in events if e[0] == "spec" and e[1] is not None}
    # the releases up to the last job, polynomiality's; after it the run
    # releases every pooled model (test_run_leaves_every_pooled_model_empty)
    last = max(k for k, e in enumerate(events) if e[0] == "spec")
    releases = [(k, e) for k, e in enumerate(events[:last]) if e[0] == "release"]
    assert len(spaces) == 5
    assert sorted(e[1:3] for _, e in releases) == sorted(spaces)
    for k, (_, text, p, empty) in releases:
        assert empty
        assert events[k - 1] == ("spec", text, p)
        assert ("spec", text, p) not in events[k:]


def test_run_leaves_every_pooled_model_empty(monkeypatch):
    # the probes, polynomiality (at p = 5 and 7 too) and the experiments fill
    # pooled models after the spaces' own units have released them
    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    run_suite(SweepConfig(quivers=("a2",), primes=(2, 3), maxdim=2))
    assert {p for _, p, _ in identities._MODEL_POOL} == {2, 3, 5, 7}
    assert [key for key, m in identities._MODEL_POOL.items() if m.memo] == []


def test_polynomiality_releases_the_models_it_filled(monkeypatch):
    # polynomiality fills models at p = 2, 3, 5 and 7; the experiments after
    # it start with every pooled model empty, so a model at a prime the run
    # does not cover holds no subspace frames while they run
    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    experiments, seen = identities.experiment_reports, []

    def recording(*args):
        seen.append([key for key, m in identities._MODEL_POOL.items() if m.memo])
        return experiments(*args)

    monkeypatch.setattr(identities, "experiment_reports", recording)
    run_suite(SweepConfig(quivers=("a2",), primes=(2,), maxdim=2))
    assert {p for _, p, _ in identities._MODEL_POOL} == {2, 3, 5, 7}
    assert seen == [[]]


def test_jobs_hand_each_worker_whole_spaces(monkeypatch):
    import concurrent.futures

    mapped = []

    class RecordingExecutor:
        """Records the mapped units and runs them in this process, so no
        pool or worker process is started."""

        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            args = list(iterable)
            mapped.extend(unit for unit, _, _ in args)
            return map(fn, args)

    def stripped(reports):
        return [json.dumps({**r.to_json(), "elapsed": 0}, sort_keys=True) for r in reports]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    cfg = dict(quivers=("a2", "single"), primes=(2, 3), maxdim=2, single_maxdim=2, skip_slow=True)
    serial = run_suite(SweepConfig(**cfg))
    parallel = run_suite(SweepConfig(**cfg, jobs=2))
    # the units are the spec list cut into whole spaces, polynomiality alone
    assert [s for unit in mapped for s in unit] == identities._suite_specs(SweepConfig(**cfg))
    spaces = [{s[2:4] for s in unit} for unit in mapped]
    assert all(len(space) == 1 for space in spaces)
    assert len({space.pop() for space in spaces}) == len(mapped) == 5
    assert [unit for unit in mapped if unit[-1][0] == "polynomiality"] == [mapped[-1]]
    assert len(mapped[-1]) == 1
    assert stripped(parallel) == stripped(serial)


def test_divided_power_class_relation_bridge_is_prime_independent():
    from test_hall import divided_power_class_relation

    for t, s in ((1, 1), (1, 2), (0, 2), (3, 0)):
        for conv in (GEOM, RINGEL):
            bridges = set()
            for p in (2, 3):
                m = model("single", p)
                d = divided_power_class_relation(m, 0, t, s)
                lhs = conv.poly(d["product_coeff"], p)
                rhs = conv.poly(d["binomial"], p)
                bridges.add(_as_signed_q_power(lhs / rhs))
            assert len(bridges) == 1, (t, s, conv.label, bridges)
            sign, k = bridges.pop()
            assert sign == 1
            # at v^2=1/q the binomial matches on the nose; at v^2=q the bridge
            # is the twist power q^{t s}
            assert k == (0 if conv is GEOM else 2 * t * s)


def _res_then_res_left(m, M, a, b, c):
    """(Res at (a,b) on the first slot) after Res at (a+b, c)."""
    out = {}
    f = unit_class(m, M)
    first = hall.geometric_restriction(m, f, (a + b, c))
    for (X, Z), cf in first.terms:
        inner = hall.geometric_restriction(m, unit_class(m, X), (a, b))
        for (A, B), ci in inner.terms:
            k = (A, B, Z)
            out[k] = out.get(k, LaurentPoly.zero()) + cf * ci
    return {k: v for k, v in out.items() if v}


def _res_then_res_right(m, M, a, b, c):
    out = {}
    f = unit_class(m, M)
    first = hall.geometric_restriction(m, f, (a, b + c))
    for (A, Y), cf in first.terms:
        inner = hall.geometric_restriction(m, unit_class(m, Y), (b, c))
        for (B, C), ci in inner.terms:
            k = (A, B, C)
            out[k] = out.get(k, LaurentPoly.zero()) + cf * ci
    return {k: v for k, v in out.items() if v}


def test_restriction_coassociativity():
    # nested splits agree formally for every basis class, |nu| <= 4
    cases = [
        ("a2", 2, dv(1, 0), dv(0, 1), dv(1, 0)),
        ("a2", 3, dv(1, 0), dv(0, 1), dv(1, 1)),
        ("a2", 2, dv(1, 1), dv(1, 0), dv(0, 1)),
        ("single", 3, dv(1), dv(1), dv(1)),
        ("kronecker", 2, dv(1, 0), dv(1, 1), dv(0, 1)),
    ]
    for name, p, a, b, c in cases:
        m = model(name, p)
        nu = a + b + c
        for M in m.table(nu).ids():
            assert _res_then_res_left(m, M, a, b, c) == _res_then_res_right(m, M, a, b, c)


def test_non_builtin_orientations():
    # arrows into a middle sink and a parallel-pair-plus-path shape exercise
    # the derivation fibers on both sides of a vertex
    from hallq.quiver import symmetric_form

    for Q in _sink_and_mixed():
        m = HallModel(Q, 2)
        assert verify_associativity(m, 3).passed
        assert verify_green_sweep(m, dv(1, 1, 1), GEOM).passed
        for i in range(3):
            assert verify_stratification_sweep(m, i, 1, 3, GEOM).passed
        for i, j in ((0, 1), (1, 0), (1, 2), (0, 2)):
            assert verify_serre_generators(m, i, j, GEOM).passed
        n_top = 1 - symmetric_form(Q, Q.unit(1), Q.unit(0))
        testdim = Q.unit(1).scale(n_top) + Q.unit(0)
        assert verify_serre_derivations(m, 1, 0, testdim, GEOM).passed
