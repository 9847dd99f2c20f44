import json
from collections import Counter

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


def test_associativity_formal_and_control():
    for name in ("a2", "kronecker"):
        assert verify_associativity(model(name, 2), 3).passed
    r = verify_associativity(model("a2", 2), 3, corrupt=True)
    assert r.status == "fail" and r.witness["triple"]


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
    cfg = SweepConfig(quivers=("a2",), primes=(2,), maxdim=2,
                      only=("serre_generators",))
    serial = run_suite(cfg)
    cfg2 = SweepConfig(quivers=("a2",), primes=(2,), maxdim=2,
                       only=("serre_generators",), jobs=2)
    parallel = run_suite(cfg2)

    def key(rs):
        return sorted(json.dumps({**r.to_json(), "elapsed": 0}, sort_keys=True) for r in rs)

    assert key(serial) == key(parallel)


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
    from hallq.quiver import Quiver, symmetric_form

    sink = Quiver(("1", "2", "3"), ((0, 1), (2, 1)))
    mixed = Quiver(("a", "b", "c"), ((0, 1), (0, 1), (1, 2)))
    for Q in (sink, mixed):
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
