"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; a criterion fails loudly with the first
counterexample. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from itertools import product

import pytest

from hallq import hall, uminus
from hallq.ffrep import group_order
from hallq.hall import HallModel, unit_class
from hallq.identities import (
    CONVENTION_BY_LABEL,
    pin_convention_table,
    verify_associativity,
    verify_derivation_product_rule,
    verify_green_compatibility,
    verify_green_sweep,
    verify_pairing_adjunction,
    verify_pairing_general,
    verify_rule_sweep,
    verify_serre_derivations,
    verify_serre_generators,
    verify_stratification_sweep,
    verify_uminus_serre,
    _dims_up_to,
)
from hallq.laurent import LaurentPoly, quantum_binomial
from hallq.polyfit import verify_polynomiality
from hallq.quiver import DimVector, builtin_quiver, symmetric_form

GEOM = CONVENTION_BY_LABEL["-1/sqrt(q)"]
RINGEL = CONVENTION_BY_LABEL["+sqrt(q)"]

SWEEP_QUIVERS = ("a2", "a3", "kronecker", "disconnected")
PRIMES = (2, 3)

_models: dict = {}


def model(name, p) -> HallModel:
    if (name, p) not in _models:
        _models[(name, p)] = HallModel(builtin_quiver(name), p)
    return _models[(name, p)]


def sweep_dims(name):
    Q = builtin_quiver(name)
    cap = 5 if Q.n == 1 else 4
    return [d for d in _dims_up_to(Q, cap)]


def announce(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_orbit_bookkeeping():
    checked = 0
    for name in SWEEP_QUIVERS + ("single",):
        for p in PRIMES:
            m = model(name, p)
            for dim in sweep_dims(name):
                t = m.table(dim)
                g = group_order(m.quiver, dim, p)
                assert sum(c.orbit_size for c in t.classes) == t._codec.size
                for c in t.classes:
                    assert c.orbit_size * c.aut_count == g
                checked += len(t.classes)
    announce(1, checked > 0, f"orbit equation and orbit-stabilizer on {checked} classes")


def test_criterion_02_associativity():
    for name in SWEEP_QUIVERS:
        for p in PRIMES:
            r = verify_associativity(model(name, p), 4)
            if not r.passed:
                announce(2, False, f"associativity failed on {name}, p={p}: {r.witness}")
    announce(2, True, "associativity, all basis triples, total dim <= 4, both twists")


def test_criterion_03_green_compatibility():
    table = pin_convention_table(PRIMES)
    assert table["green"]["consistent"], "no single convention validates across primes"
    conv = CONVENTION_BY_LABEL[table["green"]["pinned"]]
    checked = 0
    for name in ("a2", "kronecker"):
        for p in PRIMES:
            m = model(name, p)
            for total in range(1, 5):
                for nu in _dims_up_to(m.quiver, total):
                    if nu.total != total:
                        continue
                    r = verify_green_sweep(m, nu, conv)
                    if not r.passed:
                        announce(3, False, f"green failed: {r.params} {r.witness}")
                    checked += r.details["checked"]
    announce(3, True,
             f"compatibility on all splits, {checked} pairs, convention {conv.label}")


def test_criterion_04_derivation_product_rules():
    for name in SWEEP_QUIVERS + ("single",):
        for p in PRIMES:
            m = model(name, p)
            cap = 5 if m.quiver.n == 1 else 4
            for i in range(m.quiver.n):
                for mm in (1, 2):
                    r = verify_rule_sweep(m, i, mm, cap, GEOM)
                    if not r.passed:
                        announce(4, False, f"rule failed: {r.params} {r.witness}")
    # the Gaussian count p+1 against the quantum binomial [2], at two primes
    for p in PRIMES:
        m = model("single", p)
        s = m.simple_class(0)
        lhs = hall.derive_sub(
            m, hall.geometric_induction(m, unit_class(m, s), unit_class(m, s)), 0, 2
        )
        [(_, c)] = lhs.terms
        assert c == LaurentPoly.v(1, p + 1)
        assert GEOM.poly(c, p) == GEOM.poly(quantum_binomial(2, 1), p)
    announce(4, True, "product rules for m <= 2, with the [2] vs p+1 case at p=2,3")


def test_criterion_05_stratified_refinement():
    total = 0
    for name in SWEEP_QUIVERS + ("single",):
        for p in PRIMES:
            m = model(name, p)
            cap = 5 if m.quiver.n == 1 else (3 if len(m.quiver.arrows) > 1 else 4)
            for i in range(m.quiver.n):
                for mm in (1, 2):
                    r = verify_stratification_sweep(m, i, mm, cap, GEOM)
                    if not r.passed:
                        announce(5, False, f"stratification failed: {r.params} {r.witness}")
                    total += r.details["checked"]
    announce(5, True, f"per-stratum and telescoping equalities, {total} comparisons")


def test_criterion_06_quantum_serre_both_levels():
    for name in ("a2", "kronecker", "disconnected"):
        for p in PRIMES:
            m = model(name, p)
            for i, j in ((0, 1), (1, 0)):
                r = verify_serre_generators(m, i, j, GEOM)
                if not r.passed:
                    announce(6, False, f"class-level serre failed: {r.params}")
                r = verify_uminus_serre(m, i, j, RINGEL)
                if not r.passed:
                    announce(6, False, f"symbolic serre failed: {r.params}")
                n_top = 1 - symmetric_form(m.quiver, m.quiver.unit(i), m.quiver.unit(j))
                testdim = m.quiver.unit(i).scale(n_top) + m.quiver.unit(j)
                r = verify_serre_derivations(m, i, j, testdim, GEOM)
                if not r.passed:
                    announce(6, False, f"derivation serre failed: {r.params} {r.witness}")
    announce(6, True, "quantum Serre at class, operator and symbolic level, p=2,3")


def test_criterion_07_pairing_adjunction():
    for name in ("a2", "single"):
        for p in PRIMES:
            m = model(name, p)
            for i in range(m.quiver.n):
                for mm in (1, 2):
                    alpha = m.quiver.unit((i + 1) % m.quiver.n)
                    r = verify_pairing_adjunction(m, i, mm, alpha, GEOM)
                    if not r.passed:
                        announce(7, False, f"pairing failed: {r.params} {r.witness}")
                    assert "bridge_sub" in r.details and "bridge_quot" in r.details
    for p in PRIMES:
        r = verify_pairing_general(model("a2", p), DimVector((1, 0)), DimVector((0, 1)), GEOM)
        if not r.passed:
            announce(7, False, f"general adjunction failed: {r.params}")
    announce(7, True, "adjunction with constant bridge factors at two primes")


def _rhs_general_m(Q, x, y, i, m, side):
    ui = Q.unit(i)
    out = uminus.FreeElement.zero(Q)
    if side == "left":
        nu = uminus.word_degree(Q, next(iter(x.coeffs())))
    else:
        nu = uminus.word_degree(Q, next(iter(y.coeffs())))
    for t in range(m + 1):
        fx = uminus.iterated_derivation(x, i, t, side=side)
        fy = uminus.iterated_derivation(y, i, m - t, side=side)
        if fx.is_zero() or fy.is_zero():
            continue
        if side == "left":
            exp = symmetric_form(Q, nu - ui.scale(t), ui.scale(m - t)) + t * (m - t)
        else:
            exp = symmetric_form(Q, ui.scale(t), nu - ui.scale(m - t)) + t * (m - t)
        out = out + uminus.multiply(fx, fy).scale(quantum_binomial(m, t) * LaurentPoly.v(exp))
    return out


def test_criterion_08_symbolic_layer():
    for name in ("a2", "kronecker"):
        Q = builtin_quiver(name)
        words = [w for n in range(3) for w in product(range(Q.n), repeat=n)]
        for wx in words:
            for wy in words:
                if not 0 < len(wx) + len(wy) <= 4:
                    continue
                x = uminus.FreeElement.make(Q, {wx: LaurentPoly.one()})
                y = uminus.FreeElement.make(Q, {wy: LaurentPoly.one()})
                for i in range(Q.n):
                    for m in range(4):
                        for side in ("left", "right"):
                            lhs = uminus.iterated_derivation(
                                uminus.multiply(x, y), i, m, side=side
                            )
                            if lhs != _rhs_general_m(Q, x, y, i, m, side):
                                announce(8, False,
                                         f"product rule failed: {name} {wx} {wy} i={i} m={m} {side}")
    rng = random.Random(2024)
    m2 = model("a2", 2)
    for _ in range(100):
        wx = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
        wy = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
        x = uminus.FreeElement.make(m2.quiver, {wx: LaurentPoly.v(rng.randrange(-2, 3))})
        y = uminus.FreeElement.make(m2.quiver, {wy: LaurentPoly.one()})
        lhs = uminus.evaluate_to_hall(uminus.multiply(x, y), m2)
        rhs = hall.ringel_product(
            m2, uminus.evaluate_to_hall(x, m2), uminus.evaluate_to_hall(y, m2)
        )
        if lhs != rhs:
            announce(8, False, f"evaluation not multiplicative on {wx}, {wy}")
    announce(8, True, "symbolic product rules (words <= 4, m <= 3) and 100 random"
                      " multiplicativity pairs")


def test_criterion_09_multi_prime_polynomiality():
    reports = verify_polynomiality()
    bad = [r for r in reports if not r.passed]
    if bad:
        announce(9, False, f"polynomiality failed: {bad[0].params} {bad[0].witness}")
    holdout_identities = [r for r in reports if r.params.get("holdout") == 7
                          and r.identity != "polynomiality"]
    announce(9, len(holdout_identities) >= 3,
             f"{len(reports)} fits over q in {{2,3,5}} with prime 7 held out, "
             f"{len(holdout_identities)} identity reruns at 7")


def test_criterion_10_negative_controls():
    m = model("a2", 2)
    controls = [
        verify_associativity(m, 3, corrupt=True),
        verify_green_compatibility(m, DimVector((1, 0)), DimVector((0, 1)),
                                   DimVector((0, 1)), DimVector((1, 0)), GEOM,
                                   corrupt=True),
        verify_derivation_product_rule(model("single", 2), 0, 1, DimVector((1,)),
                                       DimVector((1,)), GEOM, corrupt=True),
        verify_serre_generators(m, 0, 1, GEOM, corrupt=True),
    ]
    for r in controls:
        if r.status != "fail" or not r.witness:
            announce(10, False, f"corrupted {r.identity} did not fail with a witness")
    announce(10, True, f"{len(controls)} corrupted fixtures fail with witnesses")
