import itertools
from fractions import Fraction

import pytest

from hallq import hall
from hallq.ffrep import stable_subspaces
from hallq.hall import (
    HallElement,
    HallModel,
    constant_class,
    derive_quot,
    derive_sub,
    element_to_json,
    geometric_induction,
    geometric_restriction,
    pairing,
    ringel_product,
    stratified_derive_sub,
    stratified_derive_quot,
    unit_class,
    unit_element,
)
from hallq.laurent import LaurentPoly, gaussian_binomial_q, quantum_binomial
from hallq.quiver import (
    DimVector,
    builtin_names,
    builtin_quiver,
    derivation_split,
    euler_form,
    induction_twist,
)

V = LaurentPoly.v

_models = {}


def model(name, p) -> HallModel:
    key = (name, p)
    if key not in _models:
        _models[key] = HallModel(builtin_quiver(name), p)
    return _models[key]


def dv(*e):
    return DimVector(tuple(e))


def divided_power_class_relation(model, i, t, s):
    """Compare L_{t i} * L_{s i} with the Gaussian binomial multiple of
    L_{(t+s)i}: the coefficient of the one class at (t+s)i in the product, the
    quantum binomial, and the Gaussian binomial counted at q = p. The ratio of
    the first two is a monomial only after specialization."""
    m = t + s
    prod = geometric_induction(model, constant_class(model, i, t), constant_class(model, i, s))
    cid = model.table(model.quiver.unit(i).scale(m)).classes[0].id
    return {
        "product_coeff": prod.coeffs().get(cid, LaurentPoly.zero()),
        "binomial": quantum_binomial(m, t),
        "gauss_count": gaussian_binomial_q(m, t).eval_rational(model.p),
    }


def derive_w_counts(tables, M, i, m, side):
    """Sum-over-subspaces oracle: for the representative x of M, count the
    x-stable graded subspaces full away from i and of codimension m at i
    (side "sub"), bucketed by the class of the sub, or those of dimension
    m*e_i (side "quot"), bucketed by the class of the quotient.

    Related to the derivation histogram by orbit sizes: with G the number of
    such subspaces at vertex i, |O_M| * w_counts[N] = G * |O_N| * histogram[(M, N)].
    """
    alpha = DimVector(M.dim)
    mi = tables.quiver.unit(i).scale(m)
    if not mi <= alpha:
        return {}
    x = tables.table(alpha).info(M).representative
    rest_t = tables.table(alpha - mi)
    out = {}
    for gs in stable_subspaces(x, alpha - mi if side == "sub" else mi):
        n = rest_t.class_of_index(gs.sub_index if side == "sub" else gs.quot_index)
        out[n] = out.get(n, 0) + 1
    return out


def a2_classes(m):
    """S1, S2, S1+S2, P basis ids for an A2 model."""
    s1 = m.simple_class(0)
    s2 = m.simple_class(1)
    t = m.table(dv(1, 1))
    import hallq.ffrep as ffrep

    zero_idx = t.iso_class_of(ffrep.zero_rep(m.quiver, dv(1, 1), m.p))
    other = next(c.id for c in t.classes if c.id != zero_idx)
    return s1, s2, zero_idx, other


def test_geometric_induction_a2():
    for p in (2, 3):
        m = model("a2", p)
        s1, s2, ss, pp = a2_classes(m)
        prod = geometric_induction(m, unit_class(m, s1), unit_class(m, s2))
        assert prod.coeffs() == {pp: V(1), ss: V(1)}
        back = geometric_induction(m, unit_class(m, s2), unit_class(m, s1))
        assert back.coeffs() == {ss: LaurentPoly.one()}


def test_ringel_product_a2():
    m = model("a2", 2)
    s1, s2, ss, pp = a2_classes(m)
    prod = ringel_product(m, unit_class(m, s1), unit_class(m, s2))
    assert prod.coeffs() == {pp: V(-1), ss: V(-1)}


def test_twist_relation_geometric_vs_ringel():
    # geometric = v^{2 sum_h alpha_s beta_t} * ringel on every basis pair
    for name, p in (("a2", 2), ("kronecker", 2)):
        m = model(name, p)
        Q = m.quiver
        for alpha, beta in [(Q.unit(0), Q.unit(1)), (Q.unit(1), Q.unit(0)), (dv(1, 1), Q.unit(0))]:
            cross = 2 * sum(alpha[s] * beta[t] for s, t in Q.arrows)
            for N in m.table(alpha).ids():
                for L in m.table(beta).ids():
                    g = geometric_induction(m, unit_class(m, N), unit_class(m, L))
                    r = ringel_product(m, unit_class(m, N), unit_class(m, L))
                    assert g == r.scale(V(cross))


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_memoized_twists_and_splits_match_a_fresh_computation(name):
    """On a fresh model, after both products and the restriction of every
    class pair of every grading pair up to total 4, the memoized twists equal
    the forms computed afresh, and the two products still differ by
    v^{m - <,>}: a memo that mixed up its forms would break one or the other."""
    m = HallModel(builtin_quiver(name), 2)
    Q = m.quiver
    dims = [DimVector(e) for e in itertools.product(range(5), repeat=Q.n) if sum(e) <= 4]
    for alpha, beta in itertools.product(dims, repeat=2):
        if alpha.total + beta.total > 4:
            continue
        shift = V(induction_twist(Q, alpha, beta) - euler_form(Q, alpha, beta))
        for N in m.table(alpha).ids():
            for L in m.table(beta).ids():
                fn, fl = unit_class(m, N), unit_class(m, L)
                g = geometric_induction(m, fn, fl)
                assert ringel_product(m, fn, fl).scale(shift) == g
                geometric_restriction(m, g, (alpha, beta))
        assert m.grading(alpha, beta) == (alpha + beta, induction_twist(Q, alpha, beta),
                                          euler_form(Q, alpha, beta))
    # the split memo is keyed by its side as well: derive both ways, then compare
    for dim, i, mm in itertools.product(dims, range(Q.n), (1, 2)):
        for M in m.table(dim).ids():
            derive_sub(m, unit_class(m, M), i, mm)
            derive_quot(m, unit_class(m, M), i, mm)
        for side in ("sub", "quot"):
            assert m.split(dim, i, mm, side) == derivation_split(Q, dim, i, mm, side)


def test_induction_unit():
    m = model("a2", 2)
    s1, _, _, pp = a2_classes(m)
    one = unit_element(m)
    f = unit_class(m, pp)
    assert geometric_induction(m, f, one) == f
    assert geometric_induction(m, one, f) == f


def test_constant_class():
    m = model("a2", 3)
    assert constant_class(m, 0, 1) == unit_class(m, m.simple_class(0))
    assert constant_class(m, 0, 0) == unit_element(m)
    c2 = constant_class(m, 0, 2)
    assert c2.dim == dv(2, 0)
    assert len(c2.terms) == 1


def test_unit_class_unknown_id_raises():
    from hallq.ffrep import IsoClassId

    m2 = model("a2", 2)
    bogus = IsoClassId((1, 1), (99, 99, 99, 99, 99), 0)
    with pytest.raises(KeyError):
        unit_class(m2, bogus)
    # with every class of a grading memoized, an id of another model whose
    # class this model does not have is still refused
    own = m2.table(dv(1, 1)).ids()
    for M in own:
        assert unit_class(m2, M) is unit_class(m2, M)
    foreign = [M for M in model("kronecker", 2).table(dv(1, 1)).ids() if M not in own]
    assert foreign
    for M in foreign:
        with pytest.raises(KeyError):
            unit_class(m2, M)


def test_geometric_restriction_a2():
    for p, cnt in ((2, 1), (3, 2)):
        m = model("a2", p)
        s1, s2, ss, pp = a2_classes(m)
        res = geometric_restriction(m, unit_class(m, pp), (dv(1, 0), dv(0, 1)))
        assert res.coeffs() == {(s1, s2): V(1, cnt)}
        res = geometric_restriction(m, unit_class(m, pp), (dv(0, 1), dv(1, 0)))
        assert res.is_zero()


def test_restriction_trivial_splits():
    m = model("a2", 2)
    _, _, _, pp = a2_classes(m)
    f = unit_class(m, pp)
    left = geometric_restriction(m, f, (dv(0, 0), dv(1, 1)))
    [(key, c)] = left.terms
    assert key[1] == pp and c == LaurentPoly.one()
    right = geometric_restriction(m, f, (dv(1, 1), dv(0, 0)))
    [(key, c)] = right.terms
    assert key[0] == pp and c == LaurentPoly.one()


def test_derive_sub_a2_examples():
    for p in (2, 3):
        m = model("a2", p)
        s1, s2, ss, pp = a2_classes(m)
        got = derive_sub(m, unit_class(m, pp), 0, 1)
        assert got.coeffs() == {s2: V(1, p - 1)}
        # m = 0 is the identity, vanishing when the grading cannot drop
        assert derive_sub(m, unit_class(m, pp), 0, 0) == unit_class(m, pp)
        assert derive_sub(m, unit_class(m, s2), 0, 1).is_zero()


@pytest.mark.parametrize("vertex", [2, 5, -1])
def test_derivations_at_a_vertex_outside_the_quiver_raise(vertex):
    m = model("a2", 2)
    s1, s2, ss, pp = a2_classes(m)
    f = unit_class(m, pp)
    for mm in (0, 1):
        with pytest.raises(ValueError):
            derive_sub(m, f, vertex, mm)
        with pytest.raises(ValueError):
            derive_quot(m, f, vertex, mm)
    with pytest.raises(ValueError):
        stratified_derive_sub(m, s1, s2, vertex, 1)
    with pytest.raises(ValueError):
        stratified_derive_quot(m, s1, s2, vertex, 1)
    with pytest.raises(ValueError):
        m.simple_class(vertex)
    # vertices inside the quiver are unchanged
    assert derive_sub(m, f, 0, 1).coeffs() == {s2: V(1, 1)}
    assert derive_quot(m, f, 1, 1).coeffs() == {s1: V(1, 1)}
    assert derive_sub(m, f, 1, 0) == f
    assert m.table(dv(1, 0)).classes[0].id == s1


def test_derive_sub_single_vertex_fiber_count():
    # the fiber count over the fixed flag is 1; the subspace count p+1 lives
    # in the sum-over-W oracle below
    for p in (2, 3):
        m = model("single", p)
        s2 = m.table(dv(2)).classes[0].id
        s1 = m.simple_class(0)
        got = derive_sub(m, unit_class(m, s2), 0, 1)
        assert got.coeffs() == {s1: V(-1)}


# (alpha, i, m) cases per side in the sweep below, pinned so it cannot shrink
WIDE_CASES = 459


def _check_derivations_against_w_counts(side):
    """Check the derivation table and operator of one side against the
    subspace oracle `derive_w_counts` on every builtin quiver at p = 2, 3, for
    m = 1, 2 and every alpha >= m*e_i with entries at most 3 and p^D <= 3^4
    points, through |O_M| * w_count[N] = G * |O_N| * count[(M, N)], where G
    counts the subspaces of dimension m (or codimension m) at vertex i.
    Returns the number of (alpha, i, m) cases checked."""
    cases = 0
    for name in builtin_names():
        for p in (2, 3):
            m = model(name, p)
            Q = m.quiver
            for entries in itertools.product(range(4), repeat=Q.n):
                alpha = DimVector(entries)
                if p ** sum(alpha[s] * alpha[t] for s, t in Q.arrows) > 3**4:
                    continue
                for i, mm in itertools.product(range(Q.n), (1, 2)):
                    if mm > alpha[i]:
                        continue
                    mi = Q.unit(i).scale(mm)
                    rest = alpha - mi
                    big_t, rest_t = m.table(alpha), m.table(rest)
                    n_gr = int(gaussian_binomial_q(alpha[i], mm).eval_rational(p))
                    if side == "sub":
                        tw, table = -euler_form(Q, mi, rest), m.derive_sub_table(alpha, i, mm)
                    else:
                        tw, table = -euler_form(Q, rest, mi), m.derive_quot_table(alpha, i, mm)
                    entries_seen = 0
                    for M in big_t.ids():
                        w = derive_w_counts(m.tables, M, i, mm, side)
                        expected = {}
                        for N in rest_t.ids():
                            count, r = divmod(big_t.info(M).orbit_size * w.get(N, 0),
                                              n_gr * rest_t.info(N).orbit_size)
                            assert r == 0
                            if count:
                                expected[N] = count
                        assert {N: c for (M2, N), c in table.items() if M2 == M} == expected
                        entries_seen += len(expected)
                        got = hall.derivation(side)(m, unit_class(m, M), i, mm)
                        assert got.coeffs() == {N: V(tw, c) for N, c in expected.items()}
                    assert len(table) == entries_seen
                    cases += 1
    return cases


def test_derive_w_count_oracle_conversion():
    assert _check_derivations_against_w_counts("sub") == WIDE_CASES


def test_derive_quot_examples():
    for p in (2, 3):
        m = model("a2", p)
        s1, s2, ss, pp = a2_classes(m)
        got = derive_quot(m, unit_class(m, pp), 1, 1)
        assert got.coeffs() == {s1: V(1, p - 1)}
        assert derive_quot(m, unit_class(m, pp), 0, 1).is_zero()
        assert derive_quot(m, unit_class(m, pp), 0, 0) == unit_class(m, pp)


def test_derive_quot_w_count_oracle():
    assert _check_derivations_against_w_counts("quot") == WIDE_CASES


def test_restriction_factors_through_derivations():
    # Res at (m*e_i, rest) = L_{mi} (x) derive_sub, and mirror for derive_quot
    cases = [("a2", 2, dv(1, 1), 0, 1), ("a2", 3, dv(1, 1), 0, 1),
             ("single", 2, dv(2), 0, 1), ("single", 3, dv(3), 0, 2),
             ("kronecker", 2, dv(2, 1), 0, 1)]
    for name, p, alpha, i, mm in cases:
        m = model(name, p)
        mi = m.quiver.unit(i).scale(mm)
        rest = alpha - mi
        point = m.table(mi).classes[0].id
        for M in m.table(alpha).ids():
            f = unit_class(m, M)
            res = geometric_restriction(m, f, (mi, rest))
            d = derive_sub(m, f, i, mm)
            assert res.coeffs() == {(point, N): c for N, c in d.terms}
            res2 = geometric_restriction(m, f, (rest, mi))
            d2 = derive_quot(m, f, i, mm)
            assert res2.coeffs() == {(N, point): c for N, c in d2.terms}


def test_sub_and_quot_derivations_commute():
    # top-quotient at i and bottom-sub at j extract independent layers, so the
    # two orders agree (two left derivations at distinct vertices do not)
    for name, p, dim in [("a2", 2, dv(2, 2)), ("a2", 3, dv(1, 1)), ("kronecker", 2, dv(2, 1))]:
        m = model(name, p)
        for M in m.table(dim).ids():
            f = unit_class(m, M)
            for i, j in ((0, 1), (1, 0)):
                a = derive_sub(m, derive_quot(m, f, j, 1), i, 1)
                b = derive_quot(m, derive_sub(m, f, i, 1), j, 1)
                assert a == b


def test_stratified_derive_sub_single_vertex():
    for p in (2, 3):
        m = model("single", p)
        s = m.simple_class(0)
        strata = stratified_derive_sub(m, s, s, 0, 1)
        assert sorted(strata) == [0, 1]
        # frozen from the pair count: W = fixed line gives t=1, others t=0
        assert strata[1].coeffs() == {s: LaurentPoly.one()}
        assert strata[0].coeffs() == {s: LaurentPoly.const(p)}
        total = derive_sub(m, geometric_induction(m, unit_class(m, s), unit_class(m, s)), 0, 1)
        assert strata[0] + strata[1] == total


def test_stratified_derive_quot_single_vertex():
    for p in (2, 3):
        m = model("single", p)
        s = m.simple_class(0)
        strata = stratified_derive_quot(m, s, s, 0, 1)
        assert strata[0].coeffs() == {s: LaurentPoly.one()}
        assert strata[1].coeffs() == {s: LaurentPoly.const(p)}
        total = derive_quot(m, geometric_induction(m, unit_class(m, s), unit_class(m, s)), 0, 1)
        assert strata[0] + strata[1] == total


def test_stratified_totals_a2():
    m = model("a2", 2)
    s1, s2, ss, pp = a2_classes(m)
    strata = stratified_derive_sub(m, pp, s1, 0, 1)
    total = derive_sub(m, geometric_induction(m, unit_class(m, pp), unit_class(m, s1)), 0, 1)
    acc = HallElement.zero(m.quiver, m.p)
    for t in strata:
        acc = acc + strata[t]
    assert acc == total


def test_pairing_examples():
    for p in (2, 3):
        m = model("a2", p)
        s1, s2, ss, pp = a2_classes(m)
        assert pairing(m, unit_class(m, s1), unit_class(m, s1)) == LaurentPoly.const(
            Fraction(1, p - 1)
        )
        assert pairing(m, unit_class(m, ss), unit_class(m, pp)) == LaurentPoly.zero()
    m = model("single", 2)
    l2 = constant_class(m, 0, 2)
    from hallq.ffrep import group_order

    assert pairing(m, l2, l2) == LaurentPoly.const(Fraction(1, group_order(m.quiver, dv(2), 2)))


def test_pairing_grading_mismatch():
    m = model("a2", 2)
    s1, s2, _, _ = a2_classes(m)
    with pytest.raises(ValueError):
        pairing(m, unit_class(m, s1), unit_class(m, s2))


def test_divided_power_class_relation_data():
    for p in (2, 3):
        m = model("single", p)
        d = divided_power_class_relation(m, 0, 1, 1)
        assert d["gauss_count"] == p + 1
        assert d["product_coeff"] == V(1, p + 1)
        assert d["binomial"] == V(1) + V(-1)


def test_element_json():
    m = model("a2", 2)
    s1, s2, ss, pp = a2_classes(m)
    prod = geometric_induction(m, unit_class(m, s1), unit_class(m, s2))
    data = element_to_json(m, prod)
    assert data["dim"] == [1, 1]
    assert len(data["terms"]) == 2
    assert all(t["laurent"] == "1*v^1" for t in data["terms"])


def test_grading_enforced():
    m = model("a2", 2)
    s1, s2, _, _ = a2_classes(m)
    with pytest.raises(ValueError):
        unit_class(m, s1) + unit_class(m, s2)


def test_induction_of_sums_is_bilinear_in_unit_products():
    # multi-term operands take the general path; unit pairs take the
    # one-monomial-per-class path, and the two must agree
    for name, p in (("a2", 2), ("a2", 3), ("kronecker", 2)):
        m = model(name, p)
        Q = m.quiver
        for alpha, beta in ((dv(1, 1), Q.unit(0)), (Q.unit(1), dv(1, 1)), (dv(1, 1), dv(1, 1))):
            A = m.table(alpha).ids()
            B = m.table(beta).ids()
            f = unit_class(m, A[0]).scale(LaurentPoly.const(Fraction(1, 3)))
            f = f + unit_class(m, A[-1]).scale(V(2) + V(-1, 5))
            g = unit_class(m, B[0]).scale(-3) + unit_class(m, B[-1]).scale(V(-1))
            for op in (geometric_induction, ringel_product):
                expected = HallElement.zero(Q, p)
                for N, cf in f.terms:
                    for L, cg in g.terms:
                        expected = expected + op(m, unit_class(m, N), unit_class(m, L)).scale(cf * cg)
                assert op(m, f, g) == expected


def test_unit_products_are_one_monomial_per_class():
    m = model("kronecker", 2)
    tw = induction_twist(m.quiver, dv(1, 1), dv(1, 0))
    for N in m.table(dv(1, 1)).ids():
        for L in m.table(dv(1, 0)).ids():
            table = m.filtration_table(dv(1, 1), dv(1, 0)).get((N, L), {})
            prod = geometric_induction(m, unit_class(m, N), unit_class(m, L))
            assert prod.coeffs() == {M: V(tw, c) for M, c in table.items()}
            assert all(type(c.coeff(tw)) is int for _, c in prod.terms)


def test_pairing_returns_exact_inverse_aut_counts():
    for name, p in (("a2", 2), ("a2", 3), ("single", 3)):
        m = model(name, p)
        for d in (m.quiver.unit(0), m.quiver.unit(0).scale(2)):
            t = m.table(d)
            for c in t.classes:
                got = pairing(m, unit_class(m, c.id), unit_class(m, c.id).scale(V(1)))
                assert got == V(1, Fraction(1, c.aut_count))
                x = got.coeff(1)
                assert x == Fraction(1, c.aut_count)
                assert type(x) is (int if c.aut_count == 1 else Fraction)
