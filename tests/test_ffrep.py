import tracemalloc
from itertools import product

import pytest

from hallq import fpmat
from hallq.ffrep import (
    DEFAULT_POINT_BUDGET,
    BudgetExceededError,
    ClassificationTable,
    ClassInfo,
    IsoClassId,
    PointCodec,
    TableCache,
    _gl_generators,
    aut_count_brute,
    classify,
    enumerate_points,
    extension_count,
    extension_histogram,
    filtration_counts,
    filtration_number,
    group_order,
    hom_dimension,
    simple_rep,
    stable_subspaces,
    zero_rep,
    Rep,
)
from hallq.laurent import gaussian_binomial_q
from hallq.quiver import DimVector, builtin_names, builtin_quiver

A2 = builtin_quiver("a2")
KRON = builtin_quiver("kronecker")
SINGLE = builtin_quiver("single")


def dv(*e):
    return DimVector(tuple(e))


def a2_rep(x01, p):
    """A2 representation of dim (1,1) with arrow matrix (x01)."""
    return Rep(A2, p, dv(1, 1), (((x01,),),))


# brute-force oracle: |GL_2(F_2)| by direct enumeration
def test_group_order_against_brute_gl2():
    count = 0
    for a, b, c, d in product(range(2), repeat=4):
        if (a * d - b * c) % 2:
            count += 1
    assert count == 6
    assert group_order(A2, dv(2, 0), 2) == 6
    assert group_order(A2, dv(1, 1), 2) == 1
    assert group_order(A2, dv(1, 1), 3) == 4


def test_enumerate_points_counts():
    assert len(list(enumerate_points(A2, dv(1, 1), 2))) == 2
    assert len(list(enumerate_points(A2, dv(1, 1), 3))) == 3
    assert len(list(enumerate_points(KRON, dv(1, 1), 2))) == 4
    pts = list(enumerate_points(A2, dv(1, 1), 3))
    assert len(set(p.matrices for p in pts)) == 3


def test_enumerate_budget_refusal_names_count():
    with pytest.raises(BudgetExceededError) as e:
        list(enumerate_points(KRON, dv(2, 2), 3, budget=100))
    assert "6561" in str(e.value)


def test_classify_a2_p2():
    t = classify(A2, dv(1, 1), 2)
    assert len(t) == 2
    assert sorted(c.orbit_size for c in t.classes) == [1, 1]
    assert sorted(c.aut_count for c in t.classes) == [1, 1]


def test_classify_a2_p3():
    t = classify(A2, dv(1, 1), 3)
    assert len(t) == 2
    got = sorted((c.orbit_size, c.aut_count) for c in t.classes)
    assert got == [(1, 4), (2, 2)]


def test_classify_single_vertex_dim2():
    for p in (2, 3, 5):
        t = classify(SINGLE, dv(2), p)
        assert len(t) == 1
        assert t.classes[0].aut_count == group_order(SINGLE, dv(2), p)


def test_classify_kronecker_1_1():
    # zero orbit plus one orbit per point of P^1(F_p)
    for p in (2, 3):
        t = classify(KRON, dv(1, 1), p)
        assert len(t) == p + 2
        assert sum(c.orbit_size for c in t.classes) == p * p


def test_iso_class_orbit_invariance():
    t = classify(A2, dv(1, 1), 3)
    c1 = t.iso_class_of(a2_rep(1, 3))
    c2 = t.iso_class_of(a2_rep(2, 3))
    assert c1 == c2
    assert t.iso_class_of(a2_rep(0, 3)) != c1


def test_hom_dimension_examples():
    ss = a2_rep(0, 2)  # S1 + S2
    pp = a2_rep(1, 2)  # indecomposable
    assert hom_dimension(ss, ss) == 2
    assert hom_dimension(pp, pp) == 1
    assert hom_dimension(ss, pp) == 1
    assert hom_dimension(pp, ss) == 1


def test_hom_dimension_constant_on_orbits():
    y = a2_rep(0, 3)
    assert hom_dimension(a2_rep(1, 3), y) == hom_dimension(a2_rep(2, 3), y)
    assert hom_dimension(y, a2_rep(1, 3)) == hom_dimension(y, a2_rep(2, 3))


def test_aut_count_brute_matches_orbit_stabilizer():
    for Q, dim, p in [
        (A2, dv(1, 1), 2),
        (A2, dv(1, 1), 3),
        (A2, dv(2, 1), 2),
        (SINGLE, dv(2), 3),
        (KRON, dv(1, 1), 2),
    ]:
        t = classify(Q, dim, p)
        for c in t.classes:
            assert aut_count_brute(c.representative) == c.aut_count


def test_stable_subspaces_examples():
    pp = a2_rep(1, 2)
    ss = a2_rep(0, 2)
    got = list(stable_subspaces(pp, dv(0, 1)))
    assert len(got) == 1
    assert got[0].sub_rep.dim == dv(0, 1)
    assert got[0].quot_rep.dim == dv(1, 0)
    assert list(stable_subspaces(pp, dv(1, 0))) == []
    assert len(list(stable_subspaces(ss, dv(1, 0)))) == 1


def test_stable_subspace_count_single_vertex():
    x = zero_rep(SINGLE, dv(2), 3)
    assert len(list(stable_subspaces(x, dv(1)))) == 4  # lines in F_3^2


def s_classes(tables, p):
    """(S1+S2 class, P class) at dim (1,1) for A2."""
    t = tables.table(dv(1, 1))
    zero = t.iso_class_of(a2_rep(0, p))
    other = next(c.id for c in t.classes if c.id != zero)
    return zero, other


def test_filtration_numbers_a2():
    for p in (2, 3):
        tables = TableCache(A2, p)
        s1 = tables.table(dv(1, 0)).classes[0].id
        s2 = tables.table(dv(0, 1)).classes[0].id
        ss, pp = s_classes(tables, p)
        assert filtration_number(tables, pp, s1, s2) == 1
        assert filtration_number(tables, pp, s2, s1) == 0
        assert filtration_number(tables, ss, s1, s2) == 1
        assert filtration_number(tables, ss, s2, s1) == 1


def test_filtration_single_vertex_matches_gaussian():
    for p in (2, 3, 5):
        tables = TableCache(SINGLE, p)
        s = tables.table(dv(1)).classes[0].id
        s2 = tables.table(dv(2)).classes[0].id
        assert filtration_number(tables, s2, s, s) == gaussian_binomial_q(2, 1).eval_rational(p)


def test_filtration_dimension_mismatch():
    tables = TableCache(A2, 2)
    s1 = tables.table(dv(1, 0)).classes[0].id
    s2 = tables.table(dv(0, 1)).classes[0].id
    with pytest.raises(ValueError):
        filtration_number(tables, s1, s1, s2)


def test_extension_counts_a2():
    for p, expected_p in ((2, 1), (3, 2)):
        tables = TableCache(A2, p)
        s1 = tables.table(dv(1, 0)).classes[0].id
        s2 = tables.table(dv(0, 1)).classes[0].id
        ss, pp = s_classes(tables, p)
        # quotient S1, sub S2: the orbit of nonzero maps gives p-1 extensions
        assert extension_count(tables, s1, s2, pp) == expected_p
        assert extension_count(tables, s1, s2, ss) == 1
        assert extension_count(tables, s2, s1, pp) == 0
        assert extension_count(tables, s2, s1, ss) == 1


def test_extension_total_is_fiber_size():
    # sum over M of e^M_{N,L} is the full corner count p^{sum alpha_s beta_t}
    for p in (2, 3):
        tables = TableCache(A2, p)
        s1 = tables.table(dv(1, 0)).classes[0].id
        s2 = tables.table(dv(0, 1)).classes[0].id
        hist = extension_histogram(tables, s1, s2)
        assert sum(hist.values()) == p  # one arrow, alpha_s * beta_t = 1
        hist = extension_histogram(tables, s2, s1)
        assert sum(hist.values()) == 1  # no corner block


def test_filtration_extension_conversion():
    # |O_M| F^M_{N,L} = (number of graded subspaces of dim beta) e^M_{N,L} |O_N| |O_L|
    cases = [(A2, dv(1, 0), dv(0, 1), 2), (A2, dv(1, 0), dv(0, 1), 3),
             (A2, dv(1, 1), dv(1, 0), 2), (SINGLE, dv(1), dv(1), 3),
             (KRON, dv(1, 0), dv(0, 1), 2)]
    for Q, alpha, beta, p in cases:
        tables = TableCache(Q, p)
        nu = alpha + beta
        big = tables.table(nu)
        n_w = 1
        for v in range(Q.n):
            n_w *= int(gaussian_binomial_q(nu[v], beta[v]).eval_rational(p))
        for N in tables.table(alpha).ids():
            for L in tables.table(beta).ids():
                hist = extension_histogram(tables, N, L)
                on = tables.table(alpha).info(N).orbit_size
                ol = tables.table(beta).info(L).orbit_size
                for M in big.ids():
                    f = filtration_number(tables, M, N, L)
                    e = hist.get(M, 0)
                    assert big.info(M).orbit_size * f == n_w * e * on * ol


def test_extension_representative_independence():
    # recount with a non-canonical orbit point fixed as the sub rep
    p = 3
    tables = TableCache(A2, p)
    big = tables.table(dv(1, 1))
    ss, pp = s_classes(tables, p)
    # place sub rep on W0 by hand at dim ((1,0),(0,1)) split: corner runs over F_p
    # with quotient fixed; conjugating the fixed points must not change counts
    base = extension_histogram(tables, tables.table(dv(1, 0)).classes[0].id,
                               tables.table(dv(0, 1)).classes[0].id)
    assert base[pp] == 2 and base[ss] == 1


def test_classification_table_json_round_trip():
    t = classify(A2, dv(1, 1), 3)
    data = t.to_json()
    t2 = ClassificationTable.from_json(data)
    assert t2.to_json() == data
    assert [c.id for c in t2.classes] == [c.id for c in t.classes]


@pytest.mark.parametrize("corrupt", [
    lambda cop: cop[:-1],               # truncated
    lambda cop: [0] * len(cop),         # all zero: per-class counts break
    lambda cop: cop[:-1] + [len(cop)],  # index out of range
    lambda cop: cop + [0],              # too long
], ids=["truncated", "all_zero", "out_of_range", "too_long"])
def test_classification_table_from_json_rejects_bad_class_of_point(corrupt):
    data = classify(A2, dv(1, 1), 3).to_json()
    data["class_of_point"] = corrupt(data["class_of_point"])
    with pytest.raises(ValueError):
        ClassificationTable.from_json(data)


def test_classify_budget_refusal():
    with pytest.raises(BudgetExceededError) as e:
        classify(KRON, dv(2, 2), 3, budget=1000)
    assert "6561" in str(e.value)


def test_simple_and_zero_reps():
    s = simple_rep(A2, 0, 2)
    assert s.dim == dv(1, 0)
    z = zero_rep(A2, dv(2, 2), 2)
    assert z.matrices[0] == ((0, 0), (0, 0))


def test_filtration_representative_independence():
    # recount stable subspaces from a non-canonical orbit point
    from hallq.ffrep import stable_subspaces

    p = 3
    tables = TableCache(A2, p)
    big = tables.table(dv(1, 1))
    ss, pp = s_classes(tables, p)
    rep = big.info(pp).representative
    other = a2_rep(2, p) if rep.matrices[0][0][0] != 2 else a2_rep(1, p)
    assert big.iso_class_of(other) == pp and other != rep
    s1 = tables.table(dv(1, 0)).classes[0].id
    s2 = tables.table(dv(0, 1)).classes[0].id
    for x in (rep, other):
        count = 0
        for gs in stable_subspaces(x, dv(0, 1)):
            if (tables.table(dv(1, 0)).iso_class_of(gs.quot_rep) == s1
                    and tables.table(dv(0, 1)).iso_class_of(gs.sub_rep) == s2):
                count += 1
        assert count == filtration_number(tables, pp, s1, s2)


def test_extension_count_representative_independence():
    # fix a different orbit point of the sub class and recount by hand
    from hallq.ffrep import _assemble, _iter_corners

    p = 3
    tables = TableCache(A2, p)
    big = tables.table(dv(2, 1))
    sub_t = tables.table(dv(1, 1))
    quot_t = tables.table(dv(1, 0))
    ss, pp = s_classes(tables, p)
    z = quot_t.classes[0].representative
    y_canonical = sub_t.info(pp).representative
    y_other = a2_rep(2, p) if y_canonical.matrices[0][0][0] != 2 else a2_rep(1, p)
    assert sub_t.iso_class_of(y_other) == pp
    for M in big.ids():
        counts = []
        for y in (y_canonical, y_other):
            c = 0
            for corners in _iter_corners(A2, dv(1, 0), dv(1, 1), p):
                if big.iso_class_of(_assemble(A2, p, z, y, corners)) == M:
                    c += 1
            counts.append(c)
        assert counts[0] == counts[1]
        assert counts[0] == extension_count(tables, quot_t.classes[0].id, pp, M)


# -- classification against the union-find sweep and closed counts ----------------


def _classify_union_find(Q, dim, p):
    """The former classify, kept as the reference: decode every point, apply
    each generator with fpmat.mat_mul, re-encode, and union the two indices."""
    codec = PointCodec(Q, dim, p)
    n_pts = codec.size
    parent = list(range(n_pts))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    gens = [(v, g, ginv) for v in range(Q.n) for g, ginv in _gl_generators(dim[v], p)]
    for idx in range(n_pts):
        x = codec.decode(idx)
        for v, g, ginv in gens:
            mats = list(x.matrices)
            for a, (s, t) in enumerate(Q.arrows):
                m = mats[a]
                if t == v:
                    m = fpmat.mat_mul(g, m, p)
                if s == v:
                    m = fpmat.mat_mul(m, ginv, p)
                mats[a] = m
            union(idx, codec.encode(tuple(mats)))

    members = {}
    for idx in range(n_pts):
        members.setdefault(find(idx), []).append(idx)
    g_order = group_order(Q, dim, p)
    simples = [simple_rep(Q, v, p) for v in range(Q.n)]
    raw = []
    for pts in members.values():
        rep = codec.decode(min(pts))
        fp = (hom_dimension(rep, rep), *(hom_dimension(rep, s) for s in simples),
              *(hom_dimension(s, rep) for s in simples))
        raw.append((fp, min(pts), pts, rep))
    raw.sort(key=lambda r: (r[0], r[1]))
    classes, tiebreaks = [], {}
    class_of_point = [0] * n_pts
    for ci, (fp, _, pts, rep) in enumerate(raw):
        k = tiebreaks.get(fp, 0)
        tiebreaks[fp] = k + 1
        classes.append(ClassInfo(IsoClassId(dim.entries, fp, k), rep, len(pts), g_order // len(pts)))
        for idx in pts:
            class_of_point[idx] = ci
    return ClassificationTable(Q, dim, p, classes, class_of_point)


def small_spaces(names, cap):
    """(quiver, dim, p) for p in 2, 3, 5 and dims with entries up to 3
    whose representation space has at most cap points."""
    for name in names:
        Q = builtin_quiver(name)
        for p in (2, 3, 5):
            for e in product(range(4), repeat=Q.n):
                if p ** sum(e[s] * e[t] for s, t in Q.arrows) <= cap:
                    yield Q, DimVector(e), p


def table_shape(t):
    return ([(c.id, c.representative, c.orbit_size, c.aut_count) for c in t.classes],
            [t.class_of_index(i) for i in range(PointCodec(t.quiver, t.dim, t.p).size)])


def test_classify_matches_union_find_sweep():
    cases = list(small_spaces(builtin_names(), cap=625))
    assert len(cases) > 250
    for Q, dim, p in cases:
        assert table_shape(classify(Q, dim, p)) == table_shape(_classify_union_find(Q, dim, p)), (Q, dim, p)


def test_classify_decodes_once_per_class(monkeypatch):
    calls = []
    decode = PointCodec.decode

    def counting_decode(self, idx):
        calls.append(idx)
        return decode(self, idx)

    monkeypatch.setattr(PointCodec, "decode", counting_decode)
    for Q, dim, p in [(KRON, dv(2, 2), 3), (builtin_quiver("a3"), dv(1, 2, 1), 3)]:
        calls.clear()
        t = classify(Q, dim, p)
        assert len(calls) == len(t) < PointCodec(Q, dim, p).size
        assert sorted(calls) == sorted(PointCodec(Q, dim, p).encode(c.representative.matrices)
                                       for c in t.classes)


def kostant_partition(roots, d):
    """Number of multisets of the given positive roots that sum to d."""
    if not roots:
        return int(not any(d))
    total = 0
    while min(d) >= 0:
        total += kostant_partition(roots[1:], d)
        d = tuple(x - r for x, r in zip(d, roots[0]))
    return total


def type_a_roots(n):
    """Positive roots of A_n: indicator vectors of the intervals [i, j]."""
    return [tuple(int(i <= k <= j) for k in range(n)) for i in range(n) for j in range(i, n)]


DYNKIN_ROOTS = {
    "single": type_a_roots(1),
    "a2": type_a_roots(2),
    "a3": type_a_roots(3),
    "disconnected": [(1, 0), (0, 1)],
}


def test_kostant_partition_examples():
    assert kostant_partition(DYNKIN_ROOTS["a3"], (2, 2, 2)) == 10
    assert kostant_partition(DYNKIN_ROOTS["a3"], (1, 2, 1)) == 5
    assert kostant_partition(DYNKIN_ROOTS["a2"], (1, 1)) == 2


def test_class_count_is_kostant_partition_function():
    # Gabriel: for a Dynkin quiver the classes at d are the multisets of
    # positive roots (indecomposables) summing to d, at every prime
    cases = list(small_spaces(DYNKIN_ROOTS, cap=3**8))
    assert (builtin_quiver("a3"), dv(2, 2, 2), 3) in cases
    for Q, dim, p in cases:
        name = next(n for n in DYNKIN_ROOTS if builtin_quiver(n) == Q)
        assert len(classify(Q, dim, p)) == kostant_partition(DYNKIN_ROOTS[name], dim.entries), (
            name, dim, p)


def test_classify_default_budget_refuses_before_allocating():
    assert DEFAULT_POINT_BUDGET < 5**9  # else the call below would classify
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as e:
            classify(A2, dv(3, 3), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "1953125" in str(e.value)
    assert peak < 100_000
