import json
import tracemalloc
from itertools import combinations, product

import pytest

from hallq import fpmat
from hallq.ffrep import (
    _PRIMITIVE_ROOT,
    DEFAULT_POINT_BUDGET,
    BudgetExceededError,
    ClassificationTable,
    ClassInfo,
    IsoClassId,
    PointCodec,
    SubspaceFrame,
    TableCache,
    _fiber_points,
    _intertwiner_system,
    classify,
    enumerate_points,
    extension_histogram,
    filtration_counts,
    group_order,
    hom_dimension,
    simple_rep,
    stable_subspaces,
    stratified_pair_counts,
    stratum_entries,
    zero_rep,
    Rep,
)
from hallq.laurent import gaussian_binomial_q
from hallq.quiver import DimVector, Quiver, builtin_names, builtin_quiver

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


def _hom_basis(x, y):
    """Basis of the intertwiner space as tuples of per-vertex matrices."""
    rows, u = _intertwiner_system(x, y)
    p = x.p
    if u == 0:
        return []
    r, pivots = fpmat.rref(rows, p) if rows else ((), ())
    out = []
    for j in fpmat.nonpivot_columns(u, pivots):
        vec = [0] * u
        vec[j] = 1
        for rr, c in zip(r, pivots):
            vec[c] = (-rr[j]) % p
        mats, off = [], 0
        for v in range(x.quiver.n):
            ry, cx = y.dim[v], x.dim[v]
            mats.append(tuple(tuple(vec[off + i * cx + k] for k in range(cx)) for i in range(ry)))
            off += ry * cx
        out.append(tuple(mats))
    return out


def aut_count_brute(x, limit=300000):
    """|Aut(x)| by enumerating the endomorphism space and testing invertibility,
    independent of the orbit-stabilizer route of classification tables."""
    basis = _hom_basis(x, x)
    p, n_v = x.p, x.quiver.n
    assert p ** len(basis) <= limit, f"endomorphism space too large: {p}^{len(basis)}"
    count = 0
    for coeffs in product(range(p), repeat=len(basis)):
        ok = True
        for v in range(n_v):
            n = x.dim[v]
            if n == 0:
                continue
            m = tuple(tuple(sum(c * b[v][i][j] for c, b in zip(coeffs, basis)) % p for j in range(n))
                      for i in range(n))
            if fpmat.rank(m, p) != n:
                ok = False
                break
        count += ok
    return count


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
    assert PointCodec(A2, dv(0, 1), 2).decode(got[0].sub_index).dim == dv(0, 1)
    assert PointCodec(A2, dv(1, 0), 2).decode(got[0].quot_index).dim == dv(1, 0)
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
        assert filtration_counts(tables, pp, dv(0, 1)).get((s1, s2), 0) == 1
        assert filtration_counts(tables, pp, dv(1, 0)).get((s2, s1), 0) == 0
        assert filtration_counts(tables, ss, dv(0, 1)).get((s1, s2), 0) == 1
        assert filtration_counts(tables, ss, dv(1, 0)).get((s2, s1), 0) == 1


def test_filtration_single_vertex_matches_gaussian():
    for p in (2, 3, 5):
        tables = TableCache(SINGLE, p)
        s = tables.table(dv(1)).classes[0].id
        s2 = tables.table(dv(2)).classes[0].id
        assert filtration_counts(tables, s2, dv(1)).get((s, s), 0) == gaussian_binomial_q(2, 1).eval_rational(p)


def test_extension_counts_a2():
    for p, expected_p in ((2, 1), (3, 2)):
        tables = TableCache(A2, p)
        s1 = tables.table(dv(1, 0)).classes[0].id
        s2 = tables.table(dv(0, 1)).classes[0].id
        ss, pp = s_classes(tables, p)
        # quotient S1, sub S2: the orbit of nonzero maps gives p-1 extensions
        assert extension_histogram(tables, s1, s2).get(pp, 0) == expected_p
        assert extension_histogram(tables, s1, s2).get(ss, 0) == 1
        assert extension_histogram(tables, s2, s1).get(pp, 0) == 0
        assert extension_histogram(tables, s2, s1).get(ss, 0) == 1


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
                    f = filtration_counts(tables, M, beta).get((N, L), 0)
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


def test_class_ids_keep_equality_hash_and_order_through_json():
    ids, reloaded = [], []
    for dim in (dv(1, 1), dv(2, 1), dv(1, 2)):
        t = classify(A2, dim, 3)
        ids += t.ids()
        reloaded += ClassificationTable.from_json(json.loads(json.dumps(t.to_json()))).ids()
    assert all(a is not b for a, b in zip(ids, reloaded))
    assert reloaded == ids
    assert [hash(c) for c in reloaded] == [hash(c) for c in ids]
    assert {c: k for k, c in enumerate(reloaded)} == {c: k for k, c in enumerate(ids)}
    # ids sort by their fields, as (dim, fingerprint, tiebreak) tuples
    by_fields = sorted(ids, key=lambda c: (c.dim, c.fingerprint, c.tiebreak))
    assert sorted(reversed(reloaded)) == sorted(ids) == by_fields


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
            if (tables.table(dv(1, 0)).class_of_index(gs.quot_index) == s1
                    and tables.table(dv(0, 1)).class_of_index(gs.sub_index) == s2):
                count += 1
        assert count == filtration_counts(tables, pp, dv(0, 1)).get((s1, s2), 0)


def test_extension_count_representative_independence():
    # fix a different orbit point of the sub class and recount by hand
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
        assert counts[0] == extension_histogram(tables, quot_t.classes[0].id, pp).get(M, 0)


# -- classification against the union-find sweep and closed counts ----------------


def _gl_generators_reference(n, p):
    """(g, g^-1) for every elementary transvection E_ij(1), i != j, and for
    diag(g, 1, ..., 1) with a primitive root g mod p found by brute force."""
    def elementary(i, j, x):
        return tuple(tuple(int(a == b) + x * ((a, b) == (i, j)) for b in range(n)) for a in range(n))

    gens = [(elementary(i, j, 1), elementary(i, j, p - 1)) for i in range(n) for j in range(n) if i != j]
    if n:
        g = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        gens.append((elementary(0, 0, g - 1), elementary(0, 0, pow(g, p - 2, p) - 1)))
    return gens


def _classify_union_find(Q, dim, p):
    """The former classify, kept as the reference: decode every point, apply
    each full-matrix generator of its own generating set with fpmat.mat_mul,
    re-encode, and union the two indices."""
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

    gens = [(v, g, ginv) for v in range(Q.n) for g, ginv in _gl_generators_reference(dim[v], p)]
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


def test_codec_weights_are_the_encodings_of_unit_points():
    cases = list(small_spaces(builtin_names(), cap=625))
    assert len(cases) > 250
    for Q, dim, p in cases:
        codec = PointCodec(Q, dim, p)
        zero = [[[0] * cols for _ in range(rows)] for rows, cols in codec.shapes]
        assert [[len(row) for row in w] for w in codec.weights] == [[c] * r for r, c in codec.shapes]
        for a, w in enumerate(codec.weights):
            for i, row in enumerate(w):
                for j, weight in enumerate(row):
                    zero[a][i][j] = 1
                    assert weight == codec.encode(zero), (Q, dim, p, a, i, j)
                    zero[a][i][j] = 0
        assert codec.size == p ** sum(r * c for r, c in codec.shapes)


def test_dimension_vector_of_the_wrong_length_is_refused():
    # (1, 1, 1) on a2 would classify a2 at (1, 1) under an id of length 3
    for dim in (dv(1, 1, 1), dv(1)):
        with pytest.raises(ValueError):
            classify(A2, dim, 3)
        with pytest.raises(ValueError):
            next(enumerate_points(A2, dim, 3))
        tables = TableCache(A2, 3)
        with pytest.raises(ValueError):
            tables.table(dim)
        assert tables._tables == {}
    data = classify(A2, dv(1, 1), 3).to_json()
    data["dim"] = [1, 1, 1]
    with pytest.raises(ValueError):
        ClassificationTable.from_json(data)


def test_rep_refuses_a_dimension_vector_of_the_wrong_length():
    # the arrow's 1 x 1 block fits the first two entries; the third vertex
    # would be ignored by hom_dimension
    for dim in (dv(1, 1, 5), dv(1)):
        with pytest.raises(ValueError, match="vertices"):
            Rep(A2, 2, dim, (((1,),),))
    assert hom_dimension(Rep(A2, 2, dv(1, 1), (((1,),),)), Rep(A2, 2, dv(1, 1), (((1,),),))) == 1


def test_rep_refuses_rows_of_unequal_length():
    # encoded, ((1, 0), (1,)) places 3 digits where 4 belong, and would be
    # read as a point of a2 at (2, 2)
    for block in (((1, 0), (1,)), ((1,), (1, 0)), ((1, 0, 0), (1, 0))):
        with pytest.raises(ValueError, match="row of length"):
            Rep(A2, 2, dv(2, 2), (block,))
    table = classify(A2, dv(2, 2), 2)
    rep = Rep(A2, 2, dv(2, 2), (((1, 0), (1, 0)),))
    assert table.iso_class_of(rep) == table.iso_class_of(Rep(A2, 2, dv(2, 2), (((0, 1), (0, 1)),)))


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


def test_primitive_roots_cover_exactly_the_supported_primes():
    assert tuple(_PRIMITIVE_ROOT) == fpmat.SUPPORTED_PRIMES
    for p, g in _PRIMITIVE_ROOT.items():
        assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1
    for bad in (1, 4, 13):
        with pytest.raises(ValueError):
            fpmat.check_prime(bad)
        with pytest.raises(ValueError):
            TableCache(A2, bad)


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


# -- stable subspaces against the Rep-building kernel ------------------------------


def _mat_vec(a, v, p):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % p for row in a)


def _reduce_by_basis(v, basis, pivots, p):
    """Reduce v against an RREF basis: (coefficients on the basis rows, v minus
    the span part). v lies in the span iff the residue is 0."""
    coords = []
    res = list(v)
    for row, c in zip(basis, pivots):
        f = res[c] % p
        coords.append(f)
        if f:
            res = [(x - f * y) % p for x, y in zip(res, row)]
    return tuple(coords), tuple(x % p for x in res)


def _subspaces(n, k, p):
    """Every k-dimensional subspace of F_p^n as its RREF basis, found by
    reducing every k x n matrix of rank k, in the `fpmat.grassmannian` order:
    pivot sets lexicographically, then the free entries row by row."""
    found = set()
    for flat in product(range(p), repeat=k * n):
        basis, pivots = fpmat.rref([flat[r * n:(r + 1) * n] for r in range(k)], p)
        if len(pivots) == k:
            found.add((pivots, basis))
    free = {piv: [(r, j) for r, c in enumerate(piv) for j in range(c + 1, n) if j not in piv]
            for piv in combinations(range(n), k)}
    return [basis for piv, basis in sorted(found, key=lambda f: (
        f[0], [f[1][r][j] for r, j in free[f[0]]]))]


def _stable_subspaces_reference(x, beta):
    """The former stable_subspaces, kept as the reference: for every product of
    per-vertex subspaces, reduce x_h w against the target basis, build the sub
    and quotient matrices and validate them as Reps. Yields (bases, sub Rep,
    quotient Rep)."""
    Q, p = x.quiver, x.p
    if not beta <= x.dim:
        return
    per_vertex = [_subspaces(x.dim[v], beta[v], p) for v in range(Q.n)]

    def pivots_of(basis, n):
        return tuple(next(j for j in range(n) if row[j]) for row in basis)

    def shaped(m, rows, cols):
        if rows == 0:
            return ()
        if cols == 0:
            return tuple(() for _ in range(rows))
        return tuple(tuple(row) for row in m)

    qdim = x.dim - beta
    for combo in product(*per_vertex):
        sub_mats, quot_mats = [], []
        for (s, t), xh in zip(Q.arrows, x.matrices):
            ws, wt = combo[s], combo[t]
            piv_t = pivots_of(wt, x.dim[t])
            sub_rows = []
            for w in ws:
                coords, res = _reduce_by_basis(_mat_vec(xh, w, p), wt, piv_t, p)
                if any(res):
                    break
                sub_rows.append(coords)
            else:
                sub_mats.append(shaped(tuple(zip(*sub_rows)), beta[t], beta[s]))
                np_t = fpmat.nonpivot_columns(x.dim[t], piv_t)
                qcols = []
                for j in fpmat.nonpivot_columns(x.dim[s], pivots_of(ws, x.dim[s])):
                    e = [int(k == j) for k in range(x.dim[s])]
                    _, res = _reduce_by_basis(_mat_vec(xh, e, p), wt, piv_t, p)
                    qcols.append(tuple(res[k] for k in np_t))
                quot_mats.append(shaped(tuple(zip(*qcols)), qdim[t], qdim[s]))
                continue
            break
        else:
            yield tuple(combo), Rep(Q, p, beta, tuple(sub_mats)), Rep(Q, p, qdim, tuple(quot_mats))


def _betas(dim):
    return [DimVector(b) for b in product(*(range(d + 1) for d in dim))]


def test_grassmannian_matches_subspaces_and_projects():
    for n, k, p in [(0, 0, 2), (1, 0, 3), (1, 1, 3), (3, 1, 2), (3, 2, 3), (4, 2, 2), (2, 3, 2)]:
        got = fpmat.grassmannian(n, k, p)
        assert [g[0] for g in got] == _subspaces(n, k, p)
        for basis, pivots, free, proj in got:
            for v in product(range(p), repeat=n):
                _, res = _reduce_by_basis(v, basis, pivots, p)
                assert tuple(res[c] for c in free) == _mat_vec(proj, v, p)


def test_stable_subspaces_match_reference_kernel():
    # every point of every small space, every beta: the same subspaces in the
    # same order, with the same quotient and sub classes
    cases = [(Q, dim, p) for Q, dim, p in small_spaces(builtin_names(), cap=64)
             if p in (2, 3) and max(dim.entries) <= 2]
    assert len(cases) > 40
    compared = 0
    for Q, dim, p in cases:
        tables = TableCache(Q, p)
        for beta in _betas(dim):
            sub_t, quot_t = tables.table(beta), tables.table(dim - beta)
            for x in enumerate_points(Q, dim, p):
                got = [(gs.bases, quot_t.class_of_index(gs.quot_index),
                        sub_t.class_of_index(gs.sub_index)) for gs in stable_subspaces(x, beta)]
                want = [(bases, quot_t.iso_class_of(quot), sub_t.iso_class_of(sub))
                        for bases, sub, quot in _stable_subspaces_reference(x, beta)]
                assert got == want, (Q, dim, beta, p, x)
                compared += len(want)
    assert compared > 5000


def test_graded_subspace_reps_encode_to_indices():
    a3 = builtin_quiver("a3")
    for Q, dim, beta, p in [(A2, dv(2, 2), dv(1, 1), 3), (KRON, dv(2, 2), dv(1, 1), 2),
                            (a3, dv(1, 2, 1), dv(0, 1, 1), 2), (SINGLE, dv(3), dv(1), 2)]:
        for x in list(enumerate_points(Q, dim, p))[::7]:
            want = list(_stable_subspaces_reference(x, beta))
            got = list(stable_subspaces(x, beta))
            assert [gs.bases for gs in got] == [w[0] for w in want]
            sub_codec, quot_codec = PointCodec(Q, beta, p), PointCodec(Q, dim - beta, p)
            for gs, (_, sub, quot) in zip(got, want):
                assert sub_codec.decode(gs.sub_index) == sub and quot_codec.decode(gs.quot_index) == quot
                assert sub_codec.encode(sub.matrices) == gs.sub_index
                assert quot_codec.encode(quot.matrices) == gs.quot_index


def test_stable_subspaces_interleaved_generators():
    # generators on different spaces, and on two points sharing one frame,
    # consumed in turns give what each gives alone
    p = 3
    frame = SubspaceFrame(A2, dv(2, 2), dv(1, 1), p)
    points = list(enumerate_points(A2, dv(2, 2), p))
    runs = [
        (points[5], dv(1, 1), frame),
        (points[40], dv(1, 1), frame),
        (points[40], dv(1, 1), None),
        (Rep(KRON, p, dv(2, 1), (((1, 0),), ((0, 1),))), dv(1, 1), None),
        (points[0], dv(1, 0), None),
    ]
    alone = [[(gs.bases, gs.sub_index, gs.quot_index) for gs in stable_subspaces(*r)] for r in runs]
    assert all(alone) and alone[1] == alone[2]
    gens = [stable_subspaces(*r) for r in runs]
    mixed = [[] for _ in runs]
    live = list(range(len(runs)))
    while live:
        for k in list(live):
            gs = next(gens[k], None)
            if gs is None:
                live.remove(k)
            else:
                mixed[k].append((gs.bases, gs.sub_index, gs.quot_index))
    assert mixed == alone


def test_stable_subspaces_of_a_quiver_without_vertices():
    Q = Quiver((), ())
    x = zero_rep(Q, dv(), 2)
    decode = PointCodec(Q, dv(), 2).decode
    got = [(gs.bases, decode(gs.sub_index), decode(gs.quot_index)) for gs in stable_subspaces(x, dv())]
    assert got == list(_stable_subspaces_reference(x, dv())) == [((), x, x)]


def test_stable_subspaces_rejects_frame_of_another_space():
    x = zero_rep(A2, dv(2, 1), 2)
    for frame in (SubspaceFrame(A2, dv(2, 1), dv(1, 0), 2), SubspaceFrame(A2, dv(2, 1), dv(1, 1), 3),
                  SubspaceFrame(KRON, dv(2, 1), dv(1, 1), 2)):
        with pytest.raises(ValueError):
            next(stable_subspaces(x, dv(1, 1), frame))


def _filtration_counts_reference(tables, M, beta):
    dim = DimVector(M.dim)
    x = tables.table(dim).info(M).representative
    sub_t, quot_t = tables.table(beta), tables.table(dim - beta)
    out = {}
    for _, sub, quot in _stable_subspaces_reference(x, beta):
        key = (quot_t.iso_class_of(quot), sub_t.iso_class_of(sub))
        out[key] = out.get(key, 0) + 1
    return out


def _stratified_pair_counts_reference(tables, alpha, beta, A, B, i, m, side):
    """The former stratified loop over the reference kernel: the stratum of
    each pair from the rank of W_i against the fixed subspace."""
    Q, p = tables.quiver, tables.p
    nu = alpha + beta
    mi = Q.unit(i).scale(m)
    if not mi <= nu:
        return {}
    rest = nu - mi
    point = tables.table(mi).classes[0].representative
    strata = {}
    for N in tables.table(rest).ids():
        z = tables.table(rest).info(N).representative
        quot, sub, dims = (point, z, (mi, rest)) if side == "sub" else (z, point, (rest, mi))
        for corners in _iter_corners(Q, *dims, p):
            x = _assemble(Q, p, quot, sub, corners)
            for bases, sub_rep, quot_rep in _stable_subspaces_reference(x, beta):
                if (tables.table(alpha).iso_class_of(quot_rep) != A
                        or tables.table(beta).iso_class_of(sub_rep) != B):
                    continue
                w = bases[i]
                lead = m if side == "sub" else nu[i] - m
                cut = len(w) - fpmat.rank([row[:lead] for row in w], p) if w else 0
                t = m - beta[i] + cut if side == "sub" else m - cut
                strata.setdefault(t, {})
                strata[t][N] = strata[t].get(N, 0) + 1
    return strata


def test_filtration_and_stratified_counts_match_reference_kernel():
    a3 = builtin_quiver("a3")
    for Q, nu, p in [(A2, dv(2, 2), 2), (A2, dv(2, 1), 3), (KRON, dv(1, 2), 2), (a3, dv(1, 2, 1), 2)]:
        tables = TableCache(Q, p)
        for beta in _betas(nu):
            for M in tables.table(nu).ids():
                assert filtration_counts(tables, M, beta) == _filtration_counts_reference(tables, M, beta)
        checked = 0
        for beta in _betas(nu):
            alpha = nu - beta
            if alpha.is_zero() or beta.is_zero():
                continue
            for i in range(Q.n):
                for m, side in product((1, 2), ("sub", "quot")):
                    pairs = stratified_pair_counts(tables, alpha, beta, i, m, side)
                    for A in tables.table(alpha).ids():
                        for B in tables.table(beta).ids():
                            ref = _stratified_pair_counts_reference(tables, alpha, beta, A, B, i, m, side)
                            got = pairs.get((A, B))
                            # a pair absent from the walk has no counts at all
                            assert got is not None or ref == {}, (Q, alpha, beta, A, B, i, m, side)
                            # the same counts, grouped by stratum in the same t and N order
                            want = tuple((t, N, c) for t, per in ref.items() for N, c in per.items())
                            assert tuple(stratum_entries(got or ())) == want, (Q, alpha, beta, i, m, side)
                            checked += bool(got)
        assert checked > 10


# -- restriction fibers against the Rep-building reference and Ext^1 cosets ---------


def _corner_shapes(Q, alpha, beta):
    return [(beta[t], alpha[s]) for s, t in Q.arrows]


def _corner_blocks(shapes, flat):
    """The corner matrices of a flat entry list, arrows in order, row-major."""
    mats, off = [], 0
    for r, c in shapes:
        mats.append(tuple(tuple(flat[off + i * c + j] for j in range(c)) for i in range(r)))
        off += r * c
    return tuple(mats)


def _iter_corners(Q, alpha, beta, p):
    shapes = _corner_shapes(Q, alpha, beta)
    for flat in product(range(p), repeat=sum(r * c for r, c in shapes)):
        yield _corner_blocks(shapes, flat)


def _assemble(Q, p, quot, sub, corners):
    """The former fiber point: the block representation on V_{alpha+beta} with
    the quotient on the leading coordinates, the sub on the trailing ones and
    the corner blocks lower left, built and validated as a Rep."""
    alpha, beta = quot.dim, sub.dim
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        zr, yr, cr = quot.matrices[a], sub.matrices[a], corners[a]
        rows = [tuple(zr[i]) + (0,) * beta[s] for i in range(alpha[t])]
        rows += [tuple(cr[i]) + tuple(yr[i]) for i in range(beta[t])]
        mats.append(tuple(rows))
    return Rep(Q, p, alpha + beta, tuple(mats))


def test_fiber_points_and_histogram_match_assembled_reference():
    # every (N, L) of every small space: the same indices in the same order as
    # encoding the assembled Reps, and the same histogram in the same key order
    pairs = 0
    for Q, nu, p in small_spaces(builtin_names(), cap=5**4):
        tables = TableCache(Q, p)
        big = tables.table(nu)
        for beta in _betas(nu):
            alpha = nu - beta
            for N in tables.table(alpha).ids():
                for L in tables.table(beta).ids():
                    z = tables.table(alpha).info(N).representative
                    y = tables.table(beta).info(L).representative
                    reps = [_assemble(Q, p, z, y, c) for c in _iter_corners(Q, alpha, beta, p)]
                    assert _fiber_points(big._codec, z, y) == [big._codec.encode(x.matrices) for x in reps]
                    want = {}
                    for x in reps:
                        M = big.iso_class_of(x)
                        want[M] = want.get(M, 0) + 1
                    assert list(extension_histogram(tables, N, L).items()) == list(want.items())
                    pairs += 1
    assert pairs > 4000


def _ext1_coset_histogram(tables, N, L):
    """e^M_{N,L} without a sweep over the fiber. Conjugating the fiber point
    with corner c by [[1, 0], [phi_v, 1]] gives corner c + delta(phi), where
    delta(phi)_h = phi_t z_h - y_h phi_s. So each coset of im delta lies in one
    class, and e^M_{N,L} is p^rank(delta) times the number of corners that
    vanish at the pivot coordinates of an RREF basis of im delta (one per
    coset) and lie in M. Returns (histogram, rank, number of cosets)."""
    Q, p = tables.quiver, tables.p
    alpha, beta = DimVector(N.dim), DimVector(L.dim)
    z = tables.table(alpha).info(N).representative
    y = tables.table(beta).info(L).representative
    big = tables.table(alpha + beta)
    coords = [(h, i, j) for h, (s, t) in enumerate(Q.arrows) for i in range(beta[t]) for j in range(alpha[s])]
    images = []
    for v in range(Q.n):
        for a, b in product(range(beta[v]), range(alpha[v])):
            row = []
            for h, i, j in coords:
                s, t = Q.arrows[h]
                x = z.matrices[h][b][j] if (t, i) == (v, a) else 0
                x -= y.matrices[h][i][a] if (s, j) == (v, b) else 0
                row.append(x % p)
            images.append(row)
    _, pivots = fpmat.rref(images, p)
    free = [k for k in range(len(coords)) if k not in pivots]
    shapes = _corner_shapes(Q, alpha, beta)
    counts = {}
    for vals in product(range(p), repeat=len(free)):
        flat = [0] * len(coords)
        for k, x in zip(free, vals):
            flat[k] = x
        M = big.iso_class_of(_assemble(Q, p, z, y, _corner_blocks(shapes, flat)))
        counts[M] = counts.get(M, 0) + p ** len(pivots)
    return counts, len(pivots), p ** len(free)


def test_extension_histogram_matches_ext1_coset_count():
    pairs = ranked = split = 0
    for Q, nu, p in small_spaces(("a2", "a3", "kronecker"), cap=5**4):
        tables = TableCache(Q, p)
        for beta in _betas(nu):
            alpha = nu - beta
            if p ** sum(n * m for n, m in _corner_shapes(Q, alpha, beta)) > 3**4:
                continue
            for N in tables.table(alpha).ids():
                for L in tables.table(beta).ids():
                    want, rank, cosets = _ext1_coset_histogram(tables, N, L)
                    assert extension_histogram(tables, N, L) == want, (Q, N, L, p)
                    pairs += 1
                    ranked += rank > 0
                    split += rank > 0 and cosets > 1
    # the oracle is not trivial: many fibers have coboundaries, some also
    # several cosets
    assert pairs > 3000 and ranked > 500 and split > 200
