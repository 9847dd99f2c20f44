"""Enumeration and classification of quiver representations over prime fields,
plus the raw counting primitives (orbits, homs, submodules, extensions) that
the algebra layer is built on.

A representation is a point of E_V(F_p), one matrix per arrow, and each
point has an index in 0..p^D-1 (`PointCodec`). Isomorphism classes are
G_V-orbits, computed exactly by a breadth-first sweep over all point indices:
each generator of G_V acts on an index through digit tables over one or two
rows of an arrow block, so no point is decoded into matrices except the class
representatives. All counts are exact integers.

Every count is one of two sweeps over point indices. A restriction fiber
(`_fiber_points`), over a fixed quotient point z and sub point y, is a base
index made of the digits of z and y plus one digit offset per corner entry;
the extension histograms read each fiber point's class from `class_of_point`,
and the stratified counts decode it for the second sweep. That one walks the
x-stable graded subspaces of a point (`stable_subspaces`) and sums the point
indices of the induced sub and quotient representations while it checks
stability, so a class is one `class_of_index` lookup. What depends only on
(quiver, dim, beta, p), the per-vertex subspace lists and digit weights, is a
`SubspaceFrame`, built once per fiber sweep.

A derivation sweeps nothing of its own: it is the restriction at a split with
one part m*e_i, so its histograms are reshapes of the extension table there.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterator

from . import fpmat
from .fpmat import Matrix, check_prime
from .quiver import SPLIT_SLOT, DimVector, Quiver, derivation_split

# smallest primitive root mod p, used to generate GL_1 and the determinant part
_PRIMITIVE_ROOT = {2: 1, 3: 2, 5: 2, 7: 3, 11: 2}

DEFAULT_POINT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured point budget."""


@dataclass(frozen=True)
class Rep:
    """A point x = (x_h) of E_V(F_p); matrices follow the quiver's arrow order,
    with x_h of shape dim[t(h)] x dim[s(h)]."""

    quiver: Quiver
    p: int
    dim: DimVector
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrows, self.matrices):
            rows = len(m)
            if rows != self.dim[t]:
                raise ValueError(f"matrix for arrow ({s},{t}) has {rows} rows, want {self.dim[t]}")
            if rows and len(m[0]) != self.dim[s]:
                raise ValueError("matrix column count mismatch")


def zero_rep(Q: Quiver, dim: DimVector, p: int) -> Rep:
    mats = tuple(fpmat.zeros(dim[t], dim[s]) for s, t in Q.arrows)
    return Rep(Q, p, dim, mats)


def simple_rep(Q: Quiver, vertex: int, p: int) -> Rep:
    return zero_rep(Q, Q.unit(vertex), p)


class PointCodec:
    """Bijection between E_V(F_p) and 0..p^D-1 via mixed-radix digits.

    Digit order: arrows in quiver order, entries row-major. The encoding is
    the enumeration order contract: deterministic and prefix-partitionable.
    """

    def __init__(self, Q: Quiver, dim: DimVector, p: int):
        self.quiver = Q
        self.dim = dim
        self.p = p
        self.shapes = tuple((dim[t], dim[s]) for s, t in Q.arrows)
        self.dim_e = sum(r * c for r, c in self.shapes)
        self.size = p**self.dim_e

    def encode(self, matrices: tuple[Matrix, ...]) -> int:
        p = self.p
        idx = 0
        mult = 1
        for m in matrices:
            for row in m:
                for x in row:
                    idx += (x % p) * mult
                    mult *= p
        return idx

    def decode(self, idx: int) -> Rep:
        p = self.p
        mats = []
        for rows, cols in self.shapes:
            m = []
            for _ in range(rows):
                row = []
                for _ in range(cols):
                    idx, d = divmod(idx, p)
                    row.append(d)
                m.append(tuple(row))
            mats.append(tuple(m))
        return Rep(self.quiver, p, self.dim, tuple(mats))


def enumerate_points(
    Q: Quiver, dim: DimVector, p: int, budget: int = DEFAULT_POINT_BUDGET
) -> Iterator[Rep]:
    """Every point of E_V(F_p) exactly once, in codec order."""
    check_prime(p)
    codec = PointCodec(Q, dim, p)
    if codec.size > budget:
        raise BudgetExceededError(
            f"enumerating E_V(F_{p}) at dim {dim} requires {codec.size} points, budget is {budget}"
        )
    for idx in range(codec.size):
        yield codec.decode(idx)


def group_order(Q: Quiver, dim: DimVector, p: int) -> int:
    """|G_V| = prod_i |GL_{dim_i}(F_p)|."""
    out = 1
    for n in dim:
        for k in range(n):
            out *= p**n - p**k
    return out


# -- hom spaces ---------------------------------------------------------------


def _intertwiner_system(x: Rep, y: Rep) -> tuple[list[list[int]], int]:
    """Linear system for graded maps f with f_{t(h)} x_h = y_h f_{s(h)}.

    Unknowns are the entries of all f_v (shape dim_y[v] x dim_x[v]), row-major,
    vertex blocks in vertex order. Returns (rows, unknown_count).
    """
    if x.quiver != y.quiver or x.p != y.p:
        raise ValueError("hom requires same quiver and prime")
    Q, p = x.quiver, x.p
    offs = []
    u = 0
    for v in range(Q.n):
        offs.append(u)
        u += y.dim[v] * x.dim[v]
    rows: list[list[int]] = []
    for (s, t), xh, yh in zip(Q.arrows, x.matrices, y.matrices):
        for i in range(y.dim[t]):
            for j in range(x.dim[s]):
                row = [0] * u
                # (f_t x_h)[i][j]
                for k in range(x.dim[t]):
                    row[offs[t] + i * x.dim[t] + k] = (row[offs[t] + i * x.dim[t] + k] + xh[k][j]) % p
                # -(y_h f_s)[i][j]
                for k in range(y.dim[s]):
                    row[offs[s] + k * x.dim[s] + j] = (row[offs[s] + k * x.dim[s] + j] - yh[i][k]) % p
                if any(row):
                    rows.append(row)
    return rows, u


def hom_dimension(x: Rep, y: Rep) -> int:
    rows, u = _intertwiner_system(x, y)
    if u == 0:
        return 0
    return u - fpmat.rank(rows, x.p)


# -- classification ------------------------------------------------------------


@dataclass(frozen=True, order=True)
class IsoClassId:
    """Deterministic label: dimension vector, hom fingerprint, tiebreak index.

    The fingerprint is (dim End, hom(x, S_v) for each vertex, hom(S_v, x) for
    each vertex). Equality of labels coincides with isomorphism inside a fixed
    table because classes are exact orbits; the fingerprint exists for cross
    run and cross prime identification.
    """

    dim: tuple[int, ...]
    fingerprint: tuple[int, ...]
    tiebreak: int

    def __post_init__(self):
        # ids key every count table and Hall element, so hash once
        object.__setattr__(self, "_hash", hash((self.dim, self.fingerprint, self.tiebreak)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        f = ".".join(str(k) for k in self.fingerprint)
        return f"[{','.join(str(d) for d in self.dim)}|{f}|{self.tiebreak}]"


@dataclass(frozen=True)
class ClassInfo:
    id: IsoClassId
    representative: Rep
    orbit_size: int
    aut_count: int


class ClassificationTable:
    """G_V-orbit decomposition of E_V(F_p) for one (quiver, dim, p)."""

    def __init__(
        self,
        Q: Quiver,
        dim: DimVector,
        p: int,
        classes: list[ClassInfo],
        class_of_point: list[int],
    ):
        self.quiver = Q
        self.dim = dim
        self.p = p
        self.classes = classes
        self._class_of_point = class_of_point
        self._codec = PointCodec(Q, dim, p)
        self._index = {c.id: k for k, c in enumerate(classes)}
        total = sum(c.orbit_size for c in classes)
        if total != self._codec.size:
            raise AssertionError("orbit equation violated: sum of orbit sizes != p^dim E_V")
        g = group_order(Q, dim, p)
        for c in classes:
            if c.orbit_size * c.aut_count != g:
                raise AssertionError("orbit-stabilizer violated for a class")

    def __len__(self) -> int:
        return len(self.classes)

    def ids(self) -> list[IsoClassId]:
        return [c.id for c in self.classes]

    def index_of(self, cid: IsoClassId) -> int:
        try:
            return self._index[cid]
        except KeyError:
            raise KeyError(f"unknown isomorphism class {cid}") from None

    def info(self, cid: IsoClassId) -> ClassInfo:
        return self.classes[self.index_of(cid)]

    def label(self, cid: IsoClassId) -> str:
        """CLI-facing name dim:index, index in table order."""
        return f"{self.dim.to_csv()}:{self.index_of(cid)}"

    def class_of_index(self, point_index: int) -> IsoClassId:
        return self.classes[self._class_of_point[point_index]].id

    def iso_class_of(self, x: Rep) -> IsoClassId:
        if x.quiver != self.quiver or x.p != self.p or x.dim != self.dim:
            raise ValueError("representation does not match table context")
        return self.class_of_index(self._codec.encode(x.matrices))

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_text(),
            "quiver_hash": quiver_hash(self.quiver),
            "p": self.p,
            "dim": list(self.dim.entries),
            "classes": [
                {
                    "id": _id_json(c.id),
                    "representative": [
                        [x for row in m for x in row] for m in c.representative.matrices
                    ],
                    "orbit_size": c.orbit_size,
                    "aut_count": c.aut_count,
                }
                for c in self.classes
            ],
            "class_of_point": list(self._class_of_point),
        }

    @staticmethod
    def from_json(data: dict) -> "ClassificationTable":
        """Rebuild a table written by `to_json`. Anything that a fresh
        classification could not have produced raises ValueError: wrong types
        of p or dim, a representative of the wrong shape, with entries
        outside F_p or not the minimal point of its class, counts that are
        not ints, class ids or a class order other than the ones `classify`
        derives from the representatives, and a point -> class list that
        disagrees with the classes."""
        Q = Quiver.from_text(data["quiver"])
        p = data["p"]
        if type(p) is not int:
            raise ValueError(f"p must be an int, got {p!r}")
        check_prime(p)
        dim = DimVector(tuple(_json_ints(data["dim"], Q.n, None, "dim")))
        codec = PointCodec(Q, dim, p)
        reps = []
        for c in data["classes"]:
            flats = c["representative"]
            if not isinstance(flats, list) or len(flats) != len(Q.arrows):
                raise ValueError(f"representative needs one block per arrow, got {flats!r}")
            mats = []
            for (rows, cols), flat in zip(codec.shapes, flats):
                flat = _json_ints(flat, rows * cols, p, "representative block")
                mats.append(tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))
            reps.append(Rep(Q, p, dim, tuple(mats)))
        simples = [simple_rep(Q, v, p) for v in range(Q.n)]
        keys = [(_fingerprint(rep, simples), codec.encode(rep.matrices)) for rep in reps]
        ids = _class_ids(dim, keys)
        if [k for k, _ in ids] != list(range(len(reps))):
            raise ValueError("classes are not in classification order")
        classes = []
        for (_, cid), rep, c in zip(ids, reps, data["classes"]):
            if c["id"] != _id_json(cid):
                raise ValueError(f"class id {c['id']!r} does not match its representative, {cid}")
            counts = [c["orbit_size"], c["aut_count"]]
            if any(type(x) is not int for x in counts):
                raise ValueError(f"orbit and aut counts must be ints, got {counts!r}")
            classes.append(ClassInfo(cid, rep, *counts))
        class_of_point = list(data["class_of_point"])
        _check_class_of_point(class_of_point, classes, codec)
        try:
            return ClassificationTable(Q, dim, p, classes, class_of_point)
        except AssertionError as e:
            raise ValueError(str(e)) from None


def _id_json(cid: IsoClassId) -> dict:
    return {"dim": list(cid.dim), "fingerprint": list(cid.fingerprint), "tiebreak": cid.tiebreak}


def _fingerprint(rep: Rep, simples: list[Rep]) -> tuple[int, ...]:
    """(dim End, hom(x, S_v) for each vertex, hom(S_v, x) for each vertex)."""
    return (
        hom_dimension(rep, rep),
        *(hom_dimension(rep, s) for s in simples),
        *(hom_dimension(s, rep) for s in simples),
    )


def _class_ids(
    dim: DimVector, keys: list[tuple[tuple[int, ...], int]]
) -> list[tuple[int, IsoClassId]]:
    """Class ids as `classify` assigns them. `keys` holds one (fingerprint,
    minimal point) per class; classes are ordered by it, and the tiebreak
    counts the classes before them with the same fingerprint. Returns
    (index into keys, id) in class order."""
    tiebreaks: dict[tuple, int] = {}
    out = []
    for k in sorted(range(len(keys)), key=keys.__getitem__):
        fp = keys[k][0]
        out.append((k, IsoClassId(dim.entries, fp, tiebreaks.get(fp, 0))))
        tiebreaks[fp] = tiebreaks.get(fp, 0) + 1
    return out


def _json_ints(value, length: int, below: int | None, what: str) -> list[int]:
    """`value` as a list of `length` ints in range(below) (or >= 0 when
    below is None); ValueError otherwise."""
    if (
        not isinstance(value, list)
        or len(value) != length
        or any(type(x) is not int or x < 0 or (below is not None and x >= below) for x in value)
    ):
        bound = f"range({below})" if below is not None else "nonnegative"
        raise ValueError(f"{what} must be {length} ints, {bound}; got {value!r}")
    return value


def _check_class_of_point(class_of_point: list, classes: list[ClassInfo], codec: PointCodec) -> None:
    """Reject a point -> class list that cannot belong to these classes: wrong
    length, an index out of range, per-class counts differing from the orbit
    sizes, or a class whose first point is not its representative. Such a
    list would give wrong iso_class_of answers."""
    size = codec.size
    if len(class_of_point) != size:
        raise ValueError(f"class_of_point has {len(class_of_point)} entries, expected {size}")
    counts = Counter(class_of_point)
    bad = [k for k in counts if type(k) is not int or not 0 <= k < len(classes)]
    if bad:
        raise ValueError(f"class_of_point holds invalid class indices {bad[:5]!r}")
    # later keys overwrite earlier ones, so a reversed walk keeps each minimum
    first = dict(zip(reversed(class_of_point), range(size - 1, -1, -1)))
    for k, c in enumerate(classes):
        if counts.get(k, 0) != c.orbit_size:
            raise ValueError(
                f"class {k} covers {counts.get(k, 0)} points but its orbit size is {c.orbit_size}"
            )
        if first.get(k) != codec.encode(c.representative.matrices):
            raise ValueError(f"representative of class {k} is not its minimal point {first.get(k)}")


def quiver_hash(Q: Quiver) -> str:
    return hashlib.sha256(Q.to_text().encode()).hexdigest()[:16]


def _gl_generators(n: int, p: int) -> list[tuple[Matrix, Matrix]]:
    """Generating set of GL_n(F_p) as (g, g^{-1}) pairs: adjacent transvections
    plus one diagonal with a primitive root (transvections alone give SL_n)."""
    gens: list[tuple[Matrix, Matrix]] = []
    if n == 0:
        return gens
    g = _PRIMITIVE_ROOT[p]
    if g != 1:
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            d[i][i] = 1
        d[0][0] = g
        dm = tuple(tuple(r) for r in d)
        gens.append((dm, fpmat.mat_inv(dm, p)))
    for k in range(n - 1):
        for (i, j) in ((k, k + 1), (k + 1, k)):
            e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            e[i][j] = 1
            em = tuple(tuple(r) for r in e)
            gens.append((em, fpmat.mat_inv(em, p)))
    return gens


def _window_table(block: Matrix, rows: int, cols: int, p: int, left: bool) -> list[int]:
    """Digit-delta table of one row move: entry k is encode(image) - k, where
    k is a run of `rows` rows of `cols` digits (row-major, little-endian) and
    the image is block * rows (left) or rows * block (right)."""
    width = rows * cols
    table = []
    for k in range(p**width):
        digits = [k // p**i % p for i in range(width)]
        m = tuple(tuple(digits[r * cols:(r + 1) * cols]) for r in range(rows))
        img = fpmat.mat_mul(block, m, p) if left else fpmat.mat_mul(m, block, p)
        table.append(sum(x * p**i for i, x in enumerate(x for row in img for x in row)) - k)
    return table


def _mixed_rows(g: Matrix) -> tuple[int, int]:
    """Smallest window lo..hi-1 outside which g is the identity."""
    off = [k for i, row in enumerate(g) for j, x in enumerate(row) if x != (i == j) for k in (i, j)]
    return min(off), max(off) + 1


def _generator_moves(codec: PointCodec) -> list[list[tuple[int, int, list[int]]]]:
    """Each generator of G_V as a list of row moves (mult, mod, shifted).

    A move reads the run x // mult % mod of the point index x, one or two rows
    of one arrow block, and adds shifted[run], the run's digit delta times
    mult. The generator sends x to x plus the sum of its moves, all read from
    x. Left actions g.x_h read only the rows g mixes and right actions
    x_h g^-1 one row at a time, so no table spans a whole arrow block.
    """
    Q, dim, p = codec.quiver, codec.dim, codec.p
    deltas: dict[tuple, list[int]] = {}

    def move(block: Matrix, rows: int, cols: int, left: bool, mult: int) -> tuple:
        key = (block, rows, cols, left)
        if key not in deltas:
            deltas[key] = _window_table(block, rows, cols, p, left)
        return mult, p ** (rows * cols), [d * mult for d in deltas[key]]

    out = []
    for v in range(Q.n):
        for g, ginv in _gl_generators(dim[v], p):
            lo, hi = _mixed_rows(g)
            block = tuple(row[lo:hi] for row in g[lo:hi])
            moves = []
            base = 1  # p^(digit offset of the arrow block)
            for (s, t), (rows, cols) in zip(Q.arrows, codec.shapes):
                if cols and t == v:
                    moves.append(move(block, hi - lo, cols, True, base * p ** (lo * cols)))
                elif cols and s == v:
                    moves.extend(move(ginv, 1, cols, False, base * p ** (r * cols)) for r in range(rows))
                base *= p ** (rows * cols)
            if moves:
                out.append(moves)
    return out


def classify(
    Q: Quiver, dim: DimVector, p: int, budget: int = DEFAULT_POINT_BUDGET
) -> ClassificationTable:
    """Partition E_V(F_p) into G_V-orbits.

    Generators of G_V act on point indices through digit tables (see
    `_generator_moves`). Orbits are swept breadth-first in index order, so
    each orbit is entered at its minimal point, which is the representative.
    Only representatives are decoded, for their fingerprints. Aut counts come
    from orbit-stabilizer (|G_V| / orbit size, exact divisibility asserted).
    """
    check_prime(p)
    codec = PointCodec(Q, dim, p)
    n_pts = codec.size
    if n_pts > budget:
        raise BudgetExceededError(
            f"classification at dim {dim}, p={p} requires {n_pts} points, budget is {budget}"
        )

    gens = _generator_moves(codec)
    orbit_of = [-1] * n_pts
    starts: list[int] = []
    sizes: list[int] = []
    for start in range(n_pts):
        if orbit_of[start] >= 0:
            continue
        o = len(starts)
        orbit_of[start] = o
        queue = [start]
        # generators alone suffice: in a finite group each inverse is a power
        for x in queue:
            for moves in gens:
                y = x
                for mult, mod, shifted in moves:
                    y += shifted[x // mult % mod]
                if orbit_of[y] < 0:
                    orbit_of[y] = o
                    queue.append(y)
        starts.append(start)
        sizes.append(len(queue))

    g_order = group_order(Q, dim, p)
    simples = [simple_rep(Q, v, p) for v in range(Q.n)]
    reps = [codec.decode(start) for start in starts]
    keys = [(_fingerprint(rep, simples), start) for rep, start in zip(reps, starts)]
    classes = []
    class_of_orbit = [0] * len(starts)
    for ci, (o, cid) in enumerate(_class_ids(dim, keys)):
        orbit = sizes[o]
        if g_order % orbit:
            raise AssertionError("orbit size does not divide group order")
        classes.append(ClassInfo(cid, reps[o], orbit, g_order // orbit))
        class_of_orbit[o] = ci

    class_of_point = [class_of_orbit[o] for o in orbit_of]
    return ClassificationTable(Q, dim, p, classes, class_of_point)


def iso_class_of(table: ClassificationTable, x: Rep) -> IsoClassId:
    return table.iso_class_of(x)


class TableCache:
    """Memoized classification tables for one (quiver, p), shared by all counts."""

    def __init__(self, Q: Quiver, p: int, budget: int = DEFAULT_POINT_BUDGET,
                 loader: Callable[[DimVector], ClassificationTable | None] | None = None,
                 saver: Callable[[ClassificationTable], None] | None = None):
        check_prime(p)
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.quiver = Q
        self.p = p
        self.budget = budget
        self._tables: dict[tuple[int, ...], ClassificationTable] = {}
        self._loader = loader
        self._saver = saver

    def table(self, dim: DimVector) -> ClassificationTable:
        key = dim.entries
        t = self._tables.get(key)
        if t is None:
            if self._loader is not None:
                t = self._loader(dim)
            if t is None:
                t = classify(self.quiver, dim, self.p, self.budget)
                if self._saver is not None:
                    self._saver(t)
            self._tables[key] = t
        return t


# -- graded subspaces and submodule counting -----------------------------------


class SubspaceFrame:
    """The part of `stable_subspaces` that depends on (quiver, dim, beta, p)
    but not on the point: per vertex, the subspaces of dimension beta_v, and
    per arrow the digit weights of its sub and quotient blocks.

    Each subspace is a tuple (k, basis, pivots, non-pivots, projection), with
    k its place in the `fpmat.grassmannian` list and the rest as there. A
    fiber sweep builds one frame and passes it with every point of the fiber,
    so these lists are built once per sweep.
    """

    def __init__(self, Q: Quiver, dim: DimVector, beta: DimVector, p: int):
        self.key = (Q, dim, beta, p)
        quot = dim - beta
        grassmannians: dict[tuple[int, int], list] = {}
        self.subspaces = []
        for n, k in zip(dim, beta):
            if (n, k) not in grassmannians:
                grassmannians[n, k] = [(j, *w) for j, w in enumerate(fpmat.grassmannian(n, k, p))]
            self.subspaces.append(grassmannians[n, k])
        # each arrow is checked once the later of its two ends is chosen; its
        # weights are p^digit of its sub and quotient blocks, one tuple per column
        self.arrows_at: list[list[tuple]] = [[] for _ in range(Q.n)]
        sub_base = quot_base = 1
        for a, (s, t) in enumerate(Q.arrows):
            sub_w = _block_weights(sub_base, beta[t], beta[s], p)
            quot_w = _block_weights(quot_base, quot[t], quot[s], p)
            self.arrows_at[max(s, t)].append((a, s, t, sub_w, quot_w))
            sub_base *= p ** (beta[t] * beta[s])
            quot_base *= p ** (quot[t] * quot[s])


def _block_weights(base: int, rows: int, cols: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Weight of entry (i, j) of a row-major block whose first digit weighs
    `base`, as one tuple over i per column j."""
    return tuple(tuple(base * p ** (i * cols + j) for i in range(rows)) for j in range(cols))


@dataclass(frozen=True)
class GradedSubspace:
    """An x-stable I-graded subspace W with the point indices of the induced
    sub and quotient representations.

    `bases` holds one RREF row basis per vertex. The sub matrix of an arrow
    is written in the basis rows of W; the quotient coordinates are the
    non-pivot standard vectors in increasing order. `sub_index` and
    `quot_index` are the `PointCodec` indices of those points at beta and at
    dim - beta, so a class is `ClassificationTable.class_of_index(index)`;
    `sub_rep` and `quot_rep` decode them.
    """

    bases: tuple[Matrix, ...]
    sub_index: int
    quot_index: int
    frame: SubspaceFrame = field(compare=False, repr=False)

    @property
    def sub_rep(self) -> Rep:
        Q, _, beta, p = self.frame.key
        return PointCodec(Q, beta, p).decode(self.sub_index)

    @property
    def quot_rep(self) -> Rep:
        Q, dim, beta, p = self.frame.key
        return PointCodec(Q, dim - beta, p).decode(self.quot_index)


def stable_subspaces(
    x: Rep, beta: DimVector, frame: SubspaceFrame | None = None
) -> Iterator[GradedSubspace]:
    """All x-stable graded subspaces of dimension vector beta, each once, in
    the order of the product of the per-vertex `fpmat.grassmannian` lists.

    Vertices are chosen depth first in vertex order, and each arrow is
    checked as soon as both of its ends are chosen, so an unstable prefix is
    never extended. The check sums the sub and quotient point indices as it
    goes. The images x_h w of a source subspace's basis rows and the columns
    of x_h at its non-pivots are computed once per arrow and subspace.
    `frame` must be built for (x.quiver, x.dim, beta, x.p); without one a
    fresh frame is built.
    """
    if not beta <= x.dim:
        return
    p = x.p
    if frame is None:
        frame = SubspaceFrame(x.quiver, x.dim, beta, p)
    elif frame.key != (x.quiver, x.dim, beta, p):
        raise ValueError("subspace frame was built for another space")
    subspaces, arrows_at = frame.subspaces, frame.arrows_at
    n = len(subspaces)
    if n == 0:  # a quiver without vertices: the zero space is its own subspace
        yield GradedSubspace((), 0, 0, frame)
        return
    mats = x.matrices
    columns: list[list] = [[None] * len(subspaces[s]) for s, _ in x.quiver.arrows]
    picks: list = [None] * n
    sums = [(0, 0)] * n  # index sums of the arrows checked below each vertex
    # one subspace iterator per chosen vertex; going deeper leaves the loop
    # over vertex v, which resumes where it stopped once v + 1 is exhausted
    stack = [iter(subspaces[0])]
    while stack:
        v = len(stack) - 1
        for w in stack[v]:
            picks[v] = w
            si, qi = sums[v]
            for a, s, t, sub_w, quot_w in arrows_at[v]:
                k = picks[s][0]
                cols = columns[a][k]
                if cols is None:
                    cols = columns[a][k] = _arrow_columns(mats[a], picks[s], p)
                digits = _arrow_digits(cols, picks[t], sub_w, quot_w, p)
                if digits is None:
                    break
                si += digits[0]
                qi += digits[1]
            else:
                if v + 1 < n:
                    sums[v + 1] = (si, qi)
                    stack.append(iter(subspaces[v + 1]))
                    break
                yield GradedSubspace(tuple(u[1] for u in picks), si, qi, frame)
        else:
            stack.pop()


def _arrow_columns(xh: Matrix, source: tuple, p: int) -> tuple[Matrix, Matrix]:
    """(x_h w for each basis row w of the source subspace, the columns of x_h
    at its non-pivots)."""
    _, basis, _, free, _ = source
    return (
        tuple(tuple(sum(map(mul, row, w)) % p for row in xh) for w in basis),
        tuple(tuple(row[c] for row in xh) for c in free),
    )


def _arrow_digits(
    cols: tuple[Matrix, Matrix], target: tuple, sub_w: tuple, quot_w: tuple, p: int
) -> tuple[int, int] | None:
    """The sub and quotient index parts of one arrow, or None when x_h maps
    the source subspace outside the target. An image's sub coordinates are its
    pivot entries; a quotient entry is the projection of a column of x_h."""
    images, qcols = cols
    _, _, pivots, _, proj = target
    sub = 0
    for img, weights in zip(images, sub_w):
        for row in proj:
            if sum(map(mul, row, img)) % p:
                return None
        for c, wt in zip(pivots, weights):
            sub += img[c] * wt
    quot = 0
    for col, weights in zip(qcols, quot_w):
        for row, wt in zip(proj, weights):
            quot += sum(map(mul, row, col)) % p * wt
    return sub, quot


def filtration_counts(
    tables: TableCache, M: IsoClassId, beta: DimVector, frame: SubspaceFrame | None = None
) -> dict[tuple[IsoClassId, IsoClassId], int]:
    """For the representative of M, count stable subspaces of dimension beta
    bucketed by (quotient class, sub class). A caller counting several classes
    of one dimension vector may pass one `SubspaceFrame` for all of them."""
    dim = DimVector(M.dim)
    big = tables.table(dim)
    x = big.info(M).representative
    sub_t = tables.table(beta)
    quot_t = tables.table(dim - beta)
    out: dict[tuple[IsoClassId, IsoClassId], int] = {}
    for gs in stable_subspaces(x, beta, frame):
        key = (quot_t.class_of_index(gs.quot_index), sub_t.class_of_index(gs.sub_index))
        out[key] = out.get(key, 0) + 1
    return out


# -- extension counting (restriction fibers) ------------------------------------


def _fiber_points(codec: PointCodec, z: Rep, y: Rep) -> list[int]:
    """Point indices of the fixed-subspace fiber over quotient point z and sub
    point y, in the space of `codec` at dim z + dim y.

    A fiber point is the block representation [[z_h, 0], [c_h, y_h]], with
    the quotient on the leading coordinates and the sub on the trailing ones.
    Its index is a base index, the digits of z and y, plus one digit offset
    per corner entry. The corner entries (arrows in quiver order, row-major)
    run over F_p in `itertools.product` order, the last entry fastest.
    """
    p, alpha, beta = codec.p, z.dim, y.dim
    base = 0
    weights = []  # p^digit of each corner entry, in corner order
    block = 1  # p^(digit offset of the arrow block)
    for (s, t), zh, yh in zip(codec.quiver.arrows, z.matrices, y.matrices):
        cols = alpha[s] + beta[s]
        for i, row in enumerate(zh):
            base += sum(d * block * p ** (i * cols + j) for j, d in enumerate(row))
        for i, row in enumerate(yh):
            first = block * p ** ((alpha[t] + i) * cols)
            weights.extend(first * p**j for j in range(alpha[s]))
            base += sum(d * first * p ** (alpha[s] + j) for j, d in enumerate(row))
        block *= p ** ((alpha[t] + beta[t]) * cols)
    points = [base]
    for w in weights:
        offsets = [d * w for d in range(p)]
        points = [x + o for x in points for o in offsets]
    return points


def extension_histogram(
    tables: TableCache, N: IsoClassId, L: IsoClassId
) -> dict[IsoClassId, int]:
    """All extension counts with quotient point rep(N) and sub point rep(L):
    the map M -> e^M_{N,L} obtained from one sweep over the fiber points,
    each read through `class_of_point`. Classes appear in the order the
    sweep first meets them."""
    alpha, beta = DimVector(N.dim), DimVector(L.dim)
    z = tables.table(alpha).info(N).representative
    y = tables.table(beta).info(L).representative
    big = tables.table(alpha + beta)
    counts = Counter(map(big._class_of_point.__getitem__, _fiber_points(big._codec, z, y)))
    return {big.classes[k].id: c for k, c in counts.items()}


# -- derivations as slices of restriction ---------------------------------------


def derive_sub_histogram(extension: dict) -> dict[tuple[IsoClassId, IsoClassId], int]:
    """(M, N) -> e^M_{point,N} from the extension table (quotient, sub) ->
    {M: count} at the split (m*e_i, rest). The quotient slot always holds the
    one class of the one-point space at m*e_i, so the sub slot N keys alone."""
    return {(M, N): c for (_, N), hist in extension.items() for M, c in hist.items()}


def derive_quot_histogram(extension: dict) -> dict[tuple[IsoClassId, IsoClassId], int]:
    """(M, N) -> e^M_{N,point} from the extension table at the split
    (rest, m*e_i), keyed by the quotient slot N."""
    return {(M, N): c for (N, _), hist in extension.items() for M, c in hist.items()}


def stratified_pair_counts(
    tables: TableCache,
    alpha: DimVector,
    beta: DimVector,
    A: IsoClassId,
    B: IsoClassId,
    i: int,
    m: int,
    side: str,
) -> dict[int, dict[IsoClassId, int]]:
    """Per-stratum fiber counts for the derivation of an induction product.

    Pairs (x, W) are counted where x runs over the fixed-subspace fiber of the
    derivation at the product grading, W over x-stable subspaces of dimension
    beta with quotient in A and sub in B. The fiber lies over the points of
    the `derivation_split` of alpha + beta: the one point at m*e_i and rep(N)
    for each class N of the rest; strata[t][N] counts the pairs over rep(N).

    A pair's stratum t comes from k = dim(W_i meet the fixed sub block at
    vertex i), the block of coordinates from split[0]_i on. W_i is held as an
    RREF basis, so k is the number of its rows whose leading 1 lies in that
    block: t = m - beta_i + k for side "sub" (quotient at m*e_i) and t = m - k
    for "quot", the mirror.
    """
    split = derivation_split(tables.quiver, alpha + beta, i, m, side)
    if split is None:
        return {}
    Q, p = tables.quiver, tables.p
    slot = SPLIT_SLOT[side]
    a_t, b_t = tables.table(alpha), tables.table(beta)
    # quivers have no loops, so the space at m*e_i is one point
    point = tables.table(split[1 - slot]).classes[0].representative
    rest_t = tables.table(split[slot])
    frame = SubspaceFrame(Q, alpha + beta, beta, p)
    codec = PointCodec(Q, alpha + beta, p)
    cut = split[0][i]
    strata: dict[int, dict[IsoClassId, int]] = {}
    for N in rest_t.ids():
        ends = [point, point]  # the (quotient, sub) points the fiber lies over
        ends[slot] = rest_t.info(N).representative
        for idx in _fiber_points(codec, *ends):
            for gs in stable_subspaces(codec.decode(idx), beta, frame):
                if a_t.class_of_index(gs.quot_index) != A or b_t.class_of_index(gs.sub_index) != B:
                    continue
                k = sum(row.index(1) >= cut for row in gs.bases[i])
                t = m - beta[i] + k if side == "sub" else m - k
                per_class = strata.setdefault(t, {})
                per_class[N] = per_class.get(N, 0) + 1
    return strata
