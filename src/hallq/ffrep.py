"""Enumeration and classification of quiver representations over prime fields,
plus the raw counting primitives (orbits, homs, submodules, extensions) that
the algebra layer is built on.

A representation is a point of E_V(F_p), one matrix per arrow, and each
point has an index in 0..p^D-1. The sweeps read digit places from
`PointCodec.weights`; `encode` and the codec's row tables spell out the same
layout in faster loops of their own. Isomorphism classes are G_V-orbits,
computed exactly by a breadth-first sweep over all point indices: each
generator of GL_n acts on an index through digit-delta tables, three whole
matrices at a vertex whose arrow blocks are small and windows of one or two
coordinates elsewhere (`_generator_moves`), so no point is decoded into
matrices except the class representatives. All counts are exact integers.

Every count is one of two sweeps over point indices. A restriction fiber
(`_fiber_points`), over a fixed quotient point z and sub point y, is a base
index made of the digits of z and y plus one digit offset per corner entry;
the extension histograms read each fiber point's class from `class_of_point`,
and the stratified counts pass its matrices to the second sweep, for every
class pair of the split at once. That one walks the x-stable graded
subspaces of a point (`stable_subspaces`) and sums the point indices of the
induced sub and quotient representations while it checks stability, so a
class is one `class_of_point` read. Every sweep counts class indices and
makes the `IsoClassId`s of each key once, when it returns. What depends only
on (quiver, dim, beta, p), the per-vertex subspace lists and codec columns,
is a `SubspaceFrame`; a `HallModel` keeps one per (dim, beta) for its memo's
lifetime, and `stable_subspaces` builds one for a caller without a model.

A derivation sweeps nothing of its own: it is the restriction at a split with
one part m*e_i, so its histograms are reshapes of the extension table there.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import getitem, mul
from typing import Callable, Iterator

from . import fpmat
from .fpmat import Matrix, check_prime
from .quiver import SPLIT_SLOT, DimVector, Quiver, derivation_split

# smallest primitive root mod p, used to generate GL_1 and the determinant part
_PRIMITIVE_ROOT = {2: 1, 3: 2, 5: 2, 7: 3, 11: 2}

DEFAULT_POINT_BUDGET = 10**6

# a `PointCodec` row table lists at most this many times p rows
ROW_TABLE_BOUND = 1024


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
        dim = self.dim.entries
        if len(dim) != self.quiver.n:
            raise ValueError(f"dimension vector {self.dim} has {len(dim)} entries, "
                             f"the quiver has {self.quiver.n} vertices")
        if len(self.matrices) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrows, self.matrices):
            if len(m) != dim[t]:
                raise ValueError(f"matrix for arrow ({s},{t}) has {len(m)} rows, want {dim[t]}")
            for row in m:
                if len(row) != dim[s]:
                    raise ValueError(f"matrix for arrow ({s},{t}) has a row of length {len(row)}, "
                                     f"want {dim[s]}")


def zero_rep(Q: Quiver, dim: DimVector, p: int) -> Rep:
    mats = tuple(fpmat.zeros(dim[t], dim[s]) for s, t in Q.arrows)
    return Rep(Q, p, dim, mats)


def simple_rep(Q: Quiver, vertex: int, p: int) -> Rep:
    return zero_rep(Q, Q.unit(vertex), p)


class PointCodec:
    """Bijection between E_V(F_p) and 0..p^D-1 via mixed-radix digits.

    Digit order: arrows in quiver order, entries row-major, little-endian base
    p; the enumeration order contract. `weights[a][i][j]` is p to the power of
    the digit position of entry (i, j) of arrow a's block; the sweeps over
    point indices read their digit places from it.

    `matrices` reads each row of a block as one digit run: one divmod by
    p^width, then an index into a row table, which lists every row tuple of
    that width in digit order. The codec builds each table on first use, once
    per distinct width, so equal rows of all the points it decodes are one
    tuple. A table holds at most `ROW_TABLE_BOUND` * p rows; a longer row is
    read as several runs and joined.

    `columns` is `weights` by column: per arrow, one tuple of the weights of
    each column of its block, a column even with no rows. It too is built on
    first use.
    """

    def __init__(self, Q: Quiver, dim: DimVector, p: int):
        if len(dim) != Q.n:
            raise ValueError(f"dimension vector {dim} has {len(dim)} entries, the quiver has {Q.n} vertices")
        self.quiver = Q
        self.dim = dim
        self.p = p
        self.shapes = tuple((dim[t], dim[s]) for s, t in Q.arrows)
        weights, w = [], 1
        for rows, cols in self.shapes:
            weights.append(tuple(tuple(w * p ** (i * cols + j) for j in range(cols)) for i in range(rows)))
            w *= p ** (rows * cols)
        self.weights, self.size = tuple(weights), w
        self._row_runs: tuple | None = None
        self._columns: tuple | None = None

    def encode(self, matrices: tuple[Matrix, ...]) -> int:
        # a sum over `weights` measured 2.2x slower (kronecker (2,3), p = 3)
        p = self.p
        idx = 0
        mult = 1
        for m in matrices:
            for row in m:
                for x in row:
                    idx += (x % p) * mult
                    mult *= p
        return idx

    def _runs(self) -> tuple:
        """Per block (rows, runs), each run a (p^width, row table) pair, with
        one table per distinct width for all blocks; a block with no rows
        builds no table."""
        p = self.p
        longest = 1
        while p ** (longest + 1) <= ROW_TABLE_BOUND * p:
            longest += 1
        tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        blocks = []
        for rows, cols in self.shapes:
            runs = []
            if rows:
                for start in range(0, cols, longest):
                    width = min(longest, cols - start)
                    if width not in tables:
                        tables[width] = tuple(digits[::-1] for digits in product(range(p), repeat=width))
                    runs.append((p**width, tables[width]))
            blocks.append((rows, tuple(runs)))
        self._row_runs = tuple(blocks)
        return self._row_runs

    def matrices(self, idx: int) -> tuple[Matrix, ...]:
        """The arrow matrices of point idx, without building a `Rep`."""
        blocks = self._row_runs
        if blocks is None:
            blocks = self._runs()
        mats = []
        for rows, runs in blocks:
            m = []
            if len(runs) == 1:
                # the usual row, one run: the join loop below reads it too,
                # but costs classify_scan about 3.5 % of run_s (BENCH_24.json)
                (radix, table), = runs
                for _ in range(rows):
                    idx, d = divmod(idx, radix)
                    m.append(table[d])
            else:
                for _ in range(rows):
                    row = ()
                    for radix, table in runs:
                        idx, d = divmod(idx, radix)
                        row += table[d]
                    m.append(row)
            mats.append(tuple(m))
        return tuple(mats)

    def decode(self, idx: int) -> Rep:
        return Rep(self.quiver, self.p, self.dim, self.matrices(idx))

    @property
    def columns(self) -> tuple:
        if self._columns is None:
            self._columns = tuple(tuple(tuple(row[j] for row in w) for j in range(cols))
                                  for (_, cols), w in zip(self.shapes, self.weights))
        return self._columns


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
    """G_V-orbit decomposition of E_V(F_p) for one (quiver, dim, p), with the
    `PointCodec` it was classified with."""

    def __init__(self, codec: PointCodec, classes: list[ClassInfo], class_of_point: list[int]):
        self.codec = codec
        self.quiver, self.dim, self.p = codec.quiver, codec.dim, codec.p
        self.classes = classes
        self._class_of_point = class_of_point
        self._index = {c.id: k for k, c in enumerate(classes)}
        total = sum(c.orbit_size for c in classes)
        if total != codec.size:
            raise AssertionError("orbit equation violated: sum of orbit sizes != p^dim E_V")
        g = group_order(self.quiver, self.dim, self.p)
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
        return self.class_of_index(self.codec.encode(x.matrices))

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_text(),
            "quiver_hash": quiver_hash(self.quiver),
            "p": self.p,
            "dim": list(self.dim.entries),
            "classes": [
                {
                    "id": _id_json(c.id),
                    "representative": flat_blocks(c.representative),
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
        derives from the representatives, a point -> class list that
        disagrees with the classes, and a quiver, class list, class entry or
        point -> class list that is missing or of the wrong JSON type."""
        if not isinstance(data, dict):
            raise ValueError(f"a table must be a JSON object, got {type(data).__name__}")
        expected = {"quiver": str, "classes": list, "class_of_point": list}
        bad = [k for k, t in expected.items() if not isinstance(data.get(k), t)]
        if bad or not all(isinstance(c, dict) for c in data["classes"]):
            raise ValueError(f"missing or of the wrong JSON type: {bad or 'a class entry'}")
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
            return ClassificationTable(codec, classes, class_of_point)
        except AssertionError as e:
            raise ValueError(str(e)) from None


def flat_blocks(rep: Rep) -> list[list[int]]:
    """rep as one flat row-major block per arrow, as classify JSON and cache files hold it."""
    return [[x for row in m for x in row] for m in rep.matrices]


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
    try:
        counts = Counter(class_of_point)
    except TypeError:  # a JSON list or object entry
        raise ValueError("class_of_point holds an unhashable entry") from None
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


def _gl_generators(n: int, p: int) -> list[tuple[int, Matrix, Matrix]]:
    """Generating set of GL_n(F_p) as windows (lo, block, inverse block), each
    the identity outside the w x w block at rows and columns lo..lo+w-1: adjacent
    transvections plus one diagonal with a primitive root (transvections alone give SL_n)."""
    gens: list[tuple[int, Matrix, Matrix]] = []
    if n == 0:
        return gens
    g = _PRIMITIVE_ROOT[p]
    if g != 1:
        gens.append((0, ((g,),), ((pow(g, -1, p),),)))
    for k in range(n - 1):
        gens.append((k, ((1, 1), (0, 1)), ((1, p - 1), (0, 1))))
        gens.append((k, ((1, 0), (1, 1)), ((1, 0), (p - 1, 1))))
    return gens


def _gl_whole_generators(n: int, p: int) -> list[tuple[int, Matrix, Matrix]]:
    """Three whole-matrix generators of GL_n(F_p), as windows (0, g, g^-1) of
    width n: diag(r, 1, ..., 1) with the primitive root r (none at p = 2,
    where r = 1), t = I + E_01, and the signed n-cycle c, with c e_i = e_{i+1}
    for i < n - 1 and c e_{n-1} = (-1)^(n-1) e_0, of determinant 1, whose
    inverse is its transpose (t and c only for n >= 2).

    They generate GL_n(F_p). Conjugating t by powers of c gives I +- E_{k,k+1}
    for every k mod n, and for distinct i, j, k the commutator of I + E_ij
    and I + E_jk is I + E_ik, so every elementary matrix I + E_ij lies in
    <t, c>, which is therefore SL_n(Z). Reduction mod p maps SL_n(Z) onto
    SL_n(F_p), and the diagonal, of determinant r, adds the rest of GL_n(F_p).
    """
    def elementary(i: int, j: int, x: int) -> Matrix:  # I + x E_ij
        return tuple(tuple(int(a == b) + x * ((a, b) == (i, j)) for b in range(n)) for a in range(n))

    gens: list[tuple[int, Matrix, Matrix]] = []
    r = _PRIMITIVE_ROOT[p]
    if n and r != 1:
        gens.append((0, elementary(0, 0, r - 1), elementary(0, 0, pow(r, -1, p) - 1)))
    if n >= 2:
        sign = 1 if n % 2 else p - 1
        cycle = tuple(tuple(sign if (i, j) == (0, n - 1) else int(i == j + 1) for j in range(n))
                      for i in range(n))
        gens.append((0, elementary(0, 1, 1), elementary(0, 1, p - 1)))
        gens.append((0, cycle, tuple(zip(*cycle))))
    return gens


def _whole_blocks(codec: PointCodec, v: int) -> bool:
    """Whether vertex v acts through whole-block tables: each arrow block at v
    has a table of at most `ROW_TABLE_BOUND` * p entries, and of at most an
    eighth as many as the space has points, so the tables cost little beside
    the sweep. Otherwise v keeps the windows of `_gl_generators`."""
    p = codec.p
    for (s, t), (rows, cols) in zip(codec.quiver.arrows, codec.shapes):
        if v in (s, t) and rows * cols:
            entries = p ** (rows * cols)
            if entries > ROW_TABLE_BOUND * p or 8 * entries > codec.size:
                return False
    return True


def _window_table(block: Matrix, rows: int, cols: int, p: int, left: bool, mult: int) -> list[int]:
    """Digit-delta table of one move: entry k is (encode(image) - k) * mult,
    where k is a run of `rows` rows of `cols` digits (row-major,
    little-endian) and the image is block * rows (left) or rows * block (right).

    A left move maps each column of the run on its own, a right move each
    row, and these parts hold disjoint digits, so an entry is the sum of its
    parts' deltas. One pass over the parts' values fills the table, reading
    each part's index and delta from lists of p^length entries."""
    n, count = (rows, cols) if left else (cols, rows)
    step, stride = (cols, 1) if left else (1, cols)  # digit places within a part, between parts
    factor = tuple(zip(*block)) if left else block  # a part e maps to e * factor
    places = [p ** (i * step) for i in range(n)]
    place, delta = [], []
    for digits in product(range(p), repeat=n):
        e = digits[::-1]
        place.append(sum(map(mul, e, places)))
        image = fpmat.mat_mul((e,), factor, p)[0]
        delta.append(sum((y - x) * w for y, x, w in zip(image, e, places)))
    scales = [p ** (j * stride) for j in range(count)]
    part_places = [[x * c for x in place] for c in scales]
    part_deltas = [[d * c * mult for d in delta] for c in scales]
    table = [0] * p ** (rows * cols)
    for parts in product(range(p**n), repeat=count):
        table[sum(map(getitem, part_places, parts))] = sum(map(getitem, part_deltas, parts))
    return table


def _generator_moves(codec: PointCodec) -> list[list[tuple[int, int, list[int]]]]:
    """Each generator of G_V as a list of moves (mult, mod, shifted).

    A move reads the run x // mult % mod of the point index x and adds
    shifted[run], the run's digit delta times mult; the generator sends x to
    x plus the sum of its moves, all read from x. A vertex v that passes
    `_whole_blocks` takes the three generators of `_gl_whole_generators`,
    each applied through one table per arrow block: g.x_h when v is the
    block's target, x_h g^-1 when it is its source, both read at the block's
    lowest place. Any other vertex takes the windows of `_gl_generators`: for
    a window lo..lo+w-1, g.x_h mixes rows lo..lo+w-1 of x_h, the run at
    `codec.weights[a][lo][0]`, and x_h g^-1 mixes w entries of each row r,
    the run at `codec.weights[a][r][lo]`, so no table spans a whole block.
    """
    Q, dim, p = codec.quiver, codec.dim, codec.p

    def move(block: Matrix, rows: int, cols: int, left: bool, mult: int) -> tuple:
        return mult, p ** (rows * cols), _window_table(block, rows, cols, p, left, mult)

    out = []
    for v in range(Q.n):
        whole = _whole_blocks(codec, v)
        for lo, block, inverse in (_gl_whole_generators if whole else _gl_generators)(dim[v], p):
            w = len(block)
            moves = []
            for (s, t), (rows, cols), weights in zip(Q.arrows, codec.shapes, codec.weights):
                if not rows * cols:
                    continue
                if t == v:
                    moves.append(move(block, w, cols, True, weights[lo][0]))
                elif s == v and whole:
                    moves.append(move(inverse, rows, w, False, weights[0][0]))
                elif s == v:
                    moves.extend(move(inverse, 1, w, False, row[lo]) for row in weights)
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
    A dim whose length is not the quiver's vertex count raises ValueError.
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
    return ClassificationTable(codec, classes, class_of_point)


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
    but not on the point: per vertex, the subspaces of dimension beta_v, per
    arrow the `PointCodec.columns` of its sub and quotient blocks, and the
    codec of the full space at dim.

    Each subspace is a tuple (k, basis, pivots, non-pivots, projection) of
    the `fpmat.grassmannian` list. `grassmannian(n, k)` gives that list and
    `codec(d)` the codec at a dimension vector d, whose quiver and prime are
    the frame's; both are called only here. A `HallModel` keeps one frame per
    (dim, beta), and one list per (n, k) and one codec per d for all its
    frames, in its memo, so these are built once per model until it is
    released; `stable_subspaces` builds a frame for a caller without one.
    """

    __slots__ = ("key", "subspaces", "arrows_at", "codec")

    def __init__(self, dim: DimVector, beta: DimVector, grassmannian: Callable[[int, int], list],
                 codec: Callable[[DimVector], PointCodec]):
        self.codec = codec(dim)
        Q = self.codec.quiver
        self.key = (Q, dim, beta, self.codec.p)
        self.subspaces = [grassmannian(n, k) for n, k in zip(dim, beta)]
        # each arrow is checked once the later of its two ends is chosen, with
        # its weights at beta and dim - beta
        sub_c, quot_c = codec(beta).columns, codec(dim - beta).columns
        self.arrows_at = tuple(tuple((a, s, t, sub_c[a], quot_c[a]) for a, (s, t) in enumerate(Q.arrows)
                                     if max(s, t) == v) for v in range(Q.n))


def stable_subspaces(
    x: Rep, beta: DimVector, frame: SubspaceFrame | None = None
) -> Iterator[tuple[tuple[Matrix, ...], int, int]]:
    """All x-stable graded subspaces W of dimension vector beta, each once, in
    the order of the product of the per-vertex `fpmat.grassmannian` lists, as
    (bases, sub index, quotient index).

    `bases` holds one RREF row basis of W per vertex. The sub matrix of an
    arrow is written in the basis rows of W; the quotient coordinates are the
    non-pivot standard vectors in increasing order. The indices are the
    `PointCodec` indices of those points at beta and at dim - beta.

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
    Q, p = x.quiver, x.p
    if frame is None:
        frame = SubspaceFrame(x.dim, beta, lambda n, k: fpmat.grassmannian(n, k, p),
                              lambda d: PointCodec(Q, d, p))
    elif frame.key != (Q, x.dim, beta, p):
        raise ValueError("subspace frame was built for another space")
    for picks, si, qi in _stable_walk(x.matrices, frame):
        yield tuple(u[1] for u in picks), si, qi


def _stable_walk(mats: tuple[Matrix, ...], frame: SubspaceFrame) -> Iterator[tuple[list, int, int]]:
    """The walk of `stable_subspaces` over the arrow matrices of one point of
    the frame's space: yields (picks, sub index, quotient index), where picks
    holds the chosen subspace tuple of each vertex. picks is one list, changed
    in place as the walk goes on, so a caller reads it before the next step."""
    Q, _, _, p = frame.key
    subspaces, arrows_at = frame.subspaces, frame.arrows_at
    n = len(subspaces)
    if n == 0:  # a quiver without vertices: the zero space is its own subspace
        yield [], 0, 0
        return
    columns: list[list] = [[None] * len(subspaces[s]) for s, _ in Q.arrows]
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
                yield picks, si, qi
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
    tables: TableCache, M: IsoClassId, beta: DimVector, frame: SubspaceFrame
) -> dict[tuple[IsoClassId, IsoClassId], int]:
    """For the representative of M, count stable subspaces of dimension beta
    bucketed by (quotient class, sub class), walking `frame`, the
    `SubspaceFrame` at (M.dim, beta). Keys appear in the order the walk first
    meets them."""
    dim = DimVector(M.dim)
    x = tables.table(dim).info(M).representative
    sub_t, quot_t = tables.table(beta), tables.table(dim - beta)
    sub_of, quot_of = sub_t._class_of_point, quot_t._class_of_point
    counts = Counter((quot_of[qi], sub_of[si]) for _, si, qi in stable_subspaces(x, beta, frame))
    return {(quot_t.classes[q].id, sub_t.classes[s].id): c for (q, s), c in counts.items()}


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
    p, alpha = codec.p, z.dim
    base = 0
    corners = []  # place value of each corner entry, in corner order
    for (s, t), zh, yh, w in zip(codec.quiver.arrows, z.matrices, y.matrices, codec.weights):
        for i, row in enumerate(zh):
            base += sum(map(mul, row, w[i]))
        for i, row in enumerate(yh):
            places = w[alpha[t] + i]
            corners.extend(places[:alpha[s]])
            base += sum(map(mul, row, places[alpha[s]:]))
    points = [base]
    for w in corners:
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
    counts = Counter(map(big._class_of_point.__getitem__, _fiber_points(big.codec, z, y)))
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
    tables: TableCache, alpha: DimVector, beta: DimVector, i: int, m: int, side: str,
    frame: SubspaceFrame,
) -> dict[tuple[IsoClassId, IsoClassId], tuple]:
    """Per-stratum fiber counts for the derivation of an induction product,
    for every class pair at once: (A, B) -> (t, N, count, t, N, count, ...),
    one flat tuple of entries per pair, read back by `stratum_entries`.

    Pairs (x, W) are counted where x runs over the fixed-subspace fiber of the
    derivation at the product grading, W over x-stable subspaces of dimension
    beta, with quotient class A at alpha and sub class B at beta. The fiber
    lies over the points of the `derivation_split` of alpha + beta: the one
    point at m*e_i and rep(N) for each class N of the rest. An entry (t, N,
    count) counts the (x, W) of one class pair over rep(N) in stratum t; a
    pair that no (x, W) reaches is absent. A pair's entries are grouped by t
    in the order its walk first meets each stratum, and by N in class order
    within a stratum, as a walk for that pair alone would meet them.

    The walk does not depend on (A, B), so one walk fills every pair, and
    each fiber point's matrices go to the stable-subspace walk without a
    `Rep`. A pair's stratum t comes from k = dim(W_i meet the fixed sub block
    at vertex i), the block of coordinates from split[0]_i on. W_i is held as
    an RREF basis, so k is the number of its pivots in that block: t = m -
    beta_i + k for side "sub" (quotient at m*e_i) and t = m - k for "quot",
    the mirror.

    `frame` must be built for (quiver, alpha + beta, beta, p).
    """
    Q, p = tables.quiver, tables.p
    nu = alpha + beta
    split = derivation_split(Q, nu, i, m, side)
    if split is None:
        return {}
    if frame.key != (Q, nu, beta, p):
        raise ValueError("subspace frame was built for another space")
    slot = SPLIT_SLOT[side]
    a_t, b_t = tables.table(alpha), tables.table(beta)
    # quivers have no loops, so the space at m*e_i is one point
    point = tables.table(split[1 - slot]).classes[0].representative
    rest_t = tables.table(split[slot])
    codec = frame.codec
    cut = split[0][i]
    # a subspace's stratum depends on its choice at vertex i alone: k counts
    # that choice's pivots in the fixed sub block
    ks = (sum(c >= cut for c in w[2]) for w in frame.subspaces[i])
    stratum = [m - beta[i] + k if side == "sub" else m - k for k in ks]
    a_of, b_of = a_t._class_of_point, b_t._class_of_point
    counts: dict[tuple[int, int, int, int], int] = {}  # (A, B, t, N) as class indices
    for n, rest in enumerate(rest_t.classes):
        ends = [point, point]  # the (quotient, sub) points the fiber lies over
        ends[slot] = rest.representative
        for idx in _fiber_points(codec, *ends):
            for picks, si, qi in _stable_walk(codec.matrices(idx), frame):
                key = (a_of[qi], b_of[si], stratum[picks[i][0]], n)
                counts[key] = counts.get(key, 0) + 1
    by_pair: dict[tuple[int, int], dict[int, list]] = {}
    for (a, b, t, n), c in counts.items():
        by_pair.setdefault((a, b), {}).setdefault(t, []).extend((t, rest_t.classes[n].id, c))
    # flat, not one tuple per entry: a `HallModel` keeps these for its
    # lifetime, and the entry tuples cost about 1 MB of peak RSS in a count sweep
    return {(a_t.classes[a].id, b_t.classes[b].id): tuple(x for per_t in strata.values() for x in per_t)
            for (a, b), strata in by_pair.items()}


def stratum_entries(flat: tuple) -> Iterator[tuple[int, IsoClassId, int]]:
    """The (t, N, count) entries of one pair's flat tuple from `stratified_pair_counts`."""
    it = iter(flat)
    return zip(it, it, it)
