"""The twisted Hall algebra on isomorphism classes: basis vectors u_M, the
induction product, restriction, derivation operators, constant classes, and the
geometric pairing.

Coefficients stay formal Laurent polynomials in v throughout; identity checks
specialize both sides at a chosen square-root convention afterwards. Twist
exponents follow the shift conventions of the derived-category operators, with
the induction exponent equal to the induction_twist form and restriction and
derivation exponents equal to minus the relevant Euler forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter

from . import ffrep, fpmat
from .ffrep import ClassificationTable, IsoClassId, TableCache
from .laurent import LaurentPoly, Scalar, add_scaled
from .quiver import SPLIT_SLOT, DimVector, Quiver, derivation_split, euler_form, induction_twist


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot use {type(x)} as a coefficient")


class _Terms:
    """What Hall, tensor and free elements share: a tuple of (key, coefficient)
    terms, nonzero and sorted by key."""

    @staticmethod
    def _canonical(coeffs: dict) -> tuple:
        """The terms of a key -> coefficient dict: nonzero coefficients, sorted by key."""
        return tuple(sorted((kv for kv in coeffs.items() if kv[1]), key=itemgetter(0)))

    def coeffs(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, s):
        """The element times s, a LaurentPoly, int or Fraction."""
        sp = _as_poly(s)
        return replace(self, terms=self._canonical({k: sp * c for k, c in self.terms}))

    def __sub__(self, other):
        return self + other.scale(-1)


@dataclass(frozen=True)
class HallElement(_Terms):
    """Finitely supported combination of basis classes u_M at one grading.

    `dim` is None only for the zero element produced by an out-of-range
    operator; such zeros absorb additions and map to zero under everything.
    """

    quiver: Quiver
    p: int
    dim: DimVector | None
    terms: tuple[tuple[IsoClassId, LaurentPoly], ...]

    @staticmethod
    def make(quiver: Quiver, p: int, dim: DimVector | None, coeffs: dict[IsoClassId, LaurentPoly]) -> "HallElement":
        if any(c and (dim is None or M.dim != dim.entries) for M, c in coeffs.items()):
            raise ValueError("class grading does not match element grading")
        return HallElement._of(quiver, p, dim, coeffs)

    @staticmethod
    def _of(quiver: Quiver, p: int, dim: DimVector | None, coeffs: dict[IsoClassId, LaurentPoly]) -> "HallElement":
        """`make` without its grading check, for classes known to lie at dim."""
        return HallElement(quiver, p, dim, HallElement._canonical(coeffs))

    @staticmethod
    def zero(quiver: Quiver, p: int, dim: DimVector | None = None) -> "HallElement":
        return HallElement(quiver, p, dim, ())

    def __add__(self, other: "HallElement") -> "HallElement":
        if self.quiver != other.quiver or self.p != other.p:
            raise ValueError("elements over different contexts")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.dim != other.dim:
            raise ValueError("cannot add elements of different gradings")
        c = self.coeffs()
        for M, x in other.terms:
            c[M] = c.get(M, LaurentPoly.zero()) + x
        return HallElement._of(self.quiver, self.p, self.dim, c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HallElement):
            return NotImplemented
        if self.quiver != other.quiver or self.p != other.p:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.dim == other.dim and self.terms == other.terms


@dataclass(frozen=True)
class TensorElement(_Terms):
    """Element of the tensor square, graded by an ordered pair of dims."""

    quiver: Quiver
    p: int
    dims: tuple[DimVector, DimVector] | None
    terms: tuple[tuple[tuple[IsoClassId, IsoClassId], LaurentPoly], ...]

    @staticmethod
    def make(quiver, p, dims, coeffs: dict[tuple[IsoClassId, IsoClassId], LaurentPoly]) -> "TensorElement":
        return TensorElement(quiver, p, dims, TensorElement._canonical(coeffs))

    @staticmethod
    def zero(quiver, p, dims=None) -> "TensorElement":
        return TensorElement(quiver, p, dims, ())


class HallModel:
    """A space's classification tables plus one memo of everything derived
    from them: the filtration, extension and stratified count tables (each
    filled for every class pair of its key by one sweep), the subspace
    frames those sweeps walk (one `ffrep.SubspaceFrame` per (dim, beta), its
    lists one per (n, k), its codecs with their columns one per dim), the
    unit classes, the operator values on unit classes (Res u_A per (class,
    split), u_A * u_B per pair, derive(u_A, i, t) per (class, i, t, side)),
    the monomials c v^e those values share, and the gradings and splits.
    `release` empties that memo once a run is done with the space; the model
    stays usable and rebuilds on demand."""

    def __init__(self, quiver: Quiver, p: int, budget: int = ffrep.DEFAULT_POINT_BUDGET,
                 tables: TableCache | None = None):
        self.quiver = quiver
        self.p = p
        self.tables = tables if tables is not None else TableCache(quiver, p, budget)
        # Tuple keys start with their kind ("filt", "ext", "strat", "frame",
        # "grass", "codec", "v", "grading", "split") or with the operator
        # whose value they hold, so kinds that share a key shape never
        # collide; a unit class is keyed by its id.
        self.memo: dict = {}

    def release(self) -> None:
        """Empty the memo; what it held is rebuilt on demand."""
        self.memo.clear()

    def _memo(self, key, compute, *args):
        """The memo's value at `key`, stored from `compute(*args)` on a miss."""
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = compute(*args)
        return got

    def table(self, dim: DimVector) -> ClassificationTable:
        return self.tables.table(dim)

    def monomial(self, exp: int, coeff: int) -> LaurentPoly:
        """coeff * v^exp, one value per (exp, coeff): a LaurentPoly is
        immutable, so the operator values on unit classes share it."""
        key = ("v", exp, coeff)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = LaurentPoly.v(exp, coeff)
        return got

    def grading(self, alpha: DimVector, beta: DimVector) -> tuple[DimVector, int, int]:
        """(alpha + beta, induction_twist, euler_form) at (alpha, beta)."""
        key = ("grading", alpha.entries, beta.entries)
        got = self.memo.get(key)
        if got is None:
            Q = self.quiver
            got = self.memo[key] = (alpha + beta, induction_twist(Q, alpha, beta), euler_form(Q, alpha, beta))
        return got

    def split(self, dim: DimVector, i: int, m: int, side: str) -> tuple[DimVector, DimVector] | None:
        """`derivation_split` of dim; its parts are their tables' dims, not new vectors."""
        key = ("split", dim.entries, i, m, side)
        if key not in self.memo:
            split = derivation_split(self.quiver, dim, i, m, side)
            self.memo[key] = split and tuple(self.table(d).dim for d in split)
        return self.memo[key]

    # -- count tables -------------------------------------------------------

    def filtration_table(self, alpha: DimVector, beta: DimVector) -> dict:
        """(N, L) -> {M: F^M_{N,L}} for N at alpha (quotient), L at beta (sub)."""
        return self._memo(("filt", alpha.entries, beta.entries), self._filtration_sweep, alpha, beta)

    def _filtration_sweep(self, alpha: DimVector, beta: DimVector) -> dict:
        got: dict = {}
        nu = self.grading(alpha, beta)[0]
        frame = self.frame(nu, beta)
        for M in self.table(nu).ids():
            for (N, L), c in ffrep.filtration_counts(self.tables, M, beta, frame).items():
                got.setdefault((N, L), {})[M] = c
        return got

    def extension_table(self, alpha: DimVector, beta: DimVector) -> dict:
        """(N, L) -> {M: e^M_{N,L}} for the split quotient alpha / sub beta."""
        return self._memo(("ext", alpha.entries, beta.entries), self._extension_sweep, alpha, beta)

    def _extension_sweep(self, alpha: DimVector, beta: DimVector) -> dict:
        return {(N, L): ffrep.extension_histogram(self.tables, N, L)
                for N in self.table(alpha).ids() for L in self.table(beta).ids()}

    def stratified_table(self, alpha: DimVector, beta: DimVector, i: int, m: int, side: str) -> dict:
        """(A, B) -> (t, N, count, ...) for the stratified derivation at
        vertex i, multiplicity m and side of u_A * u_B, A at alpha and B at
        beta: `ffrep.stratified_pair_counts`, one fiber walk for every pair."""
        return self._memo(("strat", alpha.entries, beta.entries, i, m, side),
                          self._stratified_sweep, alpha, beta, i, m, side)

    def _stratified_sweep(self, alpha: DimVector, beta: DimVector, i: int, m: int, side: str) -> dict:
        nu = self.grading(alpha, beta)[0]
        # a grading without this split walks nothing, so it needs no frame
        if self.split(nu, i, m, side) is None:
            return {}
        return ffrep.stratified_pair_counts(self.tables, alpha, beta, i, m, side, self.frame(nu, beta))

    # -- subspace frames ------------------------------------------------------

    def frame(self, dim: DimVector, beta: DimVector) -> ffrep.SubspaceFrame:
        """The `ffrep.SubspaceFrame` of the subspaces of dimension beta at
        dim, its lists and codecs read from `grassmannian` and `codec`."""
        return self._memo(("frame", dim.entries, beta.entries), ffrep.SubspaceFrame,
                          dim, beta, self.grassmannian, self.codec)

    def codec(self, dim: DimVector) -> ffrep.PointCodec:
        """`ffrep.PointCodec` at dim, one per dim, so the frames that read it
        share its row tables and columns."""
        return self._memo(("codec", dim.entries), ffrep.PointCodec, self.quiver, dim, self.p)

    def grassmannian(self, n: int, k: int) -> list:
        """`fpmat.grassmannian(n, k, p)`, one list per (n, k)."""
        return self._memo(("grass", n, k), fpmat.grassmannian, n, k, self.p)

    def derive_sub_table(self, alpha: DimVector, i: int, m: int) -> dict:
        """(M, N) -> count for derive_sub at alpha, vertex i, multiplicity m: the extension
        table at its derivation split keyed by the sub slot; empty when m exceeds alpha_i."""
        split = self.split(alpha, i, m, "sub")
        return {} if split is None else ffrep.derive_sub_histogram(self.extension_table(*split))

    def derive_quot_table(self, alpha: DimVector, i: int, m: int) -> dict:
        """(M, N) -> count for derive_quot: the extension table at its
        derivation split keyed by the quotient slot."""
        split = self.split(alpha, i, m, "quot")
        return {} if split is None else ffrep.derive_quot_histogram(self.extension_table(*split))

    # -- operator values on unit classes --------------------------------------
    # The operators are module names looked up on each call, so a re-bound
    # operator is the one that runs; it is part of the memo key, so a value of
    # an operator no longer bound is never returned.

    def unit_restriction(self, A: IsoClassId, split: tuple[DimVector, DimVector]) -> TensorElement:
        """Res u_A at `split`."""
        key = (geometric_restriction, A, split[0].entries, split[1].entries)
        return self._memo(key, _on_units, self, key[0], (A,), split)

    def unit_product(self, A: IsoClassId, B: IsoClassId) -> HallElement:
        """u_A * u_B under the geometric twist."""
        key = (geometric_induction, A, B)
        return self._memo(key, _on_units, self, key[0], (A, B))

    def unit_derived(self, A: IsoClassId, i: int, t: int, side: str) -> HallElement:
        """derive(u_A, i, t) on `side`."""
        key = (derivation(side), A, i, t)
        return self._memo(key, _on_units, self, key[0], (A,), i, t)

    # -- basis helpers ------------------------------------------------------

    def class_by_label(self, label: str) -> IsoClassId:
        """Resolve a `dim:index` name against the classification order."""
        dim_part, _, idx_part = label.rpartition(":")
        t = self.table(DimVector.from_csv(dim_part, self.quiver.n))
        k = int(idx_part)
        if not (0 <= k < len(t)):
            raise KeyError(f"class index {k} out of range at dim {t.dim}")
        return t.classes[k].id

    def simple_class(self, vertex: int) -> IsoClassId:
        return self.table(self.quiver.unit(vertex)).classes[0].id


def unit_class(model: HallModel, M: IsoClassId) -> HallElement:
    got = model.memo.get(M)
    if got is None:
        table = model.table(DimVector(M.dim))
        table.index_of(M)  # raises on unknown id
        got = model.memo[M] = HallElement._of(model.quiver, model.p, table.dim, {M: LaurentPoly.one()})
    return got


def _on_units(model: HallModel, op, classes: tuple[IsoClassId, ...], *args):
    """`op` on the unit classes of `classes`, then `args`."""
    return op(model, *[unit_class(model, C) for C in classes], *args)


def constant_class(model: HallModel, i: int, m: int) -> HallElement:
    """u on the one-point space at dimension m*e_i; m = 0 is the unit."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    dim = model.quiver.unit(i).scale(m)
    return unit_class(model, model.table(dim).classes[0].id)


def unit_element(model: HallModel) -> HallElement:
    return unit_class(model, model.table(model.quiver.zero_dim()).classes[0].id)


def geometric_induction(model: HallModel, f: HallElement, g: HallElement) -> HallElement:
    """u_N * u_L = v^{m_{alpha,beta}} sum_M F^M_{N,L} u_M, extended bilinearly."""
    if f.quiver != g.quiver or f.p != g.p:
        raise ValueError("operands over different contexts")
    if f.is_zero() or g.is_zero():
        return HallElement.zero(model.quiver, model.p)
    table = model.filtration_table(f.dim, g.dim)
    nu, tw, _ = model.grading(f.dim, g.dim)
    if len(f.terms) == len(g.terms) == 1:
        (N, cf), (L, cg) = f.terms[0], g.terms[0]
        if cf.is_one() and cg.is_one():
            # u_N * u_L: one monomial per class, straight from the histogram
            hist = table.get((N, L), {})
            return HallElement._of(model.quiver, model.p, nu,
                                   {M: model.monomial(tw, count) for M, count in hist.items()})
    acc: dict[IsoClassId, dict[int, Scalar]] = {}
    for N, cf in f.terms:
        for L, cg in g.terms:
            hist = table.get((N, L))
            if not hist:
                continue
            c = cf * cg
            for M, count in hist.items():
                add_scaled(acc.setdefault(M, {}), c, count, tw)
    return HallElement._of(model.quiver, model.p, nu, {M: LaurentPoly(d) for M, d in acc.items()})


def ringel_product(model: HallModel, f: HallElement, g: HallElement) -> HallElement:
    """Classical twist variant: exponent <alpha,beta> instead of m_{alpha,beta},
    so the geometric product times v^{<alpha,beta> - m_{alpha,beta}}."""
    prod = geometric_induction(model, f, g)
    if prod.is_zero():
        return prod
    _, tw, euler = model.grading(f.dim, g.dim)
    return prod.scale(model.monomial(euler - tw, 1))


def geometric_restriction(model: HallModel, f: HallElement, split: tuple[DimVector, DimVector]) -> TensorElement:
    """Res(u_M) = v^{-<alpha,beta>} sum e^M_{N,L} u_N (x) u_L at the given split
    (alpha the quotient slot, beta the sub slot)."""
    alpha, beta = split
    if f.is_zero():
        return TensorElement.zero(model.quiver, model.p)
    if alpha + beta != f.dim:
        raise ValueError("split does not sum to the element grading")
    return TensorElement.make(model.quiver, model.p, split, _restriction_coeffs(model, f, alpha, beta))


def _restriction_coeffs(model: HallModel, f: HallElement, alpha: DimVector, beta: DimVector) -> dict:
    """(N, L) -> coefficient of u_N (x) u_L in Res f at (alpha, beta), unsorted."""
    tw = -model.grading(alpha, beta)[2]
    table = model.extension_table(alpha, beta)
    if len(f.terms) == 1 and f.terms[0][1].is_one():
        # Res u_M: one monomial per pair, straight from the histograms
        M = f.terms[0][0]
        return {NL: model.monomial(tw, c) for NL, hist in table.items() if (c := hist.get(M))}
    acc: dict[tuple[IsoClassId, IsoClassId], dict[int, Scalar]] = {}
    for M, cf in f.terms:
        for NL, hist in table.items():
            c = hist.get(M)
            if c:
                add_scaled(acc.setdefault(NL, {}), cf, c, tw)
    return {NL: LaurentPoly(d) for NL, d in acc.items()}


def _derive(model: HallModel, f: HallElement, i: int, m: int, side: str) -> HallElement:
    """Res f at its `derivation_split`, keyed by the rest slot: the m*e_i slot
    holds the one class of a one-point space (quivers have no loops), and the
    twist -<quotient, sub> is the derivation twist. Zero if f cannot drop by m*e_i."""
    Q = model.quiver
    # validates m and the vertex, also for a zero f
    split = model.split(Q.zero_dim() if f.dim is None else f.dim, i, m, side)
    if f.is_zero() or m == 0:
        return f
    if split is None:
        return HallElement.zero(Q, model.p)
    slot = SPLIT_SLOT[side]
    res = _restriction_coeffs(model, f, *split)
    return HallElement._of(Q, model.p, split[slot], {NL[slot]: c for NL, c in res.items()})


def derive_sub(model: HallModel, f: HallElement, i: int, m: int) -> HallElement:
    """Derivation with quotient m*e_i; zero (not an error) if f cannot drop by m*e_i."""
    return _derive(model, f, i, m, "sub")


def derive_quot(model: HallModel, f: HallElement, i: int, m: int) -> HallElement:
    """Mirror derivation with sub concentrated at vertex i with multiplicity m."""
    return _derive(model, f, i, m, "quot")


def derivation(side: str):
    """derive_sub for side "sub", derive_quot for "quot", looked up when called."""
    return derive_sub if side == "sub" else derive_quot


def _stratified(model: HallModel, A: IsoClassId, B: IsoClassId, i: int, m: int, side: str) -> dict[int, HallElement]:
    """Stratum t -> its piece, read from the model's stratified table and built
    afresh on every call. An unknown id raises KeyError, one of another vertex count ValueError."""
    alpha, beta = unit_class(model, A).dim, unit_class(model, B).dim
    nu, tw, _ = model.grading(alpha, beta)
    split = model.split(nu, i, m, side)
    if split is None:
        return {}
    exp = tw - model.grading(*split)[2]
    entries = model.stratified_table(alpha, beta, i, m, side).get((A, B), ())
    per_t: dict[int, dict[IsoClassId, LaurentPoly]] = {}
    for t, N, c in ffrep.stratum_entries(entries):
        per_t.setdefault(t, {})[N] = model.monomial(exp, c)
    return {t: HallElement._of(model.quiver, model.p, split[SPLIT_SLOT[side]], coeffs)
            for t, coeffs in per_t.items()}


def stratified_derive_sub(model: HallModel, A: IsoClassId, B: IsoClassId, i: int, m: int) -> dict[int, HallElement]:
    """Per-stratum pieces of derive_sub(geometric_induction(u_A, u_B), i, m),
    indexed by the stratum parameter t; their sum equals the composite."""
    return _stratified(model, A, B, i, m, "sub")


def stratified_derive_quot(model: HallModel, A: IsoClassId, B: IsoClassId, i: int, m: int) -> dict[int, HallElement]:
    return _stratified(model, A, B, i, m, "quot")


def pairing(model: HallModel, f: HallElement, g: HallElement) -> LaurentPoly:
    """{u_M, u_N} = delta_{M,N} / a_M extended bilinearly; formal in v."""
    if f.is_zero() or g.is_zero():
        return LaurentPoly.zero()
    if f.dim != g.dim:
        raise ValueError("pairing requires matching gradings")
    t = model.table(f.dim)
    gc = g.coeffs()
    acc: dict[int, Fraction] = {}
    for M, cf in f.terms:
        cg = gc.get(M)
        if cg:
            add_scaled(acc, cf * cg, Fraction(1, t.info(M).aut_count))
    return LaurentPoly(acc)


# -- serialization -------------------------------------------------------------


def formal_scalar(c: LaurentPoly) -> dict:
    """A coefficient as JSON, kept formal in v."""
    return {"laurent": c.render()}


def element_to_json(model: HallModel, f: HallElement | TensorElement,
                    scalar=formal_scalar) -> dict:
    """A Hall or tensor element as JSON: its grading, and one term per class
    (a label, or a pair of labels for a tensor) with the coefficient rendered
    by `scalar`."""
    if isinstance(f, TensorElement):
        if f.is_zero():
            return {"dims": None, "terms": []}
        ta, tb = (model.table(d) for d in f.dims)
        return {"dims": [list(d.entries) for d in f.dims],
                "terms": [{"class": [ta.label(N), tb.label(L)], **scalar(c)}
                          for (N, L), c in f.terms]}
    if f.is_zero():
        return {"dim": None, "terms": []}
    table = model.table(f.dim)
    return {"dim": list(f.dim.entries),
            "terms": [{"class": table.label(M), **scalar(c)} for M, c in f.terms]}
