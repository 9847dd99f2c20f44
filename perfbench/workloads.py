"""The three benchmark workloads, written against hallq's public API.

Each workload has a `setup(seed)` (inputs; for count_sweep also the
classification), a timed `run(state)` (one cold pass) and an untimed
`check(state, result, reference)` (the output gate). Only names exported by
`hallq/__init__.py`, plus `identities.run_suite`/`SweepConfig` and
`cli.cached_table_cache`, are called, so a refactor that keeps that API keeps
the benchmark running.

Digests are taken over sorted canonical lines, so they do not depend on the
case order that `--seed` shuffles.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import hallq
from hallq import DimVector, HallModel, TableCache, builtin_quiver, cli, identities
from hallq.identities import SweepConfig

MAIN_FAMILIES = ("green", "derivation_product_rule", "associativity", "stratification")


@dataclass
class Outcome:
    """What a pass did, as judged by its gate."""

    attempted: int
    failed: int
    digest: str
    reference: str | None
    layers: dict = field(default_factory=dict)  # extra per-layer numbers from the output

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest == self.reference


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- verify_sweep ------------------------------------------------------------------


class VerifySweep:
    """`hallq verify --all -p 2,3`, serial, in a fresh interpreter (so the
    suite's model pool starts cold). The sweep is one fixed input, so the
    seed changes nothing here."""

    name = "verify_sweep"

    def __init__(self, config: SweepConfig | None = None):
        self.config = config or SweepConfig(primes=(2, 3), jobs=1)

    def setup(self, seed: int) -> SweepConfig:
        return self.config

    def run(self, config: SweepConfig):
        return identities.run_suite(config)

    def check(self, config, reports, reference: str | None) -> Outcome:
        return check_reports(reports, reference)


def report_lines(reports) -> list[str]:
    out = []
    for k, r in enumerate(reports):
        data = r.to_json()
        data.pop("elapsed")
        out.append(f"{k:05d} " + json.dumps(data, sort_keys=True))
    return out


def check_reports(reports, reference: str | None) -> Outcome:
    """Gate for a verify run: no `fail` report, and the report digest (with
    `elapsed` stripped, report order kept) equals the reference."""
    failed = sum(1 for r in reports if r.status == "fail")
    family_s = {f: 0.0 for f in MAIN_FAMILIES + ("other",)}
    checks = 0
    for r in reports:
        fam = r.identity if r.identity in MAIN_FAMILIES else "other"
        family_s[fam] += r.elapsed
        if isinstance(r.details, dict) and isinstance(r.details.get("checked"), int):
            checks += r.details["checked"]
    layers = {f"identities.{f}_s": t for f, t in family_s.items()}
    layers["identities.checks"] = checks
    return Outcome(len(reports), failed, _digest(report_lines(reports)), reference, layers)


# -- classify_scan ---------------------------------------------------------------------

CLASSIFY_CASES = (
    ("kronecker", (2, 2), 3),
    ("a3", (2, 2, 2), 3),
    ("kronecker", (1, 3), 5),
    ("a3", (1, 3, 1), 5),
    ("kronecker", (2, 3), 2),
    ("a3", (2, 3, 2), 2),
)
BUDGET = 10**6


def cache_bytes() -> int:
    root = Path(os.environ["HALLQ_CACHE_DIR"])
    return sum(f.stat().st_size for f in root.rglob("*.json")) if root.exists() else 0


class ClassifyScan:
    """Write phase: cold classification of each space through the JSON table
    cache. Read phase: a new cache reloads every table and resolves the class
    of every point. One pass is both phases."""

    name = "classify_scan"

    def __init__(self, cases=CLASSIFY_CASES):
        self.cases = cases

    def setup(self, seed: int) -> list[tuple]:
        cases = list(self.cases)
        random.Random(seed).shuffle(cases)
        return [(name, builtin_quiver(name), DimVector(dim), p) for name, dim, p in cases]

    def run(self, cases):
        writers, readers = {}, {}
        for name, Q, dim, p in cases:
            if (name, p) not in writers:
                writers[name, p] = cli.cached_table_cache(Q, p, BUDGET, True)
            writers[name, p].table(dim)
        resolved = {}
        for name, Q, dim, p in cases:
            if (name, p) not in readers:
                readers[name, p] = cli.cached_table_cache(Q, p, BUDGET, True)
            table = readers[name, p].table(dim)
            resolved[name, dim.entries, p] = [
                hallq.iso_class_of(table, x) for x in hallq.enumerate_points(Q, dim, p, BUDGET)
            ]
        return writers, resolved

    def check(self, cases, result, reference: str | None) -> Outcome:
        """Every reloaded table answers like the freshly classified one, for
        every point; the digest covers class count, orbit sizes and aut counts."""
        writers, resolved = result
        attempted = failed = 0
        lines = []
        for name, Q, dim, p in cases:
            fresh = writers[name, p].table(dim)
            got = resolved[name, dim.entries, p]
            want = [fresh.iso_class_of(x) for x in hallq.enumerate_points(Q, dim, p, BUDGET)]
            attempted += len(want)
            failed += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
            shape = [(c.orbit_size, c.aut_count) for c in fresh.classes]
            lines.append(f"{name} {dim.to_csv()} {p} {len(shape)} {shape}")
        return Outcome(attempted, failed, _digest(lines), reference, {"cli.cache.bytes": cache_bytes()})


# -- count_sweep --------------------------------------------------------------------

# (quiver, p, total cap for restriction/derivation/induction, cap for stratified)
COUNT_CASES = (
    ("a2", 5, 4, 3),
    ("a2", 3, 5, 4),
    ("a3", 3, 4, 3),
    ("a3", 2, 5, 4),
    ("kronecker", 2, 4, 3),
)


def dims_up_to(Q, total: int) -> list[DimVector]:
    return [DimVector(e) for e in product(range(total + 1), repeat=Q.n) if 0 < sum(e) <= total]


def splits(nu: DimVector) -> list[tuple[DimVector, DimVector]]:
    """Ordered (quotient, sub) pairs with both parts nonzero."""
    out = []
    for a in product(*(range(x + 1) for x in nu.entries)):
        alpha = DimVector(a)
        beta = nu - alpha
        if alpha.total and beta.total:
            out.append((alpha, beta))
    return out


class CountSweep:
    """Hall operators on unit classes over every grading up to a fixed total,
    on a fresh `HallModel` whose classification was done in setup, so the
    timed pass is the counting layer."""

    name = "count_sweep"

    def __init__(self, cases=COUNT_CASES):
        self.cases = cases

    def setup(self, seed: int):
        ops = []
        tables = {}
        for name, p, total, strat_total in self.cases:
            Q = builtin_quiver(name)
            tc = TableCache(Q, p, BUDGET)
            tc.table(Q.zero_dim())
            dims = dims_up_to(Q, total)
            for d in dims:
                tc.table(d)
            tables[name, p] = (Q, tc)
            for nu in dims:
                for M in tc.table(nu).ids():
                    for split in splits(nu):
                        ops.append(("res", name, p, M, split))
                    for i in range(Q.n):
                        for m in (1, 2):
                            ops.append(("dsub", name, p, M, i, m))
                            ops.append(("dquot", name, p, M, i, m))
            for a in dims:
                for b in dims:
                    if (a + b).total > total:
                        continue
                    for N in tc.table(a).ids():
                        for L in tc.table(b).ids():
                            ops.append(("ind", name, p, N, L))
                            if (a + b).total <= strat_total:
                                for i in range(Q.n):
                                    for m in (1, 2):
                                        ops.append(("ssub", name, p, N, L, i, m))
                                        ops.append(("squot", name, p, N, L, i, m))
        random.Random(seed).shuffle(ops)
        return tables, ops

    def run(self, state):
        tables, ops = state
        models = {key: HallModel(Q, key[1], tables=tc) for key, (Q, tc) in tables.items()}
        out = []
        for op in ops:
            kind, name, p = op[:3]
            model = models[name, p]
            if kind == "res":
                value = hallq.geometric_restriction(model, hallq.unit_class(model, op[3]), op[4])
            elif kind == "dsub":
                value = hallq.derive_sub(model, hallq.unit_class(model, op[3]), op[4], op[5])
            elif kind == "dquot":
                value = hallq.derive_quot(model, hallq.unit_class(model, op[3]), op[4], op[5])
            elif kind == "ind":
                value = hallq.geometric_induction(
                    model, hallq.unit_class(model, op[3]), hallq.unit_class(model, op[4]))
            elif kind == "ssub":
                value = hallq.stratified_derive_sub(model, *op[3:])
            else:
                value = hallq.stratified_derive_quot(model, *op[3:])
            out.append(value)
        return models, out

    def check(self, state, result, reference: str | None) -> Outcome:
        """Every filtration number from induction and extension count from
        restriction satisfies |O_M| F = n_W e |O_N| |O_L|, with the expected
        twist exponents; the digest covers every operator output."""
        tables, ops = state
        models, values = result
        lines = []
        ind, res = {}, {}
        for op, value in zip(ops, values):
            kind, name, p = op[:3]
            key = " ".join(str(x) for x in op)
            if kind in ("ssub", "squot"):
                lines.extend(f"{key} t={t} {_element_line(v)}" for t, v in sorted(value.items()))
            else:
                lines.append(f"{key} {_element_line(value)}")
            if kind == "ind":
                ind[name, p, op[3], op[4]] = value
            elif kind == "res":
                res[name, p, op[3], op[4]] = value
        failed = sum(1 for (name, p, N, L), value in ind.items()
                     if not _conversion_holds(models[name, p], name, N, L, value, res))
        return Outcome(len(ops), failed, _digest(lines), reference)


def _element_line(f) -> str:
    return repr([(str(k), c.render()) for k, c in f.terms])


def _monomial(c):
    """(coefficient, exponent) of a one-term LaurentPoly, else None."""
    try:
        return c.monomial()
    except ValueError:
        return None


def _conversion_holds(model, name, N, L, product_value, res) -> bool:
    """Check one induction u_N * u_L against the restrictions of every class M
    at dim N + dim L, including the twist exponents of both sides."""
    Q, p = model.quiver, model.p
    alpha, beta = DimVector(N.dim), DimVector(L.dim)
    nu = alpha + beta
    n_w = 1
    for v in range(Q.n):
        n_w *= int(hallq.gaussian_binomial_q(nu[v], beta[v]).eval_rational(p))
    o_n = model.table(alpha).info(N).orbit_size
    o_l = model.table(beta).info(L).orbit_size
    m_exp = hallq.induction_twist(Q, alpha, beta)
    r_exp = -hallq.euler_form(Q, alpha, beta)
    filt = {}
    for M, c in product_value.terms:
        mono = _monomial(c)
        if mono is None or mono[1] != m_exp:
            return False
        filt[M] = mono[0]
    for cls in model.table(nu).classes:
        ext = 0
        for key, c in res[name, p, cls.id, (alpha, beta)].terms:
            if key == (N, L):
                mono = _monomial(c)
                if mono is None or mono[1] != r_exp:
                    return False
                ext = mono[0]
        if cls.orbit_size * filt.get(cls.id, 0) != n_w * ext * o_n * o_l:
            return False
    return True


WORKLOADS = {w.name: w for w in (VerifySweep, ClassifyScan, CountSweep)}
