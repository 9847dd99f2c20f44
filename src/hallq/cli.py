"""Command-line surface: classify representation spaces, apply Hall operators,
and run the identity verification suite.

Exit codes: 0 success, 1 verification failure, 2 refusal or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import hall
from .ffrep import (
    DEFAULT_POINT_BUDGET,
    SUPPORTED_PRIMES,
    BudgetExceededError,
    ClassificationTable,
    TableCache,
    group_order,
    quiver_hash,
)
from .hall import HallModel
from .identities import IDENTITY_FAMILIES, SweepConfig, run_suite
from .laurent import evaluate_at_sqrt_q
from .quiver import DimVector, Quiver, builtin_names, builtin_quiver


@dataclass
class RunConfig:
    quiver: Quiver | None
    primes: tuple[int, ...]
    sign: str  # "+", "-", "auto"
    budget: int
    maxdim: int
    fmt: str
    only: tuple[str, ...] | None
    use_cache: bool = True

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.maxdim <= 0:
            raise ValueError("dimension cap must be positive")
        for p in self.primes:
            if p not in SUPPORTED_PRIMES:
                raise ValueError(f"prime {p} not in supported set {SUPPORTED_PRIMES}")
        if self.only is not None:
            unknown = set(self.only) - set(IDENTITY_FAMILIES)
            if unknown:
                raise ValueError(f"unknown identity ids: {sorted(unknown)}")


def cache_dir() -> Path:
    env = os.environ.get("HALLQ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hallq"


# version of the cache file layout, part of every file name: a layout change
# bumps it, so files in an older layout are never read
CACHE_SCHEMA = 1


def _cache_path(Q: Quiver, dim: DimVector, p: int) -> Path:
    key = f"{quiver_hash(Q)}_{dim.to_csv().replace(',', '-')}_{p}"
    return cache_dir() / f"{key}.v{CACHE_SCHEMA}.json"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_table_cache(Q: Quiver, p: int, budget: int, use_cache: bool) -> TableCache:
    if not use_cache:
        return TableCache(Q, p, budget)

    def loader(dim: DimVector) -> ClassificationTable | None:
        """A missing or unreadable cache file, or one that holds the table of
        another space, is a miss; the table is then classified afresh and the
        saver overwrites the file."""
        path = _cache_path(Q, dim, p)
        if not path.exists():
            return None
        try:
            table = ClassificationTable.from_json(json.loads(path.read_text()))
        except (ValueError, KeyError, json.JSONDecodeError):
            return None
        if table.quiver != Q or table.dim != dim or table.p != p:
            return None
        return table

    def saver(table: ClassificationTable) -> None:
        path = _cache_path(Q, table.dim, p)
        _atomic_write(path, json.dumps(table.to_json(), sort_keys=True))

    return TableCache(Q, p, budget, loader=loader, saver=saver)


def resolve_quiver(arg: str) -> Quiver:
    path = Path(arg)
    if path.exists():
        return Quiver.from_text(path.read_text())
    if arg in builtin_names():
        return builtin_quiver(arg)
    raise FileNotFoundError(
        f"quiver {arg!r} is neither a file nor a builtin name {sorted(builtin_names())}"
    )


def _parse_primes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _one_prime(cfg: RunConfig, command: str) -> int:
    """The prime of a command that works over one field; a list is refused."""
    if len(cfg.primes) != 1:
        raise ValueError(f"{command} takes one prime, got {','.join(map(str, cfg.primes))}")
    return cfg.primes[0]


# -- classify ------------------------------------------------------------------


def _table_payload(table: ClassificationTable) -> dict:
    return {
        "quiver_hash": quiver_hash(table.quiver),
        "p": table.p,
        "dim": list(table.dim.entries),
        "group_order": group_order(table.quiver, table.dim, table.p),
        "classes": [
            {
                "label": table.label(c.id),
                "orbit_size": c.orbit_size,
                "aut_count": c.aut_count,
                "fingerprint": list(c.id.fingerprint),
                "representative": [
                    [x for row in m for x in row] for m in c.representative.matrices
                ],
            }
            for c in table.classes
        ],
    }


def cmd_classify(cfg: RunConfig, dim: DimVector, out=None) -> int:
    out = out if out is not None else sys.stdout
    Q = cfg.quiver
    p = _one_prime(cfg, "classify")
    tables = cached_table_cache(Q, p, cfg.budget, cfg.use_cache)
    table = tables.table(dim)
    payload = _table_payload(table)
    if cfg.fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif cfg.fmt == "csv":
        out.write("label,orbit_size,aut_count\n")
        for c in payload["classes"]:
            out.write(f"{c['label']},{c['orbit_size']},{c['aut_count']}\n")
    else:
        out.write(f"classes at dim {dim} over F_{p}: {len(payload['classes'])}\n")
        for c in payload["classes"]:
            out.write(
                f"  {c['label']}  orbit={c['orbit_size']}  aut={c['aut_count']}\n"
            )
    return 0


# -- op ------------------------------------------------------------------------


def _render_scalar_json(c, p: int, sign: str):
    if sign == "auto":
        return {"laurent": c.render()}
    s = 1 if sign == "+" else -1
    val = evaluate_at_sqrt_q(c, p, s)
    return {"even": str(val.even), "odd": str(val.odd)}


def _element_payload(model: HallModel, f, sign: str) -> dict:
    if f.is_zero():
        return {"dim": None, "terms": []}
    table = model.table(f.dim)
    return {
        "dim": list(f.dim.entries),
        "terms": [
            {"class": table.label(M), **_render_scalar_json(c, model.p, sign)}
            for M, c in f.terms
        ],
    }


def _tensor_payload(model: HallModel, f, sign: str) -> dict:
    if f.is_zero():
        return {"dims": None, "terms": []}
    ta, tb = model.table(f.dims[0]), model.table(f.dims[1])
    return {
        "dims": [list(f.dims[0].entries), list(f.dims[1].entries)],
        "terms": [
            {"class": [ta.label(N), tb.label(L)], **_render_scalar_json(c, model.p, sign)}
            for (N, L), c in f.terms
        ],
    }


def _vertex_index(Q: Quiver, arg: str) -> int:
    if arg in Q.vertices:
        return Q.vertex_index(arg)
    return int(arg)


def cmd_op(cfg: RunConfig, op: str, operands: list[str], vertex: str | None,
           m: int, split: str | None, out=None) -> int:
    out = out if out is not None else sys.stdout
    Q = cfg.quiver
    p = _one_prime(cfg, "op")
    model = HallModel(Q, p, cfg.budget, tables=cached_table_cache(Q, p, cfg.budget, cfg.use_cache))
    elems = [hall.unit_class(model, model.class_by_label(lbl)) for lbl in operands]
    if op == "mul":
        if len(elems) != 2:
            raise ValueError("mul takes exactly two class operands")
        result = hall.geometric_induction(model, elems[0], elems[1])
        payload = _element_payload(model, result, cfg.sign)
    elif op == "res":
        if len(elems) != 1 or split is None:
            raise ValueError("res takes one operand and --split")
        alpha = DimVector.from_csv(split, Q.n)
        beta = elems[0].dim - alpha
        result = hall.geometric_restriction(model, elems[0], (alpha, beta))
        payload = _tensor_payload(model, result, cfg.sign)
    elif op in ("dsub", "dquot"):
        if len(elems) != 1 or vertex is None:
            raise ValueError(f"{op} takes one operand, --vertex and -m")
        i = _vertex_index(Q, vertex)
        result = hall.derivation(op[1:])(model, elems[0], i, m)
        payload = _element_payload(model, result, cfg.sign)
    elif op == "pair":
        if len(elems) != 2:
            raise ValueError("pair takes exactly two class operands")
        result = hall.pairing(model, elems[0], elems[1])
        payload = {"pairing": _render_scalar_json(result, p, cfg.sign)}
    else:
        raise ValueError(f"unknown op {op!r}")
    if cfg.fmt == "pretty" and "terms" in payload:
        for t in payload["terms"]:
            out.write(f"{t.get('laurent', (t.get('even'), t.get('odd')))} * u[{t['class']}]\n")
        if not payload["terms"]:
            out.write("0\n")
    else:
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


# -- verify ----------------------------------------------------------------------


def _summary_table(reports) -> str:
    from collections import Counter

    rows = Counter()
    fails = Counter()
    for r in reports:
        rows[r.identity] += 1
        if r.status == "fail":
            fails[r.identity] += 1
    width = max(len(k) for k in rows)
    lines = [f"{'identity':<{width}}  checks  failures"]
    for k in sorted(rows):
        lines.append(f"{k:<{width}}  {rows[k]:>6}  {fails[k]:>8}")
    total_fail = sum(fails.values())
    lines.append(f"{'TOTAL':<{width}}  {sum(rows.values()):>6}  {total_fail:>8}")
    return "\n".join(lines)


def cmd_verify(cfg: RunConfig, corrupt: bool, jobs: int, skip_slow: bool, out=None) -> int:
    out = out if out is not None else sys.stdout
    if cfg.quiver is not None:
        texts = (("user", cfg.quiver.to_text()),)
    else:
        texts = None
    sweep = SweepConfig(
        primes=cfg.primes,
        maxdim=cfg.maxdim,
        budget=cfg.budget,
        only=cfg.only,
        corrupt=corrupt,
        skip_slow=skip_slow,
        jobs=jobs,
        quiver_texts=texts,
    )
    reports = run_suite(sweep)
    if cfg.fmt == "csv":
        out.write("identity,status,convention,elapsed,params\n")
        for r in reports:
            params = json.dumps(r.params, sort_keys=True).replace('"', '""')
            out.write(
                f'{r.identity},{r.status},{r.convention or ""},{r.elapsed:.6f},"{params}"\n'
            )
    elif cfg.fmt == "json":
        for r in reports:
            out.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
    if cfg.fmt != "csv":
        out.write(_summary_table(reports) + "\n")
    return 1 if any(r.status == "fail" for r in reports) else 0


# -- entry -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hallq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--quiver", help="quiver file path or builtin name")
        sp.add_argument("-p", "--primes", default="2", help="prime or comma list")
        sp.add_argument("--sign", choices=["+", "-", "auto"], default="auto")
        sp.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
        sp.add_argument("--format", dest="fmt", choices=["json", "csv", "pretty"],
                        default="json")
        sp.add_argument("--no-cache", action="store_true")

    c = sub.add_parser("classify", help="classify E_V(F_p) into isomorphism classes")
    common(c)
    c.add_argument("--dim", required=True, help="dimension vector, comma list")

    o = sub.add_parser("op", help="apply a Hall operator to basis classes")
    common(o)
    o.add_argument("op", choices=["mul", "res", "dsub", "dquot", "pair"])
    o.add_argument("operands", nargs="+", help="class names dim:index")
    o.add_argument("--vertex", help="vertex name or index for derivations")
    o.add_argument("-m", type=int, default=1, help="derivation multiplicity")
    o.add_argument("--split", help="quotient part of a restriction split, comma list")

    v = sub.add_parser("verify", help="run the identity verification suite")
    common(v)
    g = v.add_mutually_exclusive_group()
    g.add_argument("--all", action="store_true", help="run every identity family")
    g.add_argument("--only", help="comma list of identity families")
    v.add_argument("--maxdim", type=int, default=4)
    v.add_argument("--corrupt-fixture", action="store_true",
                   help="negative control: run with deliberately corrupted twists")
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--skip-slow", action="store_true",
                   help="drop the slow polynomiality subset")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        quiver = resolve_quiver(args.quiver) if args.quiver else None
        only = None
        if args.command == "verify" and args.only:
            only = tuple(args.only.split(","))
        cfg = RunConfig(
            quiver=quiver,
            primes=_parse_primes(args.primes),
            sign=args.sign,
            budget=args.budget,
            maxdim=getattr(args, "maxdim", 4),
            fmt=args.fmt,
            only=only,
            use_cache=not args.no_cache,
        )
        if args.command == "classify":
            if cfg.quiver is None:
                raise ValueError("classify requires --quiver")
            dim = DimVector.from_csv(args.dim, cfg.quiver.n)
            return cmd_classify(cfg, dim)
        if args.command == "op":
            if cfg.quiver is None:
                raise ValueError("op requires --quiver")
            return cmd_op(cfg, args.op, args.operands, args.vertex, args.m, args.split)
        if args.command == "verify":
            return cmd_verify(cfg, args.corrupt_fixture, args.jobs, args.skip_slow)
        raise ValueError(f"unknown command {args.command}")
    except BudgetExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
