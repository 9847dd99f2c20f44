"""Command-line surface: classify representation spaces, apply Hall operators,
and run the identity verification suite.

Exit codes: 0 success, 1 verification failure, 2 refusal or usage error,
3 stdout closed by its reader before all output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import hall
from .ffrep import (
    DEFAULT_POINT_BUDGET,
    BudgetExceededError,
    ClassificationTable,
    TableCache,
    flat_blocks,
    group_order,
    quiver_hash,
)
from .hall import HallModel
from .identities import SweepConfig, run_suite
from .laurent import evaluate_at_sqrt_q
from .quiver import DimVector, Quiver, builtin_names, builtin_quiver


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
                "representative": flat_blocks(c.representative),
            }
            for c in table.classes
        ],
    }


def cmd_classify(tables: TableCache, dim: DimVector, fmt: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    table = tables.table(dim)
    payload = _table_payload(table)
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("label,orbit_size,aut_count\n")
        for c in payload["classes"]:
            out.write(f"{c['label']},{c['orbit_size']},{c['aut_count']}\n")
    else:
        out.write(f"classes at dim {dim} over F_{tables.p}: {len(payload['classes'])}\n")
        for c in payload["classes"]:
            out.write(
                f"  {c['label']}  orbit={c['orbit_size']}  aut={c['aut_count']}\n"
            )
    return 0


# -- op ------------------------------------------------------------------------


def _vertex_index(Q: Quiver, arg: str) -> int:
    if arg in Q.vertices:
        return Q.vertex_index(arg)
    return int(arg)


def cmd_op(model: HallModel, op: str, operands: list[str], vertex: str | None, m: int,
           split: str | None, sign: str, fmt: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    Q = model.quiver
    if sign == "auto":
        scalar = hall.formal_scalar
    else:
        def scalar(c):  # the value at v = +-sqrt(p)
            val = evaluate_at_sqrt_q(c, model.p, 1 if sign == "+" else -1)
            return {"even": str(val.even), "odd": str(val.odd)}
    elems = [hall.unit_class(model, model.class_by_label(lbl)) for lbl in operands]
    if op == "mul":
        if len(elems) != 2:
            raise ValueError("mul takes exactly two class operands")
        result = hall.geometric_induction(model, elems[0], elems[1])
    elif op == "res":
        if len(elems) != 1 or split is None:
            raise ValueError("res takes one operand and --split")
        alpha = DimVector.from_csv(split, Q.n)
        beta = elems[0].dim - alpha
        result = hall.geometric_restriction(model, elems[0], (alpha, beta))
    elif op in ("dsub", "dquot"):
        if len(elems) != 1 or vertex is None:
            raise ValueError(f"{op} takes one operand, --vertex and -m")
        i = _vertex_index(Q, vertex)
        result = hall.derivation(op[1:])(model, elems[0], i, m)
    elif op == "pair":
        if len(elems) != 2:
            raise ValueError("pair takes exactly two class operands")
        result = hall.pairing(model, elems[0], elems[1])
    else:
        raise ValueError(f"unknown op {op!r}")
    if op == "pair":
        payload = {"pairing": scalar(result)}
    else:
        payload = hall.element_to_json(model, result, scalar)
    if fmt == "pretty" and "terms" in payload:
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


def cmd_verify(sweep: SweepConfig, fmt: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    reports = run_suite(sweep)
    if fmt == "csv":
        out.write("identity,status,convention,elapsed,params\n")
        for r in reports:
            params = json.dumps(r.params, sort_keys=True).replace('"', '""')
            out.write(
                f'{r.identity},{r.status},{r.convention or ""},{r.elapsed:.6f},"{params}"\n'
            )
    elif fmt == "json":
        for r in reports:
            out.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
    if fmt != "csv":
        out.write(_summary_table(reports) + "\n")
    return 1 if any(r.status == "fail" for r in reports) else 0


# -- entry -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hallq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--quiver", help="quiver file path or builtin name")
        sp.add_argument("-p", "--primes", default="2", help="prime or comma list")
        sp.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
        sp.add_argument("--format", dest="fmt", choices=["json", "csv", "pretty"],
                        default="json")

    # classify and op read classification tables through the on-disk cache
    c = sub.add_parser("classify", help="classify E_V(F_p) into isomorphism classes")
    common(c)
    c.add_argument("--no-cache", action="store_true")
    c.add_argument("--dim", required=True, help="dimension vector, comma list")

    o = sub.add_parser("op", help="apply a Hall operator to basis classes")
    common(o)
    o.add_argument("--no-cache", action="store_true")
    o.add_argument("--sign", choices=["+", "-", "auto"], default="auto",
                   help="specialize scalars at v = +-sqrt(p); auto keeps them formal")
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


def _run(args) -> int:
    quiver = resolve_quiver(args.quiver) if args.quiver else None
    primes = _parse_primes(args.primes)
    if args.command == "verify":
        sweep = SweepConfig(
            quivers=(quiver,) if quiver else SweepConfig.quivers,
            primes=primes,
            maxdim=args.maxdim,
            budget=args.budget,
            only=None if args.only is None else tuple(args.only.split(",")),
            corrupt=args.corrupt_fixture,
            skip_slow=args.skip_slow,
            jobs=args.jobs,
        )
        return cmd_verify(sweep, args.fmt)
    # classify and op work over one field, through the table cache
    if quiver is None:
        raise ValueError(f"{args.command} requires --quiver")
    if len(primes) != 1:
        raise ValueError(f"{args.command} takes one prime, got {','.join(map(str, primes))}")
    tables = cached_table_cache(quiver, primes[0], args.budget, not args.no_cache)
    if args.command == "classify":
        return cmd_classify(tables, DimVector.from_csv(args.dim, quiver.n), args.fmt)
    return cmd_op(HallModel(quiver, primes[0], tables=tables), args.op, args.operands,
                  args.vertex, args.m, args.split, args.sign, args.fmt)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
        return code
    except BudgetExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (`| head`): what is still buffered goes to
        # devnull, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
