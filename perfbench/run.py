"""hallq benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload verify_sweep|classify_scan|count_sweep|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports hallq from `./src`. Every pass
runs in a fresh single-threaded interpreter (`worker.py`) with its own empty
HALLQ_CACHE_DIR under `./.perfbench_tmp`, so each pass is cold. Passes repeat
until the next one would end after `--seconds`; there is always at least one.

With `--trace 0` the last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics: `setup_s` (median time from starting an
interpreter to the end of set-up, over at least eleven set-ups), `run_s` (median
time of one cold pass) and `peak_rss_mb` (largest peak RSS of a pass). Both
times are in reference seconds: each is divided by the slowdown that
`worker.py` measured with its probe kernel at the same moment, so that the
host's drifting speed cancels out. With
`--trace 1` passes alternate untraced and traced, and the metrics are the
per-layer ones of `layers.py`, medians over the traced passes.

The exit code is 0 when every pass ran and passed its gate, 1 when a gate
failed (the result is still printed) or a pass crashed, and 2 when the
checkout holds no hallq sources (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent

WORKLOAD_NAMES = ("verify_sweep", "classify_scan", "count_sweep")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 11
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes


class PassFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.started = time.monotonic()
        self._k = 0

    def spawn(self, mode: str) -> dict:
        self._k += 1
        cache = self.tmp / f"cache{self._k}"
        cache.mkdir(parents=True)
        # a fixed hash seed keeps str-keyed set and dict order, and so the work
        # order, the same for the same --seed
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), HALLQ_CACHE_DIR=str(cache),
                   TMPDIR=str(self.tmp), PYTHONHASHSEED="0")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired as e:
            raise PassFailed(f"{self.workload} {mode} pass ran out of time") from e
        shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            raise PassFailed(f"{self.workload} {mode} pass exited {proc.returncode}:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = (out["t_ready"] - t_spawn) / out["setup_slowdown"]
        return out

    def repeat(self, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
        """Run rounds of `modes` until the next round would end after `seconds`."""
        rounds, took = [], []
        while True:
            t0 = time.monotonic()
            rounds.append([self.spawn(m) for m in modes])
            took.append(time.monotonic() - t0)
            if time.monotonic() - self.started + statistics.median(took) > seconds:
                return rounds

    def measure(self, seconds: float) -> dict:
        passes = [r[0] for r in self.repeat(("pass",), seconds)]
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(self.spawn("setup")["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p["pass_s"] / p["slowdown"] for p in passes),
            "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
        }
        return _result(passes, metrics, END_TO_END)

    def measure_traced(self, seconds: float) -> dict:
        rounds = self.repeat(("pass", "traced"), seconds)
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        metrics = {name: statistics.median(t["layers"][name] for t in traced)
                   for name in traced[0]["layers"]}
        untraced = statistics.median(p["window_s"] for p in plain)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.slowdown"] = statistics.median(p["slowdown"] for p in plain)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"] / untraced - 1.0)
        return _result(plain + traced, metrics, LAYER_UNITS)


def _result(passes: list[dict], metrics: dict, units: dict) -> dict:
    return {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root, workload, seed)
    try:
        return runner.measure_traced(seconds) if trace else runner.measure(seconds)
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            runner.tmp.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hallq" / "__init__.py").is_file():
        print(f"no hallq sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(name, json.dumps(results[name]), flush=True)
    except PassFailed as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
