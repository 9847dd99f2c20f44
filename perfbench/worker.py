"""One fresh interpreter, one workload: set up, optionally run one cold pass
and check it, then print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced

`run.py` starts this with PYTHONPATH pointing at the checkout's `src` and
HALLQ_CACHE_DIR at a fresh directory inside the checkout. `t_ready` is the
CLOCK_MONOTONIC time at the end of set-up, comparable with the parent's clock.

The shared host this runs on changes speed by up to half over seconds to
minutes, for every process alike. So the worker also times a small fixed
pure-Python kernel: about twenty times right after set-up, and every 50 ms
during an untraced pass (from a SIGALRM handler; that time is taken out of
the pass). `setup_slowdown` and `slowdown` are the median kernel time over
PROBE_REF_S; `run.py` divides set-up and pass times by them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


PROBE_PERIOD_S = 0.05
PROBE_REF_S = 3.2e-4  # median probe_kernel() time on a 2-vCPU Intel Xeon VM, Python 3.11


def probe_kernel() -> float:
    """Dict, tuple and small-int work, like the interpreter-bound hallq loops."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    x = 0
    for i in range(1500):
        k = (i * 7919) % 211
        d[k] = d.get(k, 0) + (i & 255)
        x += (k, i)[0] * 3 % 7
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Median kernel time over the reference; 1.0 when nothing was sampled."""
    return statistics.median(samples) / PROBE_REF_S if samples else 1.0


class SpeedProbe:
    """Samples probe_kernel() every PROBE_PERIOD_S while the block runs."""

    def __init__(self, active: bool):
        self.active = active
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        if self.active:
            signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe_kernel()))
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = ap.parse_args(argv)

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    import hallq

    if not Path(hallq.__file__).resolve().is_relative_to(src):
        print(f"hallq imported from {hallq.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    work = workloads.WORKLOADS[args.workload]()
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer().install()
    t_window = time.perf_counter()
    state = work.setup(args.seed)
    out = {"t_ready": time.monotonic()}
    out["setup_slowdown"] = slowdown([probe_kernel() for _ in range(21)])
    if args.mode != "setup":
        # a traced pass is not probed: the handler would run inside its spans
        with SpeedProbe(active=tracer is None) as probe:
            t0 = time.perf_counter()
            result = work.run(state)
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        outcome = work.check(state, result, reference.get(work.name))
        probe_s = sum(probe.samples)
        out.update(pass_s=t1 - t0 - probe_s, slowdown=slowdown(probe.samples),
                   window_s=t1 - t_window - probe_s, attempted=outcome.attempted,
                   failed=outcome.failed, digest=outcome.digest, correct=outcome.correct,
                   output=outcome.layers)
        if tracer is not None:
            from layers import layer_metrics

            out["layers"] = layer_metrics(tracer, t1 - t_window, outcome.layers)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
