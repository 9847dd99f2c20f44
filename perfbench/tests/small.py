"""Small versions of the three workloads, for the benchmark's own tests."""

from hallq.identities import SweepConfig

import workloads

VERIFY_SLICE = SweepConfig(quivers=("a2",), primes=(2,), maxdim=2, single_maxdim=2, skip_slow=True)
CLASSIFY_CASES = (("a2", (1, 1), 3), ("kronecker", (1, 2), 2), ("a3", (1, 1, 1), 2))
COUNT_CASES = (("a2", 2, 3, 3), ("kronecker", 2, 2, 2))


def small_workloads():
    return [workloads.VerifySweep(VERIFY_SLICE), workloads.ClassifyScan(CLASSIFY_CASES),
            workloads.CountSweep(COUNT_CASES)]


def one_pass(work, seed=1, reference=None):
    state = work.setup(seed)
    result = work.run(state)
    return state, result, work.check(state, result, reference)
