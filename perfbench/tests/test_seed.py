"""`--seed` shuffles the case order; digests do not depend on it."""

import pytest

import workloads
from small import CLASSIFY_CASES, COUNT_CASES, one_pass


def case_order(work, state):
    if work.name == "classify_scan":
        return [(name, dim.entries, p) for name, _, dim, p in state]
    return state[1]


@pytest.mark.parametrize("work", [workloads.ClassifyScan(CLASSIFY_CASES),
                                  workloads.CountSweep(COUNT_CASES)], ids=lambda w: w.name)
def test_two_seeds_shuffle_order_but_agree_on_digest(work):
    state1, _, out1 = one_pass(work, seed=1)
    other = next(s for s in range(2, 20) if case_order(work, work.setup(s)) != case_order(work, state1))
    state2, _, out2 = one_pass(work, seed=other)
    assert sorted(map(repr, case_order(work, state1))) == sorted(map(repr, case_order(work, state2)))
    assert case_order(work, work.setup(1)) == case_order(work, state1)
    assert out1.digest == out2.digest
    assert out1.attempted == out2.attempted
