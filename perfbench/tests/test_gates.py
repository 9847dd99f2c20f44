"""Negative controls: each output gate must fail on wrong output or a wrong
reference, and pass on the real thing."""

import dataclasses

import pytest
from hallq.identities import SweepConfig, run_suite

import workloads
from small import VERIFY_SLICE, one_pass, small_workloads


@pytest.mark.parametrize("work", small_workloads(), ids=lambda w: w.name)
def test_gate_passes_on_own_digest_and_fails_on_tampered_one(work):
    state, result, outcome = one_pass(work)
    assert outcome.attempted > 0 and outcome.failed == 0
    assert work.check(state, result, outcome.digest).correct
    tampered = ("0" if outcome.digest[0] != "0" else "1") + outcome.digest[1:]
    assert not work.check(state, result, tampered).correct


def test_verify_gate_fails_on_corrupted_slice():
    clean = dataclasses.replace(VERIFY_SLICE, only=("associativity",))
    reference = workloads.check_reports(run_suite(clean), None).digest
    corrupt = SweepConfig(only=("associativity",), quivers=("a2",), primes=(2,), corrupt=True)
    outcome = workloads.check_reports(run_suite(corrupt), reference)
    assert outcome.failed > 0
    assert not outcome.correct


def test_classify_gate_counts_points_answered_wrongly():
    work = workloads.ClassifyScan((("a2", (1, 1), 3),))
    state, (writers, resolved), outcome = one_pass(work)
    answers = next(iter(resolved.values()))
    answers[0], answers[-1] = answers[-1], answers[0]
    assert answers[0] != answers[-1]
    assert work.check(state, (writers, resolved), outcome.digest).failed == 2


def test_count_gate_catches_a_wrong_filtration_number():
    work = workloads.CountSweep((("a2", 2, 2, 1),))
    state, (models, values), outcome = one_pass(work)
    ops = state[1]
    k = next(i for i, op in enumerate(ops) if op[0] == "ind" and not values[i].is_zero())
    values = list(values)
    values[k] = values[k].scale(2)
    bad = work.check(state, (models, values), outcome.digest)
    assert bad.failed > 0
    assert not bad.correct
