"""The outside-in tracer on small slices."""

import inspect
import sys

import hallq
from hallq import identities, uminus

import layers
from small import VERIFY_SLICE, one_pass, small_workloads
from tracer import Tracer


def bindings():
    """Every attribute of every hallq module and traced class, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "hallq" or n.startswith("hallq.")]
    owners += [hallq.LaurentPoly, hallq.TableCache, hallq.ClassificationTable, hallq.HallModel]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_traced_and_untraced_digests_agree():
    for work in small_workloads():
        plain = one_pass(work)[2]
        with Tracer():
            traced = one_pass(work)[2]
        assert traced.digest == plain.digest, work.name
        assert traced.failed == plain.failed == 0


def test_rebound_names_are_traced_and_originals_restored():
    before = bindings()
    tr = Tracer().install()

    def calls(name):
        return tr.leaf_calls.get(name, 0) + sum(1 for i in tr.span_name if tr.names[i] == name)

    try:
        for owner, attr, original in tr._patched:
            assert getattr(owner, attr) is not original
        Q = hallq.builtin_quiver("a2")
        model = hallq.HallModel(Q, 2)
        s0, s1 = (hallq.unit_class(model, model.simple_class(v)) for v in (0, 1))
        # each name below was bound by `from ... import`, not looked up on its module
        n = calls("ffrep.classify")
        table = hallq.classify(Q, hallq.DimVector((1, 1)), 2)
        assert calls("ffrep.classify") == n + 1
        n = calls("hall.geometric_induction")
        product = uminus.geometric_induction(model, s1, s0)
        assert calls("hall.geometric_induction") == n + 1
        n = calls("laurent.evaluate_at_sqrt_q")
        identities.evaluate_at_sqrt_q(hallq.LaurentPoly.v(1), 2, 1)
        assert calls("laurent.evaluate_at_sqrt_q") == n + 1
    finally:
        tr.uninstall()
    assert len(table) == 2 and not product.is_zero()
    # E_V(F_2) has 1 point at (1,0) and (0,1), and 2 points at (1,1), classified twice
    assert tr.results["ffrep.classify.points"] == 6
    assert bindings() == before


def test_every_name_the_metrics_read_is_hit():
    tr = Tracer()
    with tr:
        for work in small_workloads():
            one_pass(work)
    wanted = {n for members in layers.GROUPS.values() for n in members}
    wanted |= set(layers.COUNT_TABLES) | {
        "hall.pairing", "ffrep.TableCache.table", "ffrep.ClassificationTable.iso_class_of",
        "ffrep.stable_subspaces", "cli.cache.load", "cli.cache.write",
        "identities.pin_convention_table", "polyfit.verify_polynomiality"}
    assert wanted - tr.hit_names() == set()
    wrapped = set(tr.names) | set(tr.leaf_calls) | set(tr.yields)
    for name in ("ffrep", "hall", "uminus", "identities", "polyfit", "cli"):
        module = sys.modules[f"hallq.{name}"]
        public = {f"{name}.{a}" for a, f in vars(module).items()
                  if not a.startswith("_") and inspect.isfunction(f) and f.__module__ == module.__name__}
        assert public - wrapped == set()


def test_self_time_is_never_negative_and_adds_up():
    tr = Tracer()
    with tr:
        identities.run_suite(VERIFY_SLICE)
    assert min(tr.span_self) >= 0.0
    assert min(tr.leaf_self.values()) >= 0.0
    roots = [i for i, parent in enumerate(tr.span_parent) if parent < 0]
    assert [tr.names[tr.span_name[i]] for i in roots] == ["identities.run_suite"]
    # self times telescope: together they are the root span's duration
    covered = tr.span_end[roots[0]] - tr.span_start[roots[0]]
    total_self = sum(tr.span_self) + sum(tr.leaf_self.values())
    assert abs(total_self - covered) <= 1e-6 * covered
    for i, parent in enumerate(tr.span_parent):
        if parent >= 0:
            assert tr.span_start[parent] <= tr.span_start[i] <= tr.span_end[i] <= tr.span_end[parent]
