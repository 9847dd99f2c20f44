"""Per-layer metrics from one traced window.

Times are given as a share of the traced window (`*_pct`, unit %), with the
window itself in seconds (`trace.wall_s`), so a layer that a workload never
enters reads 0 % rather than a zero time. `self_pct` is self time (span time
minus the time of wrapped calls inside it); `pct` is inclusive time.
"""

from __future__ import annotations

from tracer import CACHE_LOAD, CACHE_WRITE, Tracer

# metric prefix -> wrapped names whose calls and self time it sums
GROUPS = {
    "laurent.mul": ("laurent.LaurentPoly.__mul__",),
    "laurent.add": ("laurent.LaurentPoly.__add__",),
    "laurent.exact_div": ("laurent.LaurentPoly.exact_div",),
    "laurent.evaluate_at_sqrt_q": ("laurent.evaluate_at_sqrt_q",),
    "fpmat.mat_mul": ("fpmat.mat_mul",),
    "fpmat.rref": ("fpmat.rref",),
    "hall.induction": ("hall.geometric_induction", "hall.ringel_product"),
    "hall.restriction": ("hall.geometric_restriction",),
    "hall.derive": ("hall.derive_sub", "hall.derive_quot"),
    "hall.stratified": ("hall.stratified_derive_sub", "hall.stratified_derive_quot"),
    "hall.unit_class": ("hall.unit_class",),
    "ffrep.classify": ("ffrep.classify",),
    "ffrep.filtration_counts": ("ffrep.filtration_counts",),
    "ffrep.extension_histogram": ("ffrep.extension_histogram",),
    "ffrep.stratified_pair_counts": ("ffrep.stratified_pair_counts",),
    "ffrep.derive_histogram": ("ffrep.derive_sub_histogram", "ffrep.derive_quot_histogram"),
    "ffrep.iso_class_of": ("ffrep.ClassificationTable.iso_class_of",),
}
COUNT_TABLES = ("hall.HallModel.filtration_table", "hall.HallModel.extension_table",
                "hall.HallModel.derive_sub_table", "hall.HallModel.derive_quot_table")
FAMILIES = ("green", "derivation_product_rule", "associativity", "stratification", "other")

# name -> unit, in output order; BENCHMARK.json lists the same names.
UNITS: dict[str, str] = {}
for _prefix in GROUPS:
    UNITS[f"{_prefix}.calls"] = "count"
    UNITS[f"{_prefix}.self_pct"] = "%"
UNITS.update({
    "hall.pairing.calls": "count",
    "hall.count_table.calls": "count",
    "hall.count_table.hit_ratio": "ratio",
    "ffrep.table.calls": "count",
    "ffrep.table.hit_ratio": "ratio",
    "ffrep.classify.points": "count",
    "ffrep.classify.us_per_point": "us",
    "ffrep.stable_subspaces.yielded": "count",
    "cli.cache.write.pct": "%",
    "cli.cache.bytes": "B",
    "cli.cache.load.pct": "%",
    "cli.cache.loads": "count",
    **{f"identities.{f}.pct": "%" for f in FAMILIES},
    "identities.pin_convention_table.pct": "%",
    "identities.checks": "count",
    "polyfit.verify_polynomiality.pct": "%",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.slowdown": "ratio",
    "trace.overhead_pct": "%",
})


def layer_metrics(tr: Tracer, wall_s: float, extra: dict) -> dict[str, float]:
    """Everything in UNITS except the untraced-run figures, which the
    parent adds. `extra` carries numbers read from the workload's output:
    per-family seconds from verify reports, checks, cache bytes."""
    names = tr.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    hits: dict[str, int] = {}
    children = tr.child_counts()
    for idx, nid in enumerate(tr.span_name):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + tr.span_self[idx]
        incl_s[name] = incl_s.get(name, 0.0) + (tr.span_end[idx] - tr.span_start[idx])
        if children[idx] == 0:
            hits[name] = hits.get(name, 0) + 1
    calls.update(tr.leaf_calls)
    self_s.update(tr.leaf_self)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for prefix, members in GROUPS.items():
        out[f"{prefix}.calls"] = sum(calls.get(n, 0) for n in members)
        out[f"{prefix}.self_pct"] = pct(sum(self_s.get(n, 0.0) for n in members))
    out["hall.pairing.calls"] = calls.get("hall.pairing", 0)
    # a memo call is a hit when it started no wrapped call at all
    ct_calls = sum(calls.get(n, 0) for n in COUNT_TABLES)
    out["hall.count_table.calls"] = ct_calls
    out["hall.count_table.hit_ratio"] = ratio(sum(hits.get(n, 0) for n in COUNT_TABLES), ct_calls)
    out["ffrep.table.calls"] = calls.get("ffrep.TableCache.table", 0)
    out["ffrep.table.hit_ratio"] = ratio(hits.get("ffrep.TableCache.table", 0),
                                         out["ffrep.table.calls"])
    points = tr.results.get("ffrep.classify.points", 0)
    out["ffrep.classify.points"] = points
    out["ffrep.classify.us_per_point"] = 1e6 * self_s.get("ffrep.classify", 0.0) / points if points else 0.0
    out["ffrep.stable_subspaces.yielded"] = tr.yields.get("ffrep.stable_subspaces", 0)
    out["cli.cache.write.pct"] = pct(incl_s.get(CACHE_WRITE, 0.0))
    out["cli.cache.bytes"] = extra.get("cli.cache.bytes", 0)
    out["cli.cache.load.pct"] = pct(incl_s.get(CACHE_LOAD, 0.0))
    out["cli.cache.loads"] = tr.results.get(CACHE_LOAD + ".loaded", 0)
    for f in FAMILIES:
        out[f"identities.{f}.pct"] = pct(extra.get(f"identities.{f}_s", 0.0))
    # convention_table reports a fixed elapsed of 0.0, so it is timed here
    out["identities.pin_convention_table.pct"] = pct(incl_s.get("identities.pin_convention_table", 0.0))
    out["identities.checks"] = extra.get("identities.checks", 0)
    out["polyfit.verify_polynomiality.pct"] = pct(incl_s.get("polyfit.verify_polynomiality", 0.0))
    out["trace.wall_s"] = wall_s
    return out
