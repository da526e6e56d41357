"""Per-layer metrics from the span dumps that ``shim.py`` writes.

Counts and times are means per traced request; ``*_ms`` of a function is its
inclusive time, not counting calls nested in a call of the same function;
``<layer>.self_ms`` is the time spent in the layer's own code.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "graph", "scalar", "coxeter", "words", "dihedral", "retraction", "analyzer")
MUL_DEGREES = (2, 4, 8, 16, 32, 96, 192, 288, 1152)
RUNGS = (64, 128, 256, 512, 1024, 2048, 4096)
AFFINE_SIZES = range(3, 11)
RULES = ("SPHERICAL", "TWO_DIMENSIONAL", "EUCLIDEAN", "FC_TYPE", "NOT_CONE", "CONE_RECURSION",
         "UNKNOWN")

# metric stem -> the span it reads; CALL_METRICS also get a _calls count
SPAN_METRICS = {
    "graph.parse": "graph.parse_graph",
    "graph.join_factors": "graph.DefiningGraph.join_factors",
    "scalar.mul": "scalar.Scalar.__mul__",
    "scalar.reduce": "scalar.FieldContext.reduce",
    "scalar.sign": "scalar.Scalar.sign",
    "coxeter.mul": "coxeter.CoxeterElement.__mul__",
    "coxeter.descent": "coxeter.CoxeterElement._column_is_negative",
    "coxeter.reduced_word": "coxeter.CoxeterElement.reduced_word",
    "coxeter.coset_decompose": "coxeter.coset_decompose",
    "coxeter.is_spherical": "coxeter.is_spherical",
    "coxeter.coxeter_number": "coxeter.coxeter_number",
    "coxeter.longest_element": "coxeter.longest_element",
    "words.parse": "words.parse_word",
    "dihedral.garside_nf": "dihedral.garside_nf",
    "dihedral.free_reduce": "dihedral.free_reduce",
}
CALL_METRICS = ("scalar.mul", "scalar.reduce", "scalar.sign", "coxeter.mul", "coxeter.descent",
                "coxeter.coset_decompose", "dihedral.garside_nf")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def root_seconds(dump: dict) -> float:
    """In-process time under the root span, i.e. the sum of all self times."""
    return sum(total for name, parent, _, total, _ in dump["spans"] if parent is None)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * k / (len(xs) - 1)


def layer_metrics(dumps: list[dict]) -> dict[str, tuple[float, str]]:
    n = max(len(dumps), 1)
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    extra: dict[str, float] = {}
    establish: list[float] = []
    hits = lookups = 0
    for d in dumps:
        for name, parent, count, tot, self_ in d["spans"]:
            calls[name] = calls.get(name, 0) + count
            if parent != name:
                total[name] = total.get(name, 0.0) + tot
            self_by_layer[name.split(".", 1)[0]] += self_
        for key, value in d["extra"].items():
            extra[key] = extra.get(key, 0.0) + value
        establish += d["samples"].get("establish", [])
        hits += d["is_spherical_cache"][0]
        lookups += sum(d["is_spherical_cache"])
    x = lambda key: extra.get(key, 0.0)  # noqa: E731
    out: dict[str, tuple[float, str]] = {
        "cli.import_s": (sum(d["import_s"] for d in dumps) / n, "s"),
    }
    for metric, span in SPAN_METRICS.items():
        if metric in CALL_METRICS:
            out[f"{metric}_calls"] = (calls.get(span, 0) / n, "count")
        out[f"{metric}_ms"] = (1000 * total.get(span, 0.0) / n, "ms")
    for deg in MUL_DEGREES:
        us = 1e6 * _ratio(x(f"mul.deg{deg}.s"), x(f"mul.deg{deg}.count"))
        out[f"scalar.mul_us.deg{deg}"] = (us, "us")
    setup = total.get("scalar.FieldContext.__init__", 0.0) + total.get(
        "scalar.FieldContext.power_table", 0.0)
    out["scalar.field_setup_ms"] = (1000 * setup / n, "ms")
    out["scalar.sign_interval_share"] = (
        _ratio(x("sign.interval"), calls.get("scalar.Scalar.sign", 0)), "share")
    for bits in RUNGS:
        out[f"scalar.sign_rung.{bits}"] = (x(f"rung.{bits}") / n, "count")
    out["coxeter.is_spherical_cache_hit_share"] = (_ratio(hits, lookups), "share")
    for k in AFFINE_SIZES:
        out[f"coxeter.is_affine_ms.n{k}"] = (1000 * x(f"is_affine.n{k}.s") / n, "ms")
    out["dihedral.garside_us_per_letter"] = (
        1e6 * _ratio(total.get("dihedral.garside_nf", 0.0), x("garside.letters")), "us")
    out["retraction.retract_ms_per_letter"] = (
        1000 * _ratio(x("retract.s"), x("retract.letters")), "ms")
    out["retraction.trace_ms_per_letter"] = (1000 * _ratio(x("audit.s"), x("audit.letters")), "ms")
    out["retraction.emitted_share"] = (_ratio(x("retract.emitted"), x("retract.letters")), "share")
    out["analyzer.establish_ms_p50"] = (
        1000 * statistics.median(establish) if establish else 0.0, "ms")
    out["analyzer.establish_ms_tail"] = (1000 * tail(establish)[0] if establish else 0.0, "ms")
    for rule in RULES:
        out[f"analyzer.rule_ms.{rule}"] = (1000 * x(f"rule_s.{rule}") / n, "ms")
        out[f"analyzer.rule_hits.{rule}"] = (x(f"rule_hits.{rule}") / n, "count")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (1000 * self_by_layer[layer] / n, "ms")
    return out
