"""Traced CLI entry point: ``python shim.py SPANS_OUT <artincenter args...>``.

It imports the package, wraps the functions at each layer boundary from the
outside, runs ``artincenter.cli.main(argv)`` in this process (so cold caches
and field set-up match a plain CLI run), and writes the aggregated spans to
SPANS_OUT at exit.  Spans are aggregated per (name, parent) with count, total
and self time, because hot leaves such as ``Scalar.__mul__`` run 10^5 to 10^6
times per request.  No file of the package is changed.

Small accessors (``DefiningGraph.index``/``label``/``subset``, ``field_of``,
``identity``, ``simple_reflection``, ``Scalar.__eq__``/``is_zero``) are not
wrapped: they are too hot to time, and their cost counts toward the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> wrapped module-level functions and "Class.method" names
SPANS = {
    "cli": ["main", "cmd_analyze", "cmd_retract", "cmd_reduce", "cmd_coset", "cmd_dihedral",
            "cmd_word", "cmd_split"],
    "graph": ["parse_graph", "make_graph", "DefiningGraph.join_factors", "DefiningGraph.induced",
              "DefiningGraph.cone_points", "DefiningGraph.is_clique"],
    "scalar": ["cyclotomic_polynomial", "field_context", "cos_pi_over",
               "FieldContext.__init__", "FieldContext.reduce", "FieldContext.power_table",
               "FieldContext.cos_enclosures", "FieldContext.from_rational",
               "Scalar.__add__", "Scalar.__radd__", "Scalar.__sub__", "Scalar.__rsub__",
               "Scalar.__neg__", "Scalar.__mul__", "Scalar.__rmul__", "Scalar.__pow__",
               "Scalar.inverse", "Scalar.__truediv__", "Scalar.sign", "Scalar.conj"],
    "coxeter": ["theta", "coset_decompose", "gram_matrix", "_det", "_rank", "_mat_mul",
                "is_spherical", "is_affine", "coxeter_number", "longest_element",
                "is_minus_identity", "CoxeterElement.__mul__", "CoxeterElement.__pow__",
                "CoxeterElement.is_identity", "CoxeterElement._column_is_negative",
                "CoxeterElement.reduced_word", "CoxeterElement.left_descents",
                "CoxeterElement.right_descents", "CoxeterElement.match_simple_reflection"],
    "words": ["parse_word", "abelianize", "is_pure", "ArtinWord.to_text"],
    "dihedral": ["garside_nf", "free_reduce", "dihedral_equal", "_normalize_factors"],
    "retraction": ["retract", "retract_trace", "_conjugated_reflection"],
    "analyzer": ["establish", "_resolve_factor", "is_two_dimensional", "is_fc_type",
                 "spherical_center_generator", "AnalysisReport.to_dict"],
}

# Which analyzer rule a child span of _resolve_factor is the test of.
RULE_OF_TEST = {
    "coxeter.is_spherical": "SPHERICAL",
    "analyzer.spherical_center_generator": "SPHERICAL",
    "analyzer.is_two_dimensional": "TWO_DIMENSIONAL",
    "coxeter.is_affine": "EUCLIDEAN",
    "analyzer.is_fc_type": "FC_TYPE",
}


class _InlineExecutor:
    """Stands in for ``cli``'s thread pool: runs ``analyze --dir`` files one
    after another in the calling thread, so every span lands on one stack.
    Under the interpreter lock the pool gives no parallel speed-up either."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class Tracer:
    """Span stack plus per-(name, parent) aggregates and a few counters."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, child_time, child_time_by_name or None]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [count, total, self]
        self.extra: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None, by_child: bool = False):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, {} if by_child else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else None)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    if parent[2] is not None:
                        parent[2][name] = parent[2].get(name, 0.0) + dur
            if after is not None:
                after(frame, dur, args, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [[n, p, c, t, s] for (n, p), (c, t, s) in self.agg.items()],
            "extra": self.extra,
            "samples": self.samples,
        }


def _hooks(tracer: Tracer, mods: dict) -> dict:
    """Post-call hooks that turn a span into the counters the metrics need."""
    Scalar = mods["scalar"].Scalar

    def mul(frame, dur, args, result):
        if isinstance(args[1], Scalar):  # field products only, not rational scaling
            deg = args[0].ctx.degree
            tracer.add(f"mul.deg{deg}.count", 1)
            tracer.add(f"mul.deg{deg}.s", dur)

    def sign(frame, dur, args, result):
        if "scalar.FieldContext.cos_enclosures" in frame[2]:
            tracer.add("sign.interval", 1)

    def enclosure(frame, dur, args, result):
        tracer.add(f"rung.{args[1]}", 1)

    def is_affine(frame, dur, args, result):
        tracer.add(f"is_affine.n{len(args[0].vertices)}.s", dur)

    def garside(frame, dur, args, result):
        tracer.add("garside.letters", len(args[1]))

    def retract_trace(frame, dur, args, result):
        tracer.add("retract.letters", len(args[2]))
        tracer.add("retract.emitted", len(result.output))
        tracer.add("retract.s", dur)

    def cmd_retract(frame, dur, args, result):
        # what --trace adds beyond the retraction; one command runs per process
        if args[0].trace:
            tracer.add("audit.letters", tracer.extra.get("retract.letters", 0.0))
            tracer.add("audit.s", dur - frame[2].get("retraction.retract_trace", 0.0))

    def establish(frame, dur, args, result):
        parent = tracer.stack[-1][0] if tracer.stack else None
        if parent != "analyzer._resolve_factor":
            tracer.samples.setdefault("establish", []).append(dur)

    def resolve(frame, dur, args, result):
        analysis = result[0]
        if analysis.kind == "UNKNOWN":
            rule = "UNKNOWN"
        elif analysis.kind == "SPHERICAL":
            rule = "SPHERICAL"
        else:
            rule = analysis.reason
        tracer.add(f"rule_hits.{rule}", 1)
        rest = dur
        for child, spent in frame[2].items():
            if child in RULE_OF_TEST:
                tracer.add(f"rule_s.{RULE_OF_TEST[child]}", spent)
                rest -= spent
            elif child == "analyzer.establish":  # counted by the child's own rules
                rest -= spent
        tracer.add(f"rule_s.{rule}", rest)

    return {
        "scalar.Scalar.__mul__": (mul, False),
        "scalar.Scalar.sign": (sign, True),
        "scalar.FieldContext.cos_enclosures": (enclosure, False),
        "coxeter.is_affine": (is_affine, False),
        "dihedral.garside_nf": (garside, False),
        "retraction.retract_trace": (retract_trace, False),
        "cli.cmd_retract": (cmd_retract, True),
        "analyzer.establish": (establish, False),
        "analyzer._resolve_factor": (resolve, True),
    }


def install(tracer: Tracer) -> dict:
    """Wrap every name in SPANS, wherever the package holds a reference to it.

    Names imported by value (``retraction._mat_mul``, ``cli.theta``, the
    analyzer's coxeter imports, the package re-exports) are replaced by
    identity, and the predicates captured in ``analyzer._BASE_CLASS_RULES`` and
    in ``establish``'s default argument are swapped for their wrappers.
    """
    mods = {layer: importlib.import_module(f"artincenter.{layer}") for layer in SPANS}
    hooks = _hooks(tracer, mods)
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    for layer, names in SPANS.items():
        mod = mods[layer]
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr]
            if id(original) not in replaced:
                # the span is named after the function, so __rmul__ shares __mul__'s
                span = f"{layer}.{original.__qualname__}"
                after, by_child = hooks.get(span, (None, False))
                replaced[id(original)] = tracer.wrap(span, original, after, by_child)
            setattr(owner, attr, replaced[id(original)])
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "artincenter" or mod_name.startswith("artincenter."):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
    mods["cli"].ThreadPoolExecutor = _InlineExecutor
    analyzer = mods["analyzer"]
    rules = tuple((rule, replaced.get(id(fn), fn)) for rule, fn in analyzer._BASE_CLASS_RULES)
    analyzer._BASE_CLASS_RULES = rules
    establish = analyzer.establish.__wrapped__
    establish.__defaults__ = (establish.__defaults__[0], rules)
    return mods


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("artincenter.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    mods = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        data = tracer.dump()
        data["import_s"] = import_s
        info = mods["coxeter"].is_spherical.__wrapped__.cache_info()
        data["is_spherical_cache"] = [info.hits, info.misses]
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
