"""Command-line interface.

Every command reads a graph file and emits either human-readable text or,
with --json, a stable envelope {command, version, input, result}.  The
analyze command's exit code triages corpora: 0 when the center is certified,
2 when any factor is inconclusive, 1 on input errors.

Each command imports the layer it works in when it runs: analyze, split and
dihedral never load the field arithmetic, and only analyze loads the
analyzer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .graph import INF, MAX_VERTICES, DefiningGraph, parse_graph
from .words import MAX_LETTERS, ArtinWord, abelianize, parse_word

if TYPE_CHECKING:
    from .analyzer import AnalysisReport

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _load_graph(path: str) -> tuple[DefiningGraph, dict]:
    data = Path(path).read_bytes()
    g = parse_graph(data.decode("utf-8"))
    digest = hashlib.sha256(data).hexdigest()
    return g, {"path": path, "sha256": digest}


def _envelope(command: str, input_info: dict, result: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "input": input_info,
        "result": result,
    }


def _emit(args, envelope: dict, text: str) -> None:
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(text)


def _word_text(w: ArtinWord) -> str:
    return w.to_text() or "1"


# -- analyze ----------------------------------------------------------------


def _analyze_one(path: str, max_vertices: int) -> tuple[dict, AnalysisReport, int]:
    from .analyzer import establish

    g, info = _load_graph(path)
    report = establish(g, max_vertices=max_vertices)
    code = EXIT_OK if report.established else EXIT_UNKNOWN
    return _envelope("analyze", info, report.to_dict()), report, code


def cmd_analyze(args) -> int:
    if args.dir:
        paths = sorted(
            str(p) for p in Path(args.dir).iterdir() if p.suffix == ".graph"
        )
        if not paths:
            print(f"no .graph files in {args.dir}", file=sys.stderr)
            return EXIT_ERROR
        worst = EXIT_OK
        saw_error = False
        summary = []
        for path in paths:
            try:
                envelope, _report, code = _analyze_one(path, args.max_vertices)
                out = Path(path).with_suffix(".report.json")
                fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    json.dump(envelope, fh, indent=2, sort_keys=True)
                os.replace(tmp, out)
            except Exception as exc:  # one bad file must not stop the batch
                saw_error = True
                print(f"{path}: error: {exc}", file=sys.stderr)
                summary.append({"path": path, "error": str(exc)})
                continue
            worst = max(worst, code)
            established = envelope["result"]["established"]
            rank = envelope["result"]["center_rank"]
            summary.append({"path": path, "established": established, "center_rank": rank})
            if not args.json:
                status = "established" if established else "unknown"
                print(f"{path}: {status}, center rank {rank}")
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_ERROR if saw_error else worst

    envelope, report, code = _analyze_one(args.graph, args.max_vertices)
    _emit(args, envelope, "" if args.json else report.to_text())
    return code


# -- word-level commands ------------------------------------------------------


def cmd_retract(args) -> int:
    from .retraction import retract, retract_trace

    g, info = _load_graph(args.graph)
    subset = g.subset(_split_subset(args.subset))
    word = parse_word(args.word, g)
    trace = retract_trace(g, subset, word) if args.trace else None
    output = retract(g, subset, word) if trace is None else trace.output
    result = {
        "subset": list(subset),
        "word": args.word,
        "output": output.to_text(),
    }
    text_lines = [f"retraction: {_word_text(output)}"]
    if trace is not None:
        result["trace"] = [
            {
                "position": s.position,
                "letter": [s.vertex, s.exponent],
                "subgroup_part": list(s.subgroup_part.reduced_word()),
                "reduced_part": list(s.reduced_part.reduced_word()),
                "reflection": list(s.reflection.reduced_word()),
                "emitted": list(s.emitted) if s.emitted else None,
            }
            for s in trace.steps
        ]
        text_lines = [trace.to_text()]
    _emit(args, _envelope("retract", info, result), "\n".join(text_lines))
    return EXIT_OK


def cmd_reduce(args) -> int:
    from .coxeter import theta

    g, info = _load_graph(args.graph)
    word = parse_word(args.word, g)
    image = theta(g, word)
    result = {
        "word": args.word,
        "reduced_word": list(image.reduced_word()),
        "length": image.length(),
        "left_descents": list(image.left_descents()),
        "right_descents": list(image.right_descents()),
    }
    text = "\n".join(
        [
            f"reduced word: {' '.join(image.reduced_word()) or '1'}",
            f"length: {image.length()}",
            f"left descents: {{{', '.join(image.left_descents())}}}",
            f"right descents: {{{', '.join(image.right_descents())}}}",
        ]
    )
    _emit(args, _envelope("reduce", info, result), text)
    return EXIT_OK


def cmd_coset(args) -> int:
    from .coxeter import coset_decompose, theta

    g, info = _load_graph(args.graph)
    subset = g.subset(_split_subset(args.subset))
    word = parse_word(args.word, g)
    dec = coset_decompose(theta(g, word), subset)
    result = {
        "subset": list(subset),
        "subgroup_part": list(dec.subgroup_part.reduced_word()),
        "reduced_part": list(dec.reduced_part.reduced_word()),
    }
    text = "\n".join(
        [
            f"subgroup part: {' '.join(dec.subgroup_part.reduced_word()) or '1'}",
            f"reduced part:  {' '.join(dec.reduced_part.reduced_word()) or '1'}",
        ]
    )
    _emit(args, _envelope("coset", info, result), text)
    return EXIT_OK


def cmd_split(args) -> int:
    g, info = _load_graph(args.graph)
    left, base, right = g.amalgam_split(args.x, args.y)
    result = {
        "x": args.x,
        "y": args.y,
        "left": list(left.vertices),
        "base": list(base.vertices),
        "right": list(right.vertices),
    }
    fmt = lambda h: "{" + ", ".join(h.vertices) + "}"
    text = "\n".join(
        [
            f"A{fmt(left)} *_A{fmt(base)} A{fmt(right)}",
            f"left  = graph minus {args.x}: vertices {' '.join(left.vertices) or '(none)'}",
            f"base  = graph minus both:  vertices {' '.join(base.vertices) or '(none)'}",
            f"right = graph minus {args.y}: vertices {' '.join(right.vertices) or '(none)'}",
        ]
    )
    _emit(args, _envelope("split", info, result), text)
    return EXIT_OK


def cmd_word(args) -> int:
    from .coxeter import theta

    g, info = _load_graph(args.graph)
    word = parse_word(args.word, g)
    image = theta(g, word)
    result = {
        "word": args.word,
        "length": len(word),
        "positive": word.is_positive(),
        "support": sorted(word.support(), key=g.index),
        "abelianization": abelianize(g, word),
        "pure": image.is_identity(),
        "coxeter_image": list(image.reduced_word()),
    }
    text = "\n".join(
        [
            f"letters: {len(word)}",
            f"positive: {word.is_positive()}",
            f"support: {{{', '.join(result['support'])}}}",
            "abelianization: "
            + ", ".join(f"{v}:{k}" for v, k in result["abelianization"].items()),
            f"pure (trivial Coxeter image): {result['pure']}",
            f"Coxeter image reduced word: {' '.join(result['coxeter_image']) or '1'}",
        ]
    )
    _emit(args, _envelope("word", info, result), text)
    return EXIT_OK


def cmd_dihedral(args) -> int:
    from .dihedral import dihedral_equal, free_reduce, garside_nf

    g, info = _load_graph(args.graph)
    if len(g.vertices) != 2:
        raise ValueError("dihedral command requires a graph with exactly 2 vertices")
    gens = (g.vertices[0], g.vertices[1])
    m = g.label(*gens)
    word = parse_word(args.word, g)
    result: dict = {"label": "inf" if m == INF else m, "generators": list(gens)}
    if args.word2 is None:
        if m == INF:
            reduced = free_reduce(word)
            result["free_reduced"] = reduced.to_text()
            text = f"freely reduced: {_word_text(reduced)}"
        else:
            nf = garside_nf(int(m), word, gens)
            # the factors are spelled out letter by letter; refuse before that
            if sum(k for _, k in nf.factors) > MAX_LETTERS:
                raise ValueError(f"normal form exceeds the {MAX_LETTERS}-letter guard")
            factors = [
                "".join(gens[(s + i) % 2] for i in range(k)) for s, k in nf.factors
            ]
            result["normal_form"] = {"delta_power": nf.delta_power, "factors": factors}
            text = f"normal form: delta^{nf.delta_power} . {' . '.join(factors) or '1'}"
    else:
        other = parse_word(args.word2, g)
        equal = dihedral_equal(m if m != INF else INF, word, other, gens)
        result["equal"] = equal
        text = f"equal: {equal}"
    _emit(args, _envelope("dihedral", info, result), text)
    return EXIT_OK


def _split_subset(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artincenter",
        description="Exact Artin/Coxeter computations and center certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")

    p = sub.add_parser("analyze", help="certify the center of a graph's Artin group")
    p.add_argument("graph", nargs="?", help="graph file")
    p.add_argument("--dir", help="analyze every .graph file in a directory")
    p.add_argument(
        "--max-vertices",
        type=int,
        default=MAX_VERTICES,
        help=f"vertex-count guard (default {MAX_VERTICES})",
    )
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("retract", help="retract a word onto a vertex subset")
    p.add_argument("graph")
    p.add_argument("subset", help="comma-separated vertex names")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="show the per-letter audit")
    common(p)
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("reduce", help="canonical reduced word of the Coxeter image")
    p.add_argument("graph")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("coset", help="split the Coxeter image across a standard subgroup")
    p.add_argument("graph")
    p.add_argument("subset", help="comma-separated vertex names")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("split", help="amalgam decomposition over a non-adjacent pair")
    p.add_argument("graph")
    p.add_argument("x")
    p.add_argument("y")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("word", help="positivity, support, abelianization, purity")
    p.add_argument("graph")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("dihedral", help="rank-2 normal form or equality")
    p.add_argument("graph", help="graph file with exactly two vertices")
    p.add_argument("word")
    p.add_argument("word2", nargs="?", help="second word for an equality test")
    common(p)
    p.set_defaults(func=cmd_dihedral)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not args.dir and not args.graph:
        parser.error("analyze needs a graph file or --dir")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
