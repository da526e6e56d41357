"""Command-line interface.

Every command reads a graph file and builds one JSON result.  With --json it
prints the stable envelope {command, version, input, result}; otherwise it
prints a text rendering of that result, so text and JSON agree by
construction.  The analyze command's exit code triages corpora: 0 when the
center is certified, 2 when any factor is inconclusive, 1 on input errors.

Each command imports the layer it works in when it runs: analyze, split and
dihedral never load the field arithmetic, and only analyze loads the
analyzer.  A well-formed command line is parsed without argparse, which is
loaded only for help, --version and usage errors; json is loaded only to
write JSON.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .graph import INF, MAX_VERTICES, DefiningGraph, parse_graph
from .words import MAX_LETTERS, abelianize, parse_word

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _sha256(data: bytes) -> str:
    # the interpreter's own SHA-256, as hashlib's OpenSSL backend costs 4-6 ms
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without it
        from hashlib import sha256
    return sha256(data).hexdigest()


def _load_graph(path: str) -> tuple[DefiningGraph, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    g = parse_graph(data.decode("utf-8"))
    return g, {"path": path, "sha256": _sha256(data)}


def _envelope(command: str, input_info: dict, result: dict) -> dict:
    return {"command": command, "version": __version__, "input": input_info, "result": result}


def _emit(args, command: str, info: dict, result: dict, render) -> None:
    """Print the envelope under --json, otherwise the text render(result)."""
    if args.json:
        import json

        print(json.dumps(_envelope(command, info, result), indent=2, sort_keys=True))
    else:
        print(render(result))


def _spell(names) -> str:
    """A word given as its letters, with the identity written 1."""
    return " ".join(names) or "1"


def _braces(names) -> str:
    return "{" + ", ".join(names) + "}"


# -- analyze ----------------------------------------------------------------


def _analyze_one(path: str, max_vertices: int) -> tuple[dict, dict, int]:
    from .analyzer import establish

    g, info = _load_graph(path)
    report = establish(g, max_vertices=max_vertices)
    code = EXIT_OK if report.established else EXIT_UNKNOWN
    return info, report.to_dict(), code


def _render_analysis(report: dict, indent: str = "") -> str:
    lines = [
        f"{indent}graph: {' '.join(report['vertices']) or '(empty)'}",
        f"{indent}irreducible factors: {len(report['factors'])}",
    ]
    for i, f in enumerate(report["factors"], start=1):
        reason = f" ({f['reason']})" if f["reason"] else ""
        lines.append(f"{indent}factor {i} {_braces(f['vertices'])}: {f['kind']}{reason}")
        if f["generator"] is not None:
            lines.append(f"{indent}  center generator: {f['generator']}")
        if f["cone_points"] is not None:
            lines.append(f"{indent}  cone points: {_braces(f['cone_points'])}")
        if f["child"] is not None:
            lines.append(f"{indent}  cone subgraph analysis:")
            lines.append(_render_analysis(f["child"], indent + "    "))
    for step in report["reasoning"]:
        factor = _braces(step["factor"])
        lines.append(f"{indent}rule[{step['rule']}] on {factor}: {step['statement']}")
    rank = report["center_rank"]
    if report["established"]:
        lines.append(f"{indent}ESTABLISHED: center rank {rank}")
    else:
        lines.append(f"{indent}NOT ESTABLISHED: center rank undetermined, at least {rank}")
    if report["center_generators"]:
        lines.append(f"{indent}center generators: {'; '.join(report['center_generators'])}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    if args.dir:
        # only a directory run lists files and writes reports, in JSON
        import json
        import tempfile
        from pathlib import Path

        paths = sorted(str(p) for p in Path(args.dir).iterdir() if p.suffix == ".graph")
        if not paths:
            print(f"no .graph files in {args.dir}", file=sys.stderr)
            return EXIT_ERROR
        # mkstemp makes files 0600; reports get what open(path, "w") gives
        umask = os.umask(0)
        os.umask(umask)
        worst = EXIT_OK
        saw_error = False
        summary = []
        for path in paths:
            try:
                info, result, code = _analyze_one(path, args.max_vertices)
                out = Path(path).with_suffix(".report.json")
                text = json.dumps(_envelope("analyze", info, result), indent=2, sort_keys=True)
                fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(text)  # one call: json.dump calls write once per token
                    os.chmod(tmp, 0o666 & ~umask)
                    os.replace(tmp, out)
                except OSError as exc:
                    raise OSError(f"cannot write {out}: {exc.strerror or exc}") from None
                finally:
                    if os.path.lexists(tmp):
                        os.unlink(tmp)
            except Exception as exc:  # one bad file must not stop the batch
                saw_error = True
                print(f"{path}: error: {exc}", file=sys.stderr)
                summary.append({"path": path, "error": str(exc)})
                continue
            worst = max(worst, code)
            established = result["established"]
            rank = result["center_rank"]
            summary.append({"path": path, "established": established, "center_rank": rank})
            if not args.json:
                status = "established" if established else "unknown"
                print(f"{path}: {status}, center rank {rank}")
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_ERROR if saw_error else worst

    info, result, code = _analyze_one(args.graph, args.max_vertices)
    _emit(args, "analyze", info, result, _render_analysis)
    return code


# -- word-level commands ------------------------------------------------------


def _letter(vertex: str, exponent: int) -> str:
    return vertex if exponent == 1 else f"{vertex}^-1"


def _render_retract(result: dict) -> str:
    output = result["output"] or "1"
    if "trace" not in result:
        return f"retraction: {output}"
    header = f"retraction onto {_braces(result['subset'])}"
    lines = [header, "-" * len(header)]
    lines.append(f"{'i':>3}  {'letter':<8} {'subgroup part':<20} {'reduced part':<20} {'reflection':<24} emitted")
    for row in result["trace"]:
        letter = _letter(*row["letter"])
        vp, wp, refl = (_spell(row[k]) for k in ("subgroup_part", "reduced_part", "reflection"))
        emitted = "-" if row["emitted"] is None else _letter(*row["emitted"])
        lines.append(f"{row['position'] + 1:>3}  {letter:<8} {vp:<20} {wp:<20} {refl:<24} {emitted}")
    lines.append(f"output: {output}")
    return "\n".join(lines)


def cmd_retract(args) -> int:
    from .retraction import retract, retract_trace

    g, info = _load_graph(args.graph)
    subset = g.subset(_split_subset(args.subset))
    word = parse_word(args.word, g)
    trace = retract_trace(g, subset, word) if args.trace else None
    output = retract(g, subset, word) if trace is None else trace.output
    result = {"subset": list(subset), "word": args.word, "output": output.to_text()}
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
    _emit(args, "retract", info, result, _render_retract)
    return EXIT_OK


def _render_reduce(result: dict) -> str:
    return (
        f"reduced word: {_spell(result['reduced_word'])}\n"
        f"length: {result['length']}\n"
        f"left descents: {_braces(result['left_descents'])}\n"
        f"right descents: {_braces(result['right_descents'])}"
    )


def cmd_reduce(args) -> int:
    from .coxeter import theta

    g, info = _load_graph(args.graph)
    word = parse_word(args.word, g)
    image = theta(g, word)
    reduced = image.reduced_word()
    result = {
        "word": args.word,
        "reduced_word": list(reduced),
        "length": len(reduced),
        "left_descents": list(image.left_descents()),
        "right_descents": list(image.right_descents()),
    }
    _emit(args, "reduce", info, result, _render_reduce)
    return EXIT_OK


def _render_coset(result: dict) -> str:
    return (
        f"subgroup part: {_spell(result['subgroup_part'])}\n"
        f"reduced part:  {_spell(result['reduced_part'])}"
    )


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
    _emit(args, "coset", info, result, _render_coset)
    return EXIT_OK


def _render_split(result: dict) -> str:
    left, base, right = result["left"], result["base"], result["right"]
    return (
        f"A{_braces(left)} *_A{_braces(base)} A{_braces(right)}\n"
        f"left  = graph minus {result['x']}: vertices {' '.join(left) or '(none)'}\n"
        f"base  = graph minus both:  vertices {' '.join(base) or '(none)'}\n"
        f"right = graph minus {result['y']}: vertices {' '.join(right) or '(none)'}"
    )


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
    _emit(args, "split", info, result, _render_split)
    return EXIT_OK


def _render_word(result: dict) -> str:
    counts = ", ".join(f"{v}:{k}" for v, k in result["abelianization"].items())
    return (
        f"letters: {result['length']}\n"
        f"positive: {result['positive']}\n"
        f"support: {_braces(result['support'])}\n"
        f"abelianization: {counts}\n"
        f"pure (trivial Coxeter image): {result['pure']}\n"
        f"Coxeter image reduced word: {_spell(result['coxeter_image'])}"
    )


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
    _emit(args, "word", info, result, _render_word)
    return EXIT_OK


def _render_dihedral(result: dict) -> str:
    if "equal" in result:
        return f"equal: {result['equal']}"
    if "free_reduced" in result:
        return f"freely reduced: {result['free_reduced'] or '1'}"
    nf = result["normal_form"]
    return f"normal form: delta^{nf['delta_power']} . {' . '.join(nf['factors']) or '1'}"


def cmd_dihedral(args) -> int:
    from .dihedral import dihedral_equal, free_reduce, garside_nf

    g, info = _load_graph(args.graph)
    if len(g.vertices) != 2:
        raise ValueError("dihedral command requires a graph with exactly 2 vertices")
    gens = (g.vertices[0], g.vertices[1])
    m = g.label(*gens)
    word = parse_word(args.word, g)
    result: dict = {"label": "inf" if m == INF else m, "generators": list(gens)}
    if args.word2 is not None:
        result["equal"] = dihedral_equal(m, word, parse_word(args.word2, g), gens)
    elif m == INF:
        result["free_reduced"] = free_reduce(word).to_text()
    else:
        nf = garside_nf(int(m), word, gens)
        # the factors are spelled out letter by letter; refuse before that
        if sum(k for _, k in nf.factors) > MAX_LETTERS:
            raise ValueError(f"normal form exceeds the {MAX_LETTERS}-letter guard")
        factors = ["".join(gens[(s + i) % 2] for i in range(k)) for s, k in nf.factors]
        result["normal_form"] = {"delta_power": nf.delta_power, "factors": factors}
    _emit(args, "dihedral", info, result, _render_dihedral)
    return EXIT_OK


def _split_subset(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# Each subcommand's help line and arguments, in the order argparse lists them:
# the name, then add_argument's keywords.  A name starting with "--" is an
# option; every subcommand also takes _JSON.  _build_parser and _match both
# read this table.
_COMMANDS = {
    "analyze": ("certify the center of a graph's Artin group", (
        ("graph", {"nargs": "?", "help": "graph file"}),
        ("--dir", {"help": "analyze every .graph file in a directory"}),
        ("--max-vertices", {"type": int, "default": MAX_VERTICES,
                            "help": f"vertex-count guard (default {MAX_VERTICES})"}),
    )),
    "retract": ("retract a word onto a vertex subset", (
        ("graph", {}),
        ("subset", {"help": "comma-separated vertex names"}),
        ("word", {}),
        ("--trace", {"action": "store_true", "help": "show the per-letter audit"}),
    )),
    "reduce": ("canonical reduced word of the Coxeter image", (
        ("graph", {}),
        ("word", {}),
    )),
    "coset": ("split the Coxeter image across a standard subgroup", (
        ("graph", {}),
        ("subset", {"help": "comma-separated vertex names"}),
        ("word", {}),
    )),
    "split": ("amalgam decomposition over a non-adjacent pair", (
        ("graph", {}),
        ("x", {}),
        ("y", {}),
    )),
    "word": ("positivity, support, abelianization, purity", (
        ("graph", {}),
        ("word", {}),
    )),
    "dihedral": ("rank-2 normal form or equality", (
        ("graph", {"help": "graph file with exactly two vertices"}),
        ("word", {}),
        ("word2", {"nargs": "?", "help": "second word for an equality test"}),
    )),
}
_JSON = ("--json", {"action": "store_true", "help": "emit a JSON envelope"})


def _build_parser():
    """The full argparse parser, for help, --version and every argv _match refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="artincenter",
        description="Exact Artin/Coxeter computations and center certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, keywords in arguments + (_JSON,):
            p.add_argument(name, **keywords)
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed argv: the command, its
    positionals, then its options, each spelled in full and given once.
    None for anything else (help, --version, abbreviations, --opt=value, an
    option before a positional, a usage error), which is left to argparse,
    its messages and its differences between Python versions."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    values = {"command": command, "func": globals()[f"cmd_{command}"]}
    required, optional, options = [], [], {}
    for name, keywords in _COMMANDS[command][1] + (_JSON,):
        dest = name.lstrip("-").replace("-", "_")
        if name.startswith("-"):
            options[name] = (dest, keywords)
            values[dest] = False if keywords.get("action") == "store_true" else keywords.get("default")
        else:
            (optional if keywords.get("nargs") == "?" else required).append(dest)
            values[dest] = None
    given = next((i for i, arg in enumerate(rest) if arg.startswith("-")), len(rest))
    if not len(required) <= given <= len(required) + len(optional):
        return None
    values.update(zip(required + optional, rest[:given]))
    it = iter(rest[given:])
    for arg in it:
        if arg not in options:  # unknown, abbreviated, --opt=value or repeated
            return None
        dest, keywords = options.pop(arg)
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(it, None)
        if value is None or value.startswith("-"):
            return None
        if keywords.get("type") is int:
            # argparse's int() also takes signs, underscores and non-ASCII digits
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's limit on digits
                return None
        values[dest] = value
    if command == "analyze" and not values["dir"] and not values["graph"]:
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
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
