"""Command-line interface.

Every command reads a graph file and builds one JSON result.  With --json it
prints the stable envelope {command, version, input, result}; otherwise it
prints the text view of that result (in ``text``), so text and JSON agree by
construction.  The analyze command's exit code triages corpora: 0 when the
center is certified, 2 when any factor is inconclusive, 1 on input errors.
analyze takes a graph file or --dir, not both.  No option moves a limit:
graph.MAX_VERTICES and analyzer.MAX_CLIQUES are constants.

Each command imports the layer it works in when it runs: analyze, split and
dihedral never load the field arithmetic, only analyze loads the analyzer,
and split and dihedral never load the diagram classifier.  A well-formed
command line is parsed without argparse, which is loaded only for help,
--version and usage errors.  JSON is written by ``_dumps``, byte for byte
what json.dumps(obj, indent=2, sort_keys=True) gives, which loads json only
to escape a string; text views load only for text output.

A process exits through ``run``, the entry of the console script and of
``python -m``: once ``main`` returns, it runs the atexit callbacks (those
of ``site`` and ``sitecustomize`` included), flushes stdout and stderr and
ends with os._exit.  That skips the interpreter's teardown, a full garbage
collection and the clearing of every loaded module: about 9 ms of a 63 ms
``python -c pass`` on a shared 2-core Xeon whose ``site`` loads a hundred
modules (Python 3.11).  It falls back to sys.exit, and so to the teardown,
when main raises (help, --version and usage errors among them), when a
flush raises OSError (a closed pipe then still gives exit 120 and the
interpreter's "Exception ignored" line), and under a profiler, a tracer or
-i, whose report or prompt comes after the program.  ``main(argv)`` is
what the tests and library callers run.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .graph import INF, DefiningGraph, parse_graph
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


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for what a result holds:
    str, int, bool, None, lists and dicts with str keys.  json itself is
    loaded only to escape a string that is not printable ASCII or that holds
    a quote or a backslash."""
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        import json

        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, list):
        items = [_dumps(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("keys must be str")
        items = [f"{_dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj)]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit(args, command: str, info: dict, result: dict) -> None:
    """Print the envelope under --json, otherwise the command's text view."""
    if args.json:
        print(_dumps(_envelope(command, info, result)))
    else:
        from .text import render

        print(render(command, result))


# -- analyze ----------------------------------------------------------------


def _analyze_one(path: str) -> tuple[dict, dict, int]:
    from .analyzer import establish

    g, info = _load_graph(path)
    report = establish(g)
    code = EXIT_OK if report.established else EXIT_UNKNOWN
    return info, report.to_dict(), code


def cmd_analyze(args) -> int:
    if args.dir:
        # only a directory run lists files and writes reports, in JSON
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
                info, result, code = _analyze_one(path)
                out = Path(path).with_suffix(".report.json")
                text = _dumps(_envelope("analyze", info, result))
                fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(text)
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
            print(_dumps(summary))
        return EXIT_ERROR if saw_error else worst

    info, result, code = _analyze_one(args.graph)
    _emit(args, "analyze", info, result)
    return code


# -- word-level commands ------------------------------------------------------


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
    _emit(args, "retract", info, result)
    return EXIT_OK


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
    _emit(args, "reduce", info, result)
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
    _emit(args, "coset", info, result)
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
    _emit(args, "split", info, result)
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
    _emit(args, "word", info, result)
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
    _emit(args, "dihedral", info, result)
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
            values[dest] = False if keywords.get("action") == "store_true" else None
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
        values[dest] = value
    if command == "analyze" and bool(values["dir"]) == bool(values["graph"]):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "analyze" and bool(args.dir) == bool(args.graph):
            parser.error("analyze needs a graph file or --dir" + (", not both" if args.dir else ""))
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _observed() -> bool:
    """Whether a profiler, a tracer or -i waits to act after the program."""
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: cProfile uses it
    return bool(
        sys.getprofile() or sys.gettrace() or sys.flags.inspect
        or (monitoring and any(monitoring.get_tool(i) for i in range(6)))
    )


def run() -> None:
    """Run main on sys.argv and end the process with its exit code."""
    code = main()
    if not _observed():
        import atexit

        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except OSError:
            pass  # the teardown flushes again and reports it
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
