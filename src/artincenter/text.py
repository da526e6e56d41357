"""Text views of the command results.

Each command builds one JSON result, and its text output is a view of that
result, so text and JSON agree by construction.  Only text output loads this
module.
"""

from __future__ import annotations


def render(command: str, result: dict) -> str:
    """The text view of one command's result."""
    view = _render_analysis if command == "analyze" else globals()[f"_render_{command}"]
    return view(result)


def _spell(names) -> str:
    """A word given as its letters, with the identity written 1."""
    return " ".join(names) or "1"


def _braces(names) -> str:
    return "{" + ", ".join(names) + "}"


def _letter(vertex: str, exponent: int) -> str:
    return vertex if exponent == 1 else f"{vertex}^-1"


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


def _render_reduce(result: dict) -> str:
    return (
        f"reduced word: {_spell(result['reduced_word'])}\n"
        f"length: {result['length']}\n"
        f"left descents: {_braces(result['left_descents'])}\n"
        f"right descents: {_braces(result['right_descents'])}"
    )


def _render_coset(result: dict) -> str:
    return (
        f"subgroup part: {_spell(result['subgroup_part'])}\n"
        f"reduced part:  {_spell(result['reduced_part'])}"
    )


def _render_split(result: dict) -> str:
    left, base, right = result["left"], result["base"], result["right"]
    return (
        f"A{_braces(left)} *_A{_braces(base)} A{_braces(right)}\n"
        f"left  = graph minus {result['x']}: vertices {' '.join(left) or '(none)'}\n"
        f"base  = graph minus both:  vertices {' '.join(base) or '(none)'}\n"
        f"right = graph minus {result['y']}: vertices {' '.join(right) or '(none)'}"
    )


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


def _render_dihedral(result: dict) -> str:
    if "equal" in result:
        return f"equal: {result['equal']}"
    if "free_reduced" in result:
        return f"freely reduced: {result['free_reduced'] or '1'}"
    nf = result["normal_form"]
    return f"normal form: delta^{nf['delta_power']} . {' . '.join(nf['factors']) or '1'}"
