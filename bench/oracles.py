"""Independent checks of CLI outputs; none of them imports the package under test.

Each check returns a list with one entry per output item: True (right),
False (wrong) or None (unchecked, e.g. a float test too close to call).

* certify-corpus: spherical families by the classification (center rank is
  the number of irreducible components; the generator is the declaration-order
  Coxeter word to the power h/2 when -1 lies in W, else h); affine cycles are
  established with rank 0.  Random graphs by this module's own join-factor
  split, a float Cholesky of 2B and the float order of the Coxeter element.
* reduce / coset: a replay in the reflection representation, in 60-digit
  decimal arithmetic (doubles lose the signs of roots on long words).
* dihedral: an exact affine model of the dihedral group, exponent sums and the
  left-weighted shape of the normal form; equality pairs are built equal or
  unequal by construction.
* retract: a word over the subset retracts to itself, the output lies over the
  subset, and the --trace audit's emitted letters concatenate to the plain
  output.
"""

from __future__ import annotations

import functools
import json
import math
import re
from decimal import Decimal, getcontext, localcontext

_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


# -- graphs and words ----------------------------------------------------------


def parse_graph(text: str) -> tuple[list[str], dict[tuple[int, int], float]]:
    """Vertices and the label of every pair i < j (math.inf when no edge)."""
    verts: list[str] = []
    labels: dict[tuple[int, int], float] = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "vertices:":
            verts = parts[1:]
        elif parts and parts[0] == "edge":
            i, j = sorted((verts.index(parts[1]), verts.index(parts[2])))
            labels[(i, j)] = math.inf if parts[3] == "inf" else int(parts[3])
    n = len(verts)
    return verts, {(i, j): labels.get((i, j), math.inf) for i in range(n) for j in range(i + 1, n)}


def label(labels, i: int, j: int) -> float:
    return labels[(min(i, j), max(i, j))]


def parse_word(text: str) -> list[tuple[str, int]]:
    letters: list[tuple[str, int]] = []
    for token in text.split():
        if token == "1":
            continue
        match = _TOKEN.match(token)
        if not match:
            raise ValueError(f"bad token {token!r}")
        k = int(match.group(2) or 1)
        letters += [(match.group(1), 1 if k > 0 else -1)] * abs(k)
    return letters


def join_factors(n: int, labels) -> list[list[int]]:
    """Components of the relation 'label != 2', ordered by smallest vertex."""
    comp = [-1] * n
    out = []
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = len(out)
        stack, members = [s], []
        while stack:
            u = stack.pop()
            members.append(u)
            for w in range(n):
                if w != u and comp[w] == -1 and label(labels, u, w) != 2:
                    comp[w] = len(out)
                    stack.append(w)
        out.append(sorted(members))
    return out


# -- reflection representation ------------------------------------------------


def _two_cos(m: float) -> float:
    return 2.0 if m == math.inf else 2.0 * math.cos(math.pi / m)


REPLAY_DIGITS = 60


def _decimal_pi() -> Decimal:
    """pi to the current precision (the recipe of the decimal module's docs)."""
    getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


@functools.lru_cache(maxsize=None)
def _two_cos_decimal(m: float) -> Decimal:
    if m == math.inf:
        return Decimal(2)
    with localcontext() as ctx:
        ctx.prec = REPLAY_DIGITS + 10
        x = _decimal_pi() / m
        term, total, k = Decimal(1), Decimal(1), 0
        while abs(term) > Decimal(10) ** -(REPLAY_DIGITS + 5):
            k += 2
            term = -term * x * x / (k * (k - 1))
            total += term
        ctx.prec = REPLAY_DIGITS
        return 2 * total


class Replay:
    """The reflection representation on the simple-root basis, over one kind
    of number: floats for the small spherical tests, 60-digit decimals for
    word replays.  Entries of long words in infinite groups grow
    exponentially, and doubles then lose the signs of small roots."""

    def __init__(self, two_cos, one, tol):
        self.two_cos, self.one, self.tol = two_cos, one, tol

    def reflection(self, n: int, labels, i: int) -> list[list]:
        """Matrix of s_i: alpha_i -> -alpha_i, alpha_c -> alpha_c + 2cos(pi/m_ic) alpha_i."""
        mat = self.identity(n)
        mat[i] = [-self.one if c == i else self.two_cos(label(labels, i, c)) for c in range(n)]
        return mat

    def identity(self, n: int) -> list[list]:
        return [[self.one * (r == c) for c in range(n)] for r in range(n)]

    def image(self, n, labels, indices) -> list[list]:
        out = self.identity(n)
        for i in indices:
            out = matmul(out, self.reflection(n, labels, i))
        return out

    def close(self, a, b) -> bool:
        scale = 1 + max(abs(x) for row in a for x in row)
        return all(abs(x - y) <= self.tol * scale for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def negative(self, mat, idx: int) -> bool:
        """Whether the root mat * alpha_idx is negative (its coordinates share
        one sign); raises Undecided when the sum is too small to call."""
        total = sum(row[idx] for row in mat)
        if abs(total) <= self.tol * (1 + max(abs(row[idx]) for row in mat)):
            raise Undecided
        return total < 0

    def canonical_word(self, n, labels, mat_inv) -> list[int]:
        """Greedy reduced word: strip the smallest left descent until none is
        left; left descents are negative columns of the inverse."""
        word = []
        while len(word) <= 10_000:
            k = next((i for i in range(n) if self.negative(mat_inv, i)), None)
            if k is None:
                return word
            word.append(k)
            mat_inv = matmul(mat_inv, self.reflection(n, labels, k))
        raise Undecided


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


class Undecided(Exception):
    """A test too close to call: the output counts as unchecked."""


FLOAT = Replay(_two_cos, 1.0, 1e-7)
# run inside a decimal context of REPLAY_DIGITS digits (see check)
EXACT = Replay(_two_cos_decimal, Decimal(1), Decimal(10) ** -(REPLAY_DIGITS // 2))


# -- per-workload checks -------------------------------------------------------


def _envelope(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def check_reduce(req, graph_text: str, stdout: str) -> list:
    verts, labels = parse_graph(graph_text)
    n = len(verts)
    idx = [verts.index(v) for v, _ in req.expect["letters"]]
    res = _envelope(stdout)
    try:
        w = EXACT.image(n, labels, idx)
        w_inv = EXACT.image(n, labels, idx[::-1])
        want = [verts[i] for i in EXACT.canonical_word(n, labels, w_inv)]
        right = [verts[i] for i in range(n) if EXACT.negative(w, i)]
        left = [verts[i] for i in range(n) if EXACT.negative(w_inv, i)]
    except Undecided:
        return [None]
    ok = (
        res["reduced_word"] == want
        and res["length"] == len(want)
        and res["length"] % 2 == len(idx) % 2
        and res["left_descents"] == left
        and res["right_descents"] == right
        and EXACT.close(EXACT.image(n, labels, [verts.index(v) for v in res["reduced_word"]]), w)
    )
    return [ok]


def check_coset(req, graph_text: str, stdout: str) -> list:
    verts, labels = parse_graph(graph_text)
    n = len(verts)
    x = [verts.index(v) for v in req.expect["subset"]]
    idx = [verts.index(v) for v, _ in req.expect["letters"]]
    res = _envelope(stdout)
    sub = [verts.index(v) for v in res["subgroup_part"]]
    red = [verts.index(v) for v in res["reduced_part"]]
    try:
        w = EXACT.image(n, labels, idx)
        red_inv = EXACT.image(n, labels, red[::-1])
        ok = (
            res["subset"] == req.expect["subset"]
            and set(sub) <= set(x)
            and EXACT.close(matmul(EXACT.image(n, labels, sub), EXACT.image(n, labels, red)), w)
            and not any(EXACT.negative(red_inv, i) for i in x)
            and EXACT.canonical_word(n, labels, red_inv) == red
            and EXACT.canonical_word(n, labels, EXACT.image(n, labels, sub[::-1])) == sub
        )
    except Undecided:
        return [None]
    return [ok]


def _coxeter_power(n, labels) -> tuple[int, bool] | None:
    """Order h of the declaration-order Coxeter element and whether c^(h/2) = -1."""
    c = FLOAT.image(n, labels, range(n))
    p = c
    for h in range(1, 400):
        if FLOAT.close(p, FLOAT.identity(n)):
            half = FLOAT.image(n, labels, list(range(n)) * (h // 2)) if h % 2 == 0 else None
            minus = half is not None and FLOAT.close(
                half, [[-x for x in row] for row in FLOAT.identity(n)])
            return h, minus
        p = matmul(p, c)
    return None


def _spherical(n, labels) -> bool | None:
    """Float Cholesky of 2B.  A pivot at rounding level is taken as an exactly
    singular leading minor, so not positive definite: nonzero minors of these
    small-label forms are far from zero.  A small pivot above that level is
    too close to call (None)."""
    a = [[2.0 if i == j else -_two_cos(label(labels, i, j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if abs(pivot) <= 1e-9 or pivot <= -1e-4:  # singular or negative
            return False
        if abs(pivot) < 1e-4:
            return None
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def _induced(labels, members):
    return {(a, b): label(labels, members[a], members[b])
            for a in range(len(members)) for b in range(a + 1, len(members))}


def expected_verdict(graph_text: str, expect: dict) -> list | None:
    """[(factor vertices, generator letters or None)] or None when unchecked.

    Families use the classification table; random graphs the float tests.
    """
    verts, labels = parse_graph(graph_text)
    factors = join_factors(len(verts), labels)
    out = []
    for fi, members in enumerate(factors):
        sub = _induced(labels, members)
        if "factors" in expect:
            _, h, minus1 = expect["factors"][fi]
            spherical = True
        else:
            spherical = _spherical(len(members), sub)
            if spherical is None:
                return None
            if spherical:
                hm = _coxeter_power(len(members), sub)
                if hm is None:
                    return None
                h, minus1 = hm
        gen = None
        if spherical:
            gen = [(verts[i], 1) for i in members] * (h // 2 if minus1 else h)
        out.append(([verts[i] for i in members], gen))
    return out


def check_report(graph_text: str, expect: dict, report: dict) -> bool | None:
    res = report["result"]
    if expect.get("trivial"):  # affine cycles: established, trivial center
        return res["established"] is True and res["center_rank"] == 0 and not res["center_generators"]
    want = expected_verdict(graph_text, expect)
    if want is None:
        return None
    if [f["vertices"] for f in res["factors"]] != [v for v, _ in want]:
        return False
    for f, (_, gen) in zip(res["factors"], want):
        if (f["kind"] == "SPHERICAL") != (gen is not None):
            return False
        if gen is not None and parse_word(f["generator"]) != gen:
            return False
        if gen is None and f["kind"] not in ("ESTABLISHED_TRIVIAL", "UNKNOWN"):
            return False
    established = all(f["kind"] != "UNKNOWN" for f in res["factors"])
    return (
        res["established"] == established
        and res["center_rank"] == sum(g is not None for _, g in want)
        and res["center_generators"] == [f["generator"] for f in res["factors"] if f["generator"]]
    )


def check_analyze_dir(req, stdout: str, reports: dict[str, str]) -> list:
    summary = {entry["path"]: entry for entry in json.loads(stdout)}
    out = []
    for name, text in req.files.items():
        entry = summary.get(name)
        report_text = reports.get(name)
        if entry is None or "error" in entry or report_text is None:
            out.append(False)
            continue
        report = json.loads(report_text)
        res = report["result"]
        if (entry["established"], entry["center_rank"]) != (res["established"], res["center_rank"]):
            out.append(False)
            continue
        out.append(check_report(text, req.expect[name], report))
    return out


# -- dihedral -----------------------------------------------------------------


def dihedral_image(m: int, letters) -> tuple[int, int]:
    """Image in the dihedral group of order 2m, acting faithfully on Z/2m as
    the map x -> a*x + b, with s: x -> -x and t: x -> 2 - x."""
    a, b = 1, 0
    for v, _ in letters:
        c = 0 if v == "s" else 2
        a, b = -a, (c - b) % (2 * m)  # (x -> c - x) after (x -> a x + b)
    return a, b


def free_reduce(letters):
    stack = []
    for v, e in letters:
        if stack and stack[-1] == (v, -e):
            stack.pop()
        else:
            stack.append((v, e))
    return stack


def check_dihedral(req, stdout: str) -> list:
    res = _envelope(stdout)
    m = req.expect["m"]
    if req.kind == "eq":
        return [res["equal"] is req.expect["equal"]]
    letters = req.expect["letters"]
    if req.kind == "free":
        return [parse_word(res["free_reduced"]) == free_reduce(letters)]
    nf = res["normal_form"]
    factors, k = nf["factors"], nf["delta_power"]
    for f in factors:
        if not (0 < len(f) < m and all(f[i] != f[i + 1] for i in range(len(f) - 1))):
            return [False]
        if set(f) - {"s", "t"}:
            return [False]
    if any(u[-1] != v[0] for u, v in zip(factors, factors[1:])):
        return [False]
    exp_sum = sum(e for _, e in letters)
    if k * m + sum(len(f) for f in factors) != exp_sum:
        return [False]
    delta = [("st"[i % 2], 1) for i in range(m)]
    nf_letters = delta * abs(k) + [(c, 1) for f in factors for c in f]
    return [dihedral_image(m, nf_letters) == dihedral_image(m, letters)]


# -- retraction ------------------------------------------------------------------


def check_retract(req, stdout: str, plain_output: str | None) -> list:
    res = _envelope(stdout)
    letters = [tuple(x) for x in req.expect["letters"]]
    out = parse_word(res["output"])
    subset = set(req.expect["subset"])
    ok = all(v in subset for v, _ in out) and len(out) <= len(letters)
    if req.expect["over_subset"]:
        ok = ok and out == letters
    if req.kind == "retract-trace":
        trace = res.get("trace") or []
        emitted = [tuple(s["emitted"]) for s in trace if s["emitted"] is not None]
        ok = (
            ok
            and len(trace) == len(letters)
            and [tuple(s["letter"]) for s in trace] == letters
            and emitted == out
            and (plain_output is None or parse_word(plain_output) == out)
        )
    return [ok]


EXPECTED_CODES = {"analyze-dir": (0, 2)}


def check(req, stdout: str, reports: dict[str, str], plain_outputs: dict) -> list:
    """Check one request's output (its exit code was expected); plain_outputs
    maps a retract group to the output of its untraced request."""
    try:
        with localcontext() as ctx:
            ctx.prec = REPLAY_DIGITS
            return _check(req, stdout, reports, plain_outputs)
    except (ValueError, KeyError, TypeError, IndexError):  # malformed output
        return [False]


def _check(req, stdout: str, reports: dict[str, str], plain_outputs: dict) -> list:
    if req.kind == "analyze-dir":
        return check_analyze_dir(req, stdout, reports)
    if req.kind == "reduce":
        return check_reduce(req, next(iter(req.files.values())), stdout)
    if req.kind == "coset":
        return check_coset(req, next(iter(req.files.values())), stdout)
    if req.kind in ("nf", "free", "eq"):
        return check_dihedral(req, stdout)
    if req.kind in ("retract", "retract-trace"):
        result = check_retract(req, stdout, plain_outputs.get(req.group))
        if req.kind == "retract":
            plain_outputs[req.group] = _envelope(stdout)["output"]
        return result
    raise RuntimeError(f"no check for request kind {req.kind!r}")
