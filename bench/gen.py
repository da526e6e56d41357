"""Seeded input generators for the benchmark workloads (stdlib only).

Every request is generated from ``random.Random(f"{workload}:{seed}:{index}")``,
so a seed fixes the whole request stream byte for byte, and request ``i`` does
not depend on how many requests before it were consumed.  A request is one
CLI invocation: its argv (paths relative to the working directory the CLI is
started in), the input files it needs, the units of work it carries, and what
the independent checks in ``oracles.py`` need to know about it.

Request sizes, the mix of request kinds and the graphs of the word workloads
are fixed by the request index, and sizes are set so that every request of a
workload costs about the same; the seed varies the words, the random graphs'
labels and the order of the family graphs.  That keeps runs with different
seeds comparable, so their spread measures the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

INF = "inf"

# Labels a random graph may carry, with their weights; "inf" is no edge.
RANDOM_LABELS = ((2, 30), (3, 25), (4, 10), (5, 8), (6, 7), (INF, 20))
# Each retract-long graph carries these labels in these proportions, shuffled
# over its pairs, so that graphs from different seeds cost about the same.
RETRACT_LABEL_CYCLE = (2, 3, 2, 3, INF, 2, 3, 4, 6, INF)

# Required labels per field degree: lcm N of the labels has phi(2N) = degree.
# Filler labels 2, 3 and inf divide every N below, so they keep the degree.
# The graphs are fixed: required labels first, then the fillers, on the pairs
# in order.  The seed draws the words, so runs with different seeds do the
# same kind of work on the same fields.
HIGHDEG_LABELS = {96: (4, 5, 9), 192: (3, 4, 5, 7), 288: (2, 5, 7, 9), 1152: (5, 7, 8, 9)}
HIGHDEG_FILLERS = (3, 2, INF, 2, 3, 2, INF)
HIGHDEG_VERTICES = {96: 5, 192: 5, 288: 4, 1152: 4}
# Word length per degree, so that requests at 96, 192 and 288 cost about the
# same.  A degree-1152 request costs two to three times as much, most of it
# field set-up, so only one request in seven has that degree: then neither the
# median nor the tail percentile falls into the gap between the two costs.
HIGHDEG_LETTERS = {96: 20, 192: 9, 288: 7, 1152: 3}
HIGHDEG_CYCLE = (96, 192, 288, 96, 192, 288, 1152)


@dataclass
class Request:
    """One CLI invocation with its inputs and what the oracles need."""

    index: int
    kind: str
    argv: list[str]
    files: dict[str, str]
    work: int
    expect: dict = field(default_factory=dict)
    group: int | None = None  # requests in one group are checked together
    deferred: bool = False  # run after the timed loop, for the checks only


def graph_text(vertices, edges) -> str:
    """The CLI's graph file format; edges are (i, j, label) with i < j."""
    lines = ["vertices: " + " ".join(vertices)]
    for i, j, m in edges:
        lines.append(f"edge {vertices[i]} {vertices[j]} {m}")
    return "\n".join(lines) + "\n"


def _weighted(rng: random.Random, table) -> object:
    labels, weights = zip(*table)
    return rng.choices(labels, weights)[0]


def _complete(n: int, diagram: dict[tuple[int, int], object], default) -> list:
    """Every pair i < j, with the diagram's label or the default."""
    return [(i, j, diagram.get((i, j), default)) for i in range(n) for j in range(i + 1, n)]


def walk(rng: random.Random, verts, length: int) -> list[tuple[str, int]]:
    """A random word with no vertex twice in a row.  Words drawn this way
    cancel less by chance, so their cost varies less from seed to seed."""
    letters: list[tuple[str, int]] = []
    while len(letters) < length:
        v = rng.choice(verts)
        if not letters or letters[-1][0] != v:
            letters.append((v, rng.choice((1, -1))))
    return letters


def word_text(letters) -> str:
    return " ".join(v if e == 1 else f"{v}^-1" for v, e in letters)


# -- certify-corpus ----------------------------------------------------------

# name -> (vertex count, diagram edges with labels != 2, Coxeter number h,
# whether -1 lies in W).  Pairs not in the diagram carry an explicit label 2.
def _path(n, labels=None):
    labels = labels or [3] * (n - 1)
    return {(i, i + 1): labels[i] for i in range(n - 1)}


def spherical_families() -> dict[str, tuple[int, dict, int, bool]]:
    fam: dict[str, tuple[int, dict, int, bool]] = {}
    for n in range(1, 9):
        fam[f"A{n}"] = (n, _path(n), n + 1, n == 1)
    for n in range(2, 9):
        fam[f"B{n}"] = (n, _path(n, [3] * (n - 2) + [4]), 2 * n, True)
    for n in range(4, 9):
        d = _path(n - 1)
        d[(n - 3, n - 1)] = 3
        fam[f"D{n}"] = (n, d, 2 * n - 2, n % 2 == 0)
    for n, h, minus1 in ((6, 12, False), (7, 18, True), (8, 30, True)):
        d = _path(n - 1)
        d[(2, n - 1)] = 3
        fam[f"E{n}"] = (n, d, h, minus1)
    fam["F4"] = (4, _path(4, [3, 4, 3]), 12, True)
    fam["H3"] = (3, _path(3, [5, 3]), 10, True)
    fam["H4"] = (4, _path(4, [5, 3, 3]), 30, True)
    for m in range(3, 13):
        fam[f"I2_{m}"] = (2, {(0, 1): m}, m, m % 2 == 0)
    return fam


FAMILIES = spherical_families()


def family_graph(name: str) -> tuple[str, dict]:
    """Graph text and expected verdict of a named family member."""
    if name == "I2_2":  # A1 x A1: two commuting generators
        return graph_text(["s", "t"], [(0, 1, 2)]), {"family": name, "factors": [[1, 2, True]] * 2}
    if name.startswith("At"):  # affine A~n: an (n+1)-cycle of label-3 edges
        k = int(name[2:]) + 1
        verts = [f"c{i}" for i in range(k)]
        if k == 2:
            return graph_text(verts, [(0, 1, INF)]), {"family": name, "trivial": True}
        cycle = {(i, i + 1): 3 for i in range(k - 1)}
        cycle[(0, k - 1)] = 3
        return graph_text(verts, _complete(k, cycle, 2)), {"family": name, "trivial": True}
    n, diagram, h, minus1 = FAMILIES[name]
    verts = [f"{name[0].lower()}{i}" for i in range(n)]
    return graph_text(verts, _complete(n, diagram, 2)), {"family": name, "factors": [[n, h, minus1]]}


FAMILY_NAMES = sorted(FAMILIES) + ["I2_2"] + [f"At{n}" for n in range(1, 10)]


def random_graph(rng: random.Random, style: str, n: int) -> str:
    """A random labelled graph: 'cone' has cone points, 'conefree' has none."""
    verts = [f"v{i}" for i in range(n)]
    labels = {(i, j): _weighted(rng, RANDOM_LABELS) for i in range(n) for j in range(i + 1, n)}
    if style == "cone":
        for c in rng.sample(range(n), rng.randint(1, 2)):
            for other in range(n):
                key = (min(c, other), max(c, other))
                if other != c and labels[key] == INF:
                    labels[key] = rng.choice((2, 3, 4))
    elif style == "conefree":
        for v in range(n):
            if all(labels[(min(v, u), max(v, u))] != INF for u in range(n) if u != v):
                u = rng.choice([u for u in range(n) if u != v])
                labels[(min(u, v), max(u, v))] = INF
    return graph_text(verts, [(i, j, m) for (i, j), m in sorted(labels.items()) if m != INF])


CERTIFY_STYLES = ("cone", "conefree", "mixed")
CERTIFY_SIZES = range(4, 11)


def certify_request(seed: int, index: int, shard_size: int) -> Request:
    """A shard whose make-up is fixed: three graphs in ten are family members,
    every fifth one of the list from a seeded start, and the rest are random
    graphs that go through every style and every vertex count in turn; the
    seed draws their labels.  So shards from different seeds cost about the
    same."""
    rng = random.Random(f"certify-corpus:{seed}:{index}")
    d = f"r{index}"
    files, expect = {}, {}
    family = rng.randrange(len(FAMILY_NAMES))
    drawn = 0
    for k in range(shard_size):
        name = f"{d}/g{k:02d}.graph"
        if k % 10 < 3:
            files[name], expect[name] = family_graph(FAMILY_NAMES[family % len(FAMILY_NAMES)])
            family += 5
        else:
            style = CERTIFY_STYLES[drawn % len(CERTIFY_STYLES)]
            n = CERTIFY_SIZES[drawn % len(CERTIFY_SIZES)]
            drawn += 1
            files[name] = random_graph(rng, style, n)
            expect[name] = {"random": style}
    return Request(index, "analyze-dir", ["analyze", "--dir", d, "--json"], files, shard_size, expect)


# -- reduce-highdeg ----------------------------------------------------------


def highdeg_graph(degree: int) -> tuple[list[str], str]:
    """The fixed graph of a field degree: its vertices and its file text."""
    n = HIGHDEG_VERTICES[degree]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = HIGHDEG_LABELS[degree] + HIGHDEG_FILLERS
    verts = [f"x{i}" for i in range(n)]
    return verts, graph_text(verts, [(i, j, m) for (i, j), m in zip(pairs, labels) if m != INF])


def highdeg_request(seed: int, index: int) -> Request:
    rng = random.Random(f"reduce-highdeg:{seed}:{index}")
    degree = HIGHDEG_CYCLE[index % len(HIGHDEG_CYCLE)]
    verts, text = highdeg_graph(degree)
    letters = walk(rng, verts, HIGHDEG_LETTERS[degree])
    gfile = f"h{index}.graph"
    files = {gfile: text}
    expect = {"degree": degree, "letters": letters}
    # each round of the cycle has one reduce and one coset at 96, 192 and 288
    position, round_ = divmod(index, len(HIGHDEG_CYCLE))[::-1]
    if position < 3 or (position == 6 and round_ % 2 == 0):
        argv = ["reduce", gfile, word_text(letters), "--json"]
        return Request(index, "reduce", argv, files, len(letters), expect)
    expect["subset"] = verts[: len(verts) // 2]
    argv = ["coset", gfile, ",".join(expect["subset"]), word_text(letters), "--json"]
    return Request(index, "coset", argv, files, len(letters), expect)


# -- retract-long ------------------------------------------------------------

# Letters per word, by vertex count and by kind of word, chosen so that every
# timed request costs about the same: then the median and the tail percentile
# fall inside one cluster of request times.  A 7-vertex letter costs about 1.5
# times a 6-vertex one; a letter of a word over the subset passes through and
# costs less; --trace costs grow faster than linearly (a reduced word per step
# and part: 150 letters took 25 s traced), so traced words are short.
RETRACT_LETTERS = {6: 65, 7: 45}
RETRACT_SUBSET_LETTERS = {6: 220, 7: 220}
RETRACT_TRACED_LETTERS = {6: 22, 7: 16}
# One word in five is traced and one in five lies over the subset.
RETRACT_TRACED, RETRACT_OVER_SUBSET = 2, 0


def retract_graph(n: int) -> tuple[list[str], list[str], str]:
    """The fixed graph on n vertices: its vertices, the subset retracted onto,
    and its file text.  The labels follow RETRACT_LABEL_CYCLE over the pairs."""
    verts = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cycle = RETRACT_LABEL_CYCLE * (len(pairs) // len(RETRACT_LABEL_CYCLE) + 1)
    edges = [(i, j, m) for (i, j), m in zip(pairs, cycle) if m != INF]
    return verts, [verts[0], verts[2], verts[4]], graph_text(verts, edges)


def retract_requests(seed: int, index: int) -> list[Request]:
    """One word, retracted; a traced word is retracted with --trace, after a
    plain retraction that is deferred, because it only serves the check."""
    rng = random.Random(f"retract-long:{seed}:{index}")
    n = 6 + index % 2
    verts, subset, text = retract_graph(n)
    over_subset = index % 5 == RETRACT_OVER_SUBSET
    traced = index % 5 == RETRACT_TRACED
    if over_subset:
        letters = walk(rng, subset, RETRACT_SUBSET_LETTERS[n])
    else:
        letters = walk(rng, verts, (RETRACT_TRACED_LETTERS if traced else RETRACT_LETTERS)[n])
    gfile = f"t{index}.graph"
    files = {gfile: text}
    expect = {"subset": subset, "letters": letters, "over_subset": over_subset}
    argv = ["retract", gfile, ",".join(subset), word_text(letters), "--json"]
    if not traced:
        return [Request(index, "retract", argv, files, len(letters), expect, group=index)]
    return [Request(index, "retract", argv, files, len(letters), expect, group=index, deferred=True),
            Request(index, "retract-trace", argv + ["--trace"], files, len(letters), expect,
                    group=index)]


# -- garside-long ------------------------------------------------------------

# Letters per word by label, so that requests cost about the same: the
# normal form is quadratic, and a letter costs more at large m.  Free
# reduction (m = inf) is linear and cheap; its requests, one in 23, are
# the only ones well below the others.
GARSIDE_NF_LETTERS = {2: 720, 3: 600, 4: 540, 5: 540, 6: 540} | dict.fromkeys(range(7, 13), 500)
# per word, before the cancelling pairs are inserted
GARSIDE_EQ_LETTERS = {2: 620, 3: 530, 4: 480, 5: 460, 6: 420, 7: 400, 8: 400, 9: 340, 10: 350,
                      11: 340, 12: 300, INF: 450}
GARSIDE_FREE_LETTERS = 1500
# Each label twice, inf once: requests alternate between normal forms and
# equality, so over 46 requests every label has both kinds.
GARSIDE_LABELS = list(range(2, 13)) * 2 + [INF]


def _alternating(start: str, m: int, e: int) -> list[tuple[str, int]]:
    other = "t" if start == "s" else "s"
    block = [((start, other)[i % 2], 1) for i in range(m)]
    return block if e == 1 else [(v, -1) for v, _ in reversed(block)]


def _random_letters(rng, k):
    return [(rng.choice("st"), rng.choice((1, -1))) for _ in range(k)]


def equal_pair(rng: random.Random, m, target: int):
    """Two words equal in the rank-2 Artin group with label m.

    The first is built from chunks, some of them alternating blocks of m
    letters; the second swaps a random half of those blocks for the other
    side of the braid relation and inserts cancelling pairs v v^-1.
    """
    a, b = [], []
    while len(b) < target:
        if m != INF and rng.random() < 0.35:
            e = rng.choice((1, -1))
            start = rng.choice("st")
            a += _alternating(start, m, e)
            swapped = "t" if start == "s" else "s"
            b += _alternating(swapped if rng.random() < 0.5 else start, m, e)
        else:
            chunk = _random_letters(rng, rng.randint(1, 6))
            a += chunk
            b += chunk
        if rng.random() < 0.2:
            v, e = rng.choice("st"), rng.choice((1, -1))
            b += [(v, e), (v, -e)]
    return a, b


def garside_request(seed: int, index: int) -> Request:
    rng = random.Random(f"garside-long:{seed}:{index}")
    m = GARSIDE_LABELS[index % len(GARSIDE_LABELS)]
    gfile = f"d{index}.graph"
    files = {gfile: graph_text(["s", "t"], [] if m == INF else [(0, 1, m)])}
    if index % 2 == 0:
        length = GARSIDE_FREE_LETTERS if m == INF else GARSIDE_NF_LETTERS[m]
        letters = _random_letters(rng, length)
        argv = ["dihedral", gfile, word_text(letters), "--json"]
        kind = "free" if m == INF else "nf"
        return Request(index, kind, argv, files, len(letters), {"m": m, "letters": letters})
    a, b = equal_pair(rng, m, GARSIDE_EQ_LETTERS[m])
    equal = rng.random() < 0.6
    if not equal:  # flip one exponent: the exponent sums then differ by 2
        k = rng.randrange(len(b))
        b[k] = (b[k][0], -b[k][1])
    argv = ["dihedral", gfile, word_text(a), word_text(b), "--json"]
    expect = {"m": m, "a": a, "b": b, "equal": equal}
    return Request(index, "eq", argv, files, len(a) + len(b), expect)


# -- streams -----------------------------------------------------------------

CERTIFY_SHARD = 30
# Timed requests per round: the request mix repeats with this period, and a
# run ends only after a whole round, so that every run has the same mix.
ROUND = {"certify-corpus": 1, "reduce-highdeg": len(HIGHDEG_CYCLE), "retract-long": 5,
         "garside-long": 2}
WORK_UNIT = {
    "certify-corpus": "graphs given a verdict",
    "reduce-highdeg": "input letters",
    "retract-long": "input letters",
    "garside-long": "input letters",
}


def requests(workload: str, seed: int):
    """The endless, seed-determined request stream of a workload."""
    index = 0
    while True:
        if workload == "certify-corpus":
            yield certify_request(seed, index, CERTIFY_SHARD)
        elif workload == "reduce-highdeg":
            yield highdeg_request(seed, index)
        elif workload == "retract-long":
            yield from retract_requests(seed, index)
        elif workload == "garside-long":
            yield garside_request(seed, index)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += 1


SETUP_GRAPH = graph_text(["a"], [])
