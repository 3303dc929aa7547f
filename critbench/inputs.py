"""The benchmark's inputs: graph and matrix generators, and the operation
list of each workload.

Everything here is built by the benchmark itself and handed to critlab only
as command lines and stdin text (edge lists and matrices), so the program
under test never sees how an input was made.  Nothing here imports critlab.
The same functions run in the measured worker (set-up) and in the parent,
which computes the reference answers from each operation's ``meta``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from checker import prime_factors, srg_order


def edge_list_text(n: int, edges) -> str:
    """critlab's edge-list format: "n m", then one "u v" line per edge."""
    edges = sorted(edges)
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def matrix_text(rows: list[list[int]]) -> str:
    """critlab's matrix format: "rows cols", then the entries row by row."""
    cols = len(rows[0]) if rows else 0
    body = "".join(" ".join(map(str, r)) + "\n" for r in rows)
    return f"{len(rows)} {cols}\n{body}"


def laplacian(n: int, edges) -> list[list[int]]:
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][v] -= 1
        lap[v][u] -= 1
        lap[u][u] += 1
        lap[v][v] += 1
    return lap


def cycle_edges(n: int) -> set[tuple[int, int]]:
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def petersen_edges() -> set[tuple[int, int]]:
    """Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = list(combinations(range(5), 2))
    return {
        (a, b)
        for a, b in combinations(range(len(pairs)), 2)
        if not set(pairs[a]) & set(pairs[b])
    }


def hoffman_singleton_edges() -> set[tuple[int, int]]:
    """Robertson's construction: pentagons P_h, pentagrams Q_i, P_h[j] ~ Q_i[h*i + j]."""
    edges = set()
    for h in range(5):
        for j in range(5):
            edges.add(tuple(sorted((5 * h + j, 5 * h + (j + 1) % 5))))
            edges.add(tuple(sorted((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))))
            for i in range(5):
                edges.add((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return edges


def triangular_edges(n: int) -> tuple[int, set[tuple[int, int]]]:
    """T(n): 2-subsets of an n-set, adjacent when they meet in one point."""
    pairs = list(combinations(range(n), 2))
    edges = {
        (a, b)
        for a, b in combinations(range(len(pairs)), 2)
        if len(set(pairs[a]) & set(pairs[b])) == 1
    }
    return len(pairs), edges


def rook_edges(m: int) -> tuple[int, set[tuple[int, int]]]:
    """K_m x K_m: cells of an m x m board, adjacent when in one row or column."""
    cells = [(r, c) for r in range(m) for c in range(m)]
    edges = {
        (a, b)
        for a, b in combinations(range(len(cells)), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
    }
    return len(cells), edges


def paley_edges(q: int) -> tuple[int, set[tuple[int, int]]]:
    """Paley(q), q a prime = 1 mod 4: x ~ y when x - y is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    edges = {(a, b) for a, b in combinations(range(q), 2) if (b - a) % q in squares}
    return q, edges


def srg_graphs() -> list[tuple[str, tuple[int, int, int, int], int, set]]:
    """The strongly regular graphs of the moore-srg and filtration workloads.

    Each entry is (label, (v, k, lambda, mu), n, edges).  C5, Petersen and
    Hoffman-Singleton are the real Moore graphs of valency 2, 3 and 7.
    """
    out = [
        ("c5", (5, 2, 0, 1), 5, cycle_edges(5)),
        ("petersen", (10, 3, 0, 1), 10, petersen_edges()),
        ("hosi", (50, 7, 0, 1), 50, hoffman_singleton_edges()),
    ]
    for n in range(5, 11):
        v, edges = triangular_edges(n)
        out.append((f"T{n}", (v, 2 * (n - 2), n - 2, 4), v, edges))
    for m in range(3, 8):
        v, edges = rook_edges(m)
        out.append((f"K{m}xK{m}", (v, 2 * (m - 1), m - 2, 2), v, edges))
    for q in (5, 13, 17, 29, 37, 41, 53):
        v, edges = paley_edges(q)
        out.append((f"paley{q}", (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4), v, edges))
    return out


def random_cycle_plus_chords(rng: random.Random, n: int, chords: int) -> set[tuple[int, int]]:
    """An n-cycle plus `chords` draws (randrange(n), randrange(n)).

    Loops and repeated edges are dropped, so the graph is connected with at
    most n + chords edges.  This is the generator of the random graphs in
    critlab's roadmap, e.g. the 40-cycle plus 60 chords from Random(1).
    """
    edges = cycle_edges(n)
    for _ in range(chords):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return edges


def matrix_with_divisors(
    rng: random.Random, rows: int, cols: int, diagonal: list[int]
) -> list[list[int]]:
    """U * D * V with D the rows x cols matrix carrying `diagonal`, U and V unimodular.

    U and V are products of 2*rows and 2*cols random elementary operations,
    applied to D as row and column operations.  The elementary divisors of
    the result are those of D, which fixes the depth of its p-adic
    filtrations whatever the seed.
    """
    a = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diagonal):
        a[i][i] = x
    for _ in range(2 * rows):
        i, j = rng.sample(range(rows), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for _ in range(2 * cols):
        i, j = rng.sample(range(cols), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[i] += c * row[j]
    return a


# -- workloads ------------------------------------------------------------------


@dataclass
class Op:
    """One critlab command: its argv, its stdin text, and what the parent checks."""

    label: str
    argv: list[str]
    stdin: str = ""
    meta: dict = field(default_factory=dict)


# critlab builds these itself from their names; the parent checks them against
# the constructions above, which are isomorphic.
BUILTIN_NAMES = ("c5", "petersen", "hosi")


def _graph_args(label: str, n: int, edges) -> tuple[list[str], str]:
    if label in BUILTIN_NAMES:
        return ["--graph", label], ""
    return ["--edges", "-"], edge_list_text(n, edges)


def moore_srg_ops(seed: int) -> list[Op]:
    """critgroup, then profile and moore analyze at each order prime, per SRG."""
    ops = []
    for label, params, n, edges in srg_graphs():
        src, text = _graph_args(label, n, edges)
        graph = {"graph": label, "n": n, "edges": edges, "params": params}
        ops.append(Op(f"critgroup {label}", ["critgroup", *src, "--format", "json"], text,
                      {"kind": "critgroup", **graph}))
        for p in prime_factors(srg_order(*params)):
            ops.append(Op(f"profile {label} p={p}",
                          ["profile", *src, "--prime", str(p), "--format", "json"], text,
                          {"kind": "profile", "p": p, **graph}))
            ops.append(Op(f"analyze {label} p={p}",
                          ["moore", "analyze", "--params", ",".join(map(str, params)),
                           "--prime", str(p), "--format", "json"], "",
                          {"kind": "analyze", "p": p, **graph}))
    ops.append(Op("analyze 3250,57,0,1",
                  ["moore", "analyze", "--params", "3250,57,0,1",
                   "--prime", "2", "--prime", "5", "--prime", "13", "--format", "json"], "",
                  {"kind": "analyze", "graph": None, "params": (3250, 57, 0, 1)}))
    random.Random(seed).shuffle(ops)
    return ops


def pool_graph(seed: int, i: int) -> tuple[int, set[tuple[int, int]]]:
    """Candidate i of the random-critgroup pool: 20-40 vertices, n/2 to 3n/2 chords."""
    rng = random.Random(f"{seed}:pool:{i}")
    n = rng.randint(20, 40)
    return n, random_cycle_plus_chords(rng, n, rng.randint(n // 2, 3 * n // 2))


def roadmap_graph() -> tuple[int, set[tuple[int, int]]]:
    """The roadmap's 40-vertex graph: a 40-cycle plus 60 chords from Random(1)."""
    return 40, random_cycle_plus_chords(random.Random(1), 40, 60)


def random_critgroup_ops(seed: int, picks: list[int]) -> list[Op]:
    """critgroup on small random graphs, the picked pool graphs, and the roadmap graph."""
    rng = random.Random(f"{seed}:small")
    graphs = [
        (f"small{n}-{c}", n, random_cycle_plus_chords(rng, n, c))
        for n in range(10, 20)
        for c in (n // 2, n)
    ]
    graphs += [(f"pool{i}", *pool_graph(seed, i)) for i in picks]
    graphs.append(("roadmap40", *roadmap_graph()))
    ops = [
        Op(f"critgroup {label} n={n} m={len(edges)}",
           ["critgroup", "--edges", "-", "--format", "json"], edge_list_text(n, edges),
           {"kind": "critgroup", "graph": label, "n": n, "edges": edges})
        for label, n, edges in graphs
    ]
    random.Random(seed).shuffle(ops)
    return ops


FILTRATION_GRAPHS = ("c5", "petersen", "T5", "T6", "T7", "K3xK3", "K4xK4", "K5xK5",
                     "paley13", "paley17", "paley29")
SHAPES = {"square": (0, 0, 0), "wide": (0, 3, 0), "tall": (2, 0, 1)}  # extra rows, extra cols, lost rank
MATRICES_PER_SHAPE = 3


def _units(rng: random.Random, p: int, count: int) -> list[int]:
    return [rng.choice([u for u in range(1, 3 * p) if u % p]) for _ in range(count)]


def filtration_ops(seed: int) -> list[Op]:
    """filtration on SRG Laplacians at each order prime, seeded matrices, and HoSi at 5."""
    ops = []
    for label, params, n, edges in srg_graphs():
        if label not in FILTRATION_GRAPHS:
            continue
        src, text = _graph_args(label, n, edges)
        for p in prime_factors(srg_order(*params)):
            ops.append(Op(f"filtration {label} p={p}",
                          ["filtration", *src, "--prime", str(p), "--format", "json"], text,
                          {"kind": "filtration", "graph": label, "n": n, "edges": edges, "p": p}))
    rng = random.Random(f"{seed}:matrices")
    for p in (2, 3, 5):
        for s in range(4, 17):
            for shape, (extra_rows, extra_cols, lost) in SHAPES.items():
                r = s - lost
                # the top third of the divisors carry p, the last one p^(1 + s//4):
                # the filtration depth grows with s and does not depend on the seed
                exps = [0] * (r - r // 3) + [1] * (r // 3)
                exps[-1] = 1 + s // 4
                for k in range(MATRICES_PER_SHAPE):
                    diag = [p**a * u for a, u in zip(exps, _units(rng, p, r))]
                    rows = matrix_with_divisors(rng, s + extra_rows, s + extra_cols, diag)
                    ops.append(Op(f"filtration {shape}{s}-{k} p={p}",
                                  ["filtration", "--matrix", "-", "--prime", str(p), "--format", "json"],
                                  matrix_text(rows),
                                  {"kind": "filtration", "graph": None, "rows": rows, "p": p}))
    hosi = hoffman_singleton_edges()
    ops.append(Op("filtration hosi p=5", ["filtration", "--graph", "hosi", "--prime", "5", "--format", "json"],
                  "", {"kind": "filtration", "graph": "hosi", "n": 50, "edges": hosi, "p": 5}))
    random.Random(seed).shuffle(ops)
    return ops


def workload_ops(workload: str, seed: int, picks: list[int]) -> list[Op]:
    """The operation list of a workload; `picks` are random-critgroup's pool graphs."""
    if workload == "moore-srg":
        return moore_srg_ops(seed)
    if workload == "random-critgroup":
        return random_critgroup_ops(seed, picks)
    if workload == "filtration":
        return filtration_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
