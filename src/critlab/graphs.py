"""Graphs, the known Moore graphs, and strongly-regular parameter algebra.

Vertices are 0-based and the vertex order is fixed at construction; all
matrix computations downstream inherit that order.  Eigenvalue data for
strongly regular parameter sets is kept exact: integer eigenvalues stay
ints, conference-graph eigenvalues are stored as (a + b*sqrt(disc)) / 2.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import isqrt

from .intmatrix import IntMatrix


class ExistenceUnknownError(ValueError):
    """Construction requested for an object whose existence is an open problem."""


class InfeasibleParametersError(ValueError):
    """Parameter set fails a feasibility condition."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The adjacency lists and the components are built on first use and kept,
    so every caller of one graph shares them.
    """

    __slots__ = ("n", "edges", "_neighbors", "_components")

    def __init__(self, n: int, edges):
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        self._neighbors: tuple[tuple[int, ...], ...] | None = None
        self._components: tuple[tuple[int, ...], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, sorted ascending."""
        if self._neighbors is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            self._neighbors = tuple(tuple(sorted(lst)) for lst in nbrs)
        return self._neighbors

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each sorted ascending,
        ordered by their smallest vertex."""
        if self._components is not None:
            return self._components
        nbrs = self.neighbors()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            stack = [s]
            while stack:
                u = stack.pop()
                for w in nbrs[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        self._components = tuple(comps)
        return self._components

    def component_count(self) -> int:
        return len(self.components())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- constructions -----------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    """Outer pentagon 0-4, inner pentagram 5-9, spokes i -- 5+i."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph(10, edges)


def hoffman_singleton_graph() -> Graph:
    """Pentagon/pentagram construction of the valency-7 Moore graph.

    Five pentagons P_h (vertices j ~ j+-1 mod 5) and five pentagrams Q_i
    (vertices j ~ j+-2 mod 5), with vertex j of P_h joined to vertex
    h*i + j (mod 5) of Q_i.  Numbering: P_h vertex j -> 5h + j, Q_i vertex
    j -> 25 + 5i + j.  Correctness is gated by check_srg(g, (50, 7, 0, 1)),
    not by the construction itself.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph(50, edges)


def moore_graph(k: int) -> Graph:
    """The Moore graph of diameter 2 and valency k, for k in {2, 3, 7}.

    Valency 57 is rejected with ExistenceUnknownError: no such graph is
    known, and none is known not to exist.
    """
    if k == 2:
        return cycle_graph(5)
    if k == 3:
        return petersen_graph()
    if k == 7:
        return hoffman_singleton_graph()
    if k == 57:
        raise ExistenceUnknownError(
            "existence of a Moore graph of valency 57 is an open problem; "
            "it cannot be constructed"
        )
    raise ValueError(f"no Moore graph of diameter 2 has valency {k}")


# -- matrices ----------------------------------------------------------------


def laplacian_matrix(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix; rows sum to zero."""
    n = g.n
    data = [0] * (n * n)
    for u, v in g.edges:
        data[u * n + v] -= 1
        data[v * n + u] -= 1
        data[u * n + u] += 1
        data[v * n + v] += 1
    return IntMatrix(n, n, data)


# -- edge-list text format ----------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines "u v" (0-based vertex indices)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {idx}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {idx}: vertices must be integers") from exc
    g = Graph(n, edges)
    if g.m != m:
        raise ValueError("duplicate edges in input")
    return g


# -- strongly regular parameters ----------------------------------------------


class SrgParams(namedtuple("SrgParams", "v k lam mu")):
    """Parameter set (v, k, lam, mu) of a strongly regular graph.

    Adjacent pairs share lam common neighbors, non-adjacent pairs share mu.
    Construction, ``_replace`` and ``_make`` validate the counting identity
    k*(k - lam - 1) = (v - k - 1)*mu.  A named tuple, so it compares equal
    to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, v, k, lam, mu):
        self = super().__new__(cls, v, k, lam, mu)
        if not (v > k >= mu >= 0 and lam >= 0):
            raise InfeasibleParametersError(
                f"need v > k >= mu >= 0 and lam >= 0, got {self}"
            )
        lhs = k * (k - lam - 1)
        rhs = (v - k - 1) * mu
        if lhs != rhs:
            raise InfeasibleParametersError(
                f"counting identity fails for {self}: k(k-lam-1)={lhs} "
                f"but (v-k-1)mu={rhs}"
            )
        return self

    # the inherited _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, it: cls(*it))


class QuadraticNumber(namedtuple("QuadraticNumber", "a b disc")):
    """Exact value (a + b*sqrt(disc)) / 2 with integer a, b and disc >= 0.

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    @property
    def is_integral(self) -> bool:
        s = isqrt(self.disc)
        return s * s == self.disc and (self.a + self.b * s) % 2 == 0

    def to_int(self) -> int:
        if not self.is_integral:
            raise ValueError(f"{self!r} is not an integer")
        return (self.a + self.b * isqrt(self.disc)) // 2


class SrgSpectrum(namedtuple("SrgSpectrum", "k theta tau m_theta m_tau")):
    """Exact adjacency spectrum of a strongly regular parameter set.

    The valency k is an eigenvalue of multiplicity 1; theta and tau are the
    restricted eigenvalues (theta > tau, each a QuadraticNumber) with
    multiplicities m_theta, m_tau.  A named tuple, so it compares equal to
    the plain tuple of its fields.
    """

    __slots__ = ()

    @property
    def v(self) -> int:
        return self.m_theta + self.m_tau + 1


def srg_spectrum(params: SrgParams) -> SrgSpectrum:
    """Restricted eigenvalues and multiplicities, in exact arithmetic.

    The restricted eigenvalues are the roots of
    x^2 - (lam - mu)*x - (k - mu) = 0; the multiplicities solve the trace
    equations.  Raises InfeasibleParametersError when the multiplicities do
    not come out as nonnegative integers.
    """
    v, k, lam, mu = params
    a = lam - mu
    disc = a * a + 4 * (k - mu)
    theta = QuadraticNumber(a, 1, disc)
    tau = QuadraticNumber(a, -1, disc)
    s = isqrt(disc)
    trace_term = 2 * k + (v - 1) * a
    if s * s != disc:
        # conference case: irrational eigenvalues force equal multiplicities
        if trace_term != 0 or (v - 1) % 2 != 0:
            raise InfeasibleParametersError(
                f"{params}: irrational eigenvalues need 2k+(v-1)(lam-mu)=0 "
                f"and v odd"
            )
        half = (v - 1) // 2
        return SrgSpectrum(k, theta, tau, half, half)
    if s == 0:
        raise InfeasibleParametersError(f"{params}: repeated restricted eigenvalue")
    if trace_term % s != 0 or (v - 1 - trace_term // s) % 2 != 0:
        raise InfeasibleParametersError(
            f"{params}: multiplicities are not integers"
        )
    m_theta = (v - 1 - trace_term // s) // 2
    m_tau = (v - 1) - m_theta
    if m_theta < 0 or m_tau < 0:
        raise InfeasibleParametersError(f"{params}: negative multiplicity")
    return SrgSpectrum(k, theta, tau, m_theta, m_tau)


def check_srg(g: Graph, params: SrgParams) -> bool:
    """Entrywise test of A^2 = k*I + lam*A + mu*(J - A - I), on neighbour
    bitsets.

    On a simple graph (A^2)_uu is the degree of u and (A^2)_uw, u != w, is
    the number of common neighbours of u and w.  So the identity says that
    every degree is k and that adjacent pairs share lam neighbours and
    non-adjacent pairs mu; each pair is one AND of two row bitsets.

    Returns False (rather than raising) when the vertex count differs from
    params.v, so mismatched inputs read as "not that SRG".
    """
    v, k, lam, mu = params
    if g.n != v:
        return False
    nbrs = g.neighbors()
    if any(len(row) != k for row in nbrs):
        return False
    rows = [sum(1 << w for w in row) for row in nbrs]
    for u, row_u in enumerate(rows):
        for w in range(u + 1, v):
            want = lam if row_u >> w & 1 else mu
            if (row_u & rows[w]).bit_count() != want:
                return False
    return True
