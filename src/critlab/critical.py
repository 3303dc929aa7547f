"""Critical groups of graphs and the invariants that cross-check them.

The critical group is the torsion part of the cokernel of the Laplacian.
The Laplacian is block-diagonal over the connected components, and each
block has cokernel Z plus the cokernel of its reduced Laplacian (one vertex
row and column deleted), whose determinant is the component's spanning-tree
count; a connected graph's group order is that count.  So
``critical_group`` builds, from the adjacency lists, one nonsingular
reduced Laplacian per component and takes its invariant factors from
``exact.snf``.  Its Bareiss pass gives the determinant and the orders
of two group elements, whose lcm s divides the exponent.  If s equals the
determinant, the group is cyclic and no Smith loop runs; otherwise the loop
eliminates modulo s, or modulo the determinant when a product check fails,
so its entries stay small.  The factors of several components are merged
into one divisibility chain.  Eliminating each block on its own keeps one
block's pivots out of the rows of the others.  Integer elimination of the
full Laplacian (``integer_snf`` in ``tests/oracles.py``) is the independent
check.  The number of even invariant factors of a connected graph equals
the dimension of the binary bicycle space, which is n minus the component
count (1, or 0 for the empty graph) minus the rank of the Laplacian over
F_2, taken on rows packed as int bitsets.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import prod

from .arith import UnfactoredError, factorize, valuation
from .exact import _divisibility_chain, _rank_f2, snf
from .graphs import Graph
from .intmatrix import IntMatrix


class CriticalGroup(namedtuple("CriticalGroup", "invariant_factors order free_rank")):
    """Invariant-factor presentation of the critical group.

    invariant_factors lists only the nontrivial factors (> 1), in ascending
    (divisibility) order; order is their product; free_rank is the number of
    zero invariant factors of the Laplacian, i.e. the number of connected
    components.  A named tuple, so it compares equal to the plain tuple of
    its fields.
    """

    __slots__ = ()

    def order_factored(self) -> dict[int, int]:
        """The order as {prime: exponent}, ascending.

        Every prime of the order divides the largest invariant factor, so
        only that one is factored; exponents are valuations of the order.
        An ``UnfactoredError`` is re-raised with the order's proven primes
        and its unfactored rest.
        """
        if not self.invariant_factors:
            return {}
        try:
            primes, rest = factorize(self.invariant_factors[-1]), 1
        except UnfactoredError as exc:
            primes, rest = exc.primes, exc.rest
        out = {p: valuation(self.order, p) for p in primes}
        if rest > 1:
            raise UnfactoredError(out, self.order // prod(p**e for p, e in out.items()))
        return out


def _reduced_laplacian(nbrs: Sequence[Sequence[int]], keep: Sequence[int]) -> IntMatrix:
    """Laplacian rows and columns of the vertices ``keep``.

    Built from the adjacency lists ``nbrs``; the diagonal keeps the full
    degree, so neighbours outside ``keep`` count there.
    """
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for u in keep:
        row = [0] * len(keep)
        for v in nbrs[u]:
            if v in pos:
                row[pos[v]] = -1
        row[pos[u]] = len(nbrs[u])
        rows.append(row)
    return IntMatrix.from_rows(rows)


def critical_group(g: Graph) -> CriticalGroup:
    """Critical group from one reduced Laplacian per component, each less
    its smallest vertex; the factors of several components are merged into
    one divisibility chain."""
    components, nbrs = g.components(), g.neighbors()
    chains = [snf(_reduced_laplacian(nbrs, c[1:])).invariant_factors for c in components]
    if len(chains) == 1:
        factors = tuple(d for d in chains[0] if d > 1)
    else:
        factors = _divisibility_chain([d for chain in chains for d in chain if d > 1])
    return CriticalGroup(factors, prod(factors), len(components))


def bicycle_dimension(g: Graph) -> int:
    """Dimension of the binary bicycle space of a connected graph.

    Equals the number of even invariant factors of the Laplacian, that is
    n - (component count) minus its rank over F_2: 0 for the empty graph,
    which has no invariant factors.  The brute-force meaning (even-degree
    edge sets that are also in the cut space) is exercised by the test suite.
    """
    components = g.component_count()
    if components > 1:
        raise ValueError("bicycle dimension is defined here for connected graphs")
    # Laplacian row u mod 2: the neighbours of u, and u itself at odd degree
    rows = (
        sum(1 << v for v in nb) | (len(nb) & 1) << u for u, nb in enumerate(g.neighbors())
    )
    return g.n - components - _rank_f2(rows)[-1]
