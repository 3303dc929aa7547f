"""Abelian sandpile (chip-firing) dynamics with a designated sink.

This is the independent oracle for the Laplacian computations, and what
``critlab sandpile`` runs: recurrent configurations (Dhar's burning test)
biject with spanning trees, and with pointwise addition followed by
stabilization they form a group isomorphic to the critical group.

``recurrent_count`` and ``sandpile_group_structure`` enumerate every
stable configuration once, so ``_guard`` raises ``SizeGuardError`` before
any enumeration above 16 vertices or 75,000 stable configurations (the
product of the non-sink degrees).  Within that guard ``critlab sandpile``
finishes within 10 s end to end.  Of 98 admitted graphs in a sweep
(CPython 3.11, shared 2-core machine) the slowest, C9(1,3) with 65,536
configurations and group Z/37 x Z/333, took 3.0 s in-process, nearly all
of it multiplying by 3 and 37, and 3.4 s end to end; an 8-vertex graph at
exactly 75,000 configurations, with a group of squarefree order 19,923,
takes 0.3 s; C11(1,2), with 4^10, is refused instead of running for a
minute.
"""

from __future__ import annotations

from .arith import factorize, valuation
from .graphs import Graph


class SizeGuardError(ValueError):
    """Exhaustive enumeration would exceed the configured size guard."""


def _graph_arrays(g: Graph, sink: int):
    if not (0 <= sink < g.n):
        raise ValueError(f"sink {sink} out of range")
    if not g.is_connected():
        raise ValueError("sandpile dynamics here require a connected graph")
    return g.neighbors(), g.degrees()


_MAX_FIRINGS = 10_000_000


def _stabilize_list(chips, nbrs, degs, sink):
    """Fire until stable, mutating and returning ``chips``.

    Drains a work queue and fires a vertex as many times as it can in one
    go; the abelian property makes the result independent of that order.
    """
    fired = 0
    queue = [v for v in range(len(chips)) if v != sink and chips[v] >= degs[v]]
    while queue:
        v = queue.pop()
        if chips[v] < degs[v]:
            continue
        times = chips[v] // degs[v]
        chips[v] -= times * degs[v]
        for w in nbrs[v]:
            if w != sink:
                chips[w] += times
                if chips[w] >= degs[w]:
                    queue.append(w)
        fired += times
        if fired > _MAX_FIRINGS:
            raise RuntimeError("stabilization did not terminate")
    return chips


def _is_recurrent_list(chips, nbrs, degs, sink) -> bool:
    """Dhar's burning test: fire the sink once and see if everything burns."""
    n = len(degs)
    if n == 1:
        return True
    burnt = bytearray(n)
    burnt[sink] = 1
    thresh = list(degs)
    stack = [sink]
    remaining = n - 1
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if not burnt[w]:
                thresh[w] -= 1
                if chips[w] >= thresh[w]:
                    burnt[w] = 1
                    remaining -= 1
                    stack.append(w)
    return remaining == 0


_VERTEX_LIMIT = 16
_CONFIG_LIMIT = 75_000


def _guard(degs, sink):
    n = len(degs)
    if n > _VERTEX_LIMIT:
        raise SizeGuardError(f"{n} vertices exceeds exhaustive limit {_VERTEX_LIMIT}")
    total = 1
    for v in range(n):
        if v != sink:
            total *= degs[v]
            if total > _CONFIG_LIMIT:
                raise SizeGuardError(
                    f"{total}+ stable configurations exceeds guard {_CONFIG_LIMIT}"
                )
    return total


def _stable_configs(degs, sink):
    """Odometer over all stable configurations (chips[v] in [0, deg v))."""
    n = len(degs)
    nonsink = [v for v in range(n) if v != sink]
    chips = [0] * n
    while True:
        yield chips
        for v in nonsink:
            chips[v] += 1
            if chips[v] < degs[v]:
                break
            chips[v] = 0
        else:
            return


def _recurrents(g: Graph, sink: int):
    """Graph arrays and every recurrent configuration, from one guarded
    enumeration with a burning test each."""
    nbrs, degs = _graph_arrays(g, sink)
    _guard(degs, sink)
    recurrents = [
        tuple(chips)
        for chips in _stable_configs(degs, sink)
        if _is_recurrent_list(chips, nbrs, degs, sink)
    ]
    return nbrs, degs, recurrents


def recurrent_count(g: Graph, sink: int = 0) -> int:
    """Number of recurrent configurations, by exhaustive burning tests.

    Must equal the spanning-tree count; that equality is asserted by the
    test suite, not here.
    """
    return len(_recurrents(g, sink)[2])


def sandpile_group_structure(g: Graph, sink: int = 0) -> tuple[int, ...]:
    """Invariant factors of the group G of recurrent configurations.

    The group law is pointwise addition followed by stabilization, so p*x
    is the stabilization of p copies of x.  Rather than searching for an
    isomorphism, the cyclic decomposition is read off the sizes of the
    images p^jG: multiplication by p maps p^(j-1)G onto p^jG with kernel
    of order p^r, where r is the number of invariant factors of p-valuation
    >= j.  A prime's passes stop once one power of p is left or only one
    factor is, since that factor then holds the rest; so a prime dividing
    |G| once needs no group operation.
    """
    nbrs, degs, recurrents = _recurrents(g, sink)
    d: list[int] = []
    for p, left in factorize(len(recurrents)).items():
        counts = []  # counts[j]: invariant factors of p-valuation > j
        image = recurrents
        while left > 1 and counts[-1:] != [1]:
            smaller = {
                tuple(_stabilize_list([p * a for a in x], nbrs, degs, sink))
                for x in image
            }
            ratio, rest = divmod(len(image), len(smaller))
            c = valuation(ratio, p)
            if rest or ratio != p**c or not 1 <= c <= left:
                raise RuntimeError("image sizes inconsistent")
            counts.append(c)
            left -= c
            image = smaller
        counts += [1] * left
        for i in range(counts[0]):
            if i == len(d):
                d.append(1)
            d[i] *= p ** sum(1 for r in counts if r > i)
    return tuple(sorted(d))
