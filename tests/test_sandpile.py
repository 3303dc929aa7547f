import math
import random

import pytest

from critlab import (
    Graph,
    SizeGuardError,
    complete_graph,
    critical_group,
    cycle_graph,
    hoffman_singleton_graph,
    petersen_graph,
    recurrent_count,
    sandpile_group_structure,
)
from critlab import sandpile
from critlab.sandpile import _is_recurrent_list, _stabilize_list
from oracles import brute_force_spanning_trees

# an 8-vertex graph with exactly the guard's 75,000 stable configurations at
# sinks 0 and 7, and a cyclic group of squarefree order 19,923 = 3 * 29 * 229
EDGES_19923 = [
    tuple(map(int, e.split("-")))
    for e in "0-1 0-3 0-4 0-5 0-7 1-2 1-3 1-5 1-7 2-3 2-5 2-6 2-7 3-4 3-5 4-5 "
    "4-6 4-7 5-6 6-7".split()
]


def stabilized(g, chips):
    return tuple(_stabilize_list(list(chips), g.neighbors(), g.degrees(), 0))


def fired_in_random_order(g, chips, rng):
    """Reference stabilization with sink 0: fire one unstable vertex, chosen
    uniformly, once per step until none is left."""
    nbrs, degs = g.neighbors(), g.degrees()
    chips = list(chips)
    while True:
        unstable = [v for v in range(1, g.n) if chips[v] >= degs[v]]
        if not unstable:
            return tuple(chips)
        v = rng.choice(unstable)
        chips[v] -= degs[v]
        for w in nbrs[v]:
            if w:
                chips[w] += 1


class TestStabilize:
    def test_zero_config_is_fixed(self):
        assert stabilized(complete_graph(3), (0, 0, 0)) == (0, 0, 0)

    def test_below_degree_unchanged(self):
        assert stabilized(complete_graph(4), (0, 2, 1, 2)) == (0, 2, 1, 2)

    def test_triangle_cascade(self):
        assert stabilized(complete_graph(3), (0, 3, 0)) == (0, 1, 1)

    def test_large_pile_drains(self):
        g = cycle_graph(5)
        out = stabilized(g, (0, 100, 0, 0, 0))
        degs = g.degrees()
        assert all(out[v] < degs[v] for v in range(1, 5))

    def test_abelian_property(self):
        # same stabilization no matter the firing order
        rng = random.Random(97)
        graphs = [complete_graph(4), cycle_graph(6), petersen_graph()]
        for g in graphs:
            degs = g.degrees()
            for _ in range(15):
                chips = tuple(
                    0 if v == 0 else rng.randint(0, 3 * degs[v]) for v in range(g.n)
                )
                reference = stabilized(g, chips)
                for seed in (1, 2, 3):
                    assert fired_in_random_order(g, chips, random.Random(seed)) == reference


class TestRecurrence:
    def test_burning_test_on_triangle(self):
        g = complete_graph(3)
        nbrs, degs = g.neighbors(), g.degrees()
        assert _is_recurrent_list([0, 1, 1], nbrs, degs, 0)
        assert _is_recurrent_list([0, 0, 1], nbrs, degs, 0)
        assert not _is_recurrent_list([0, 0, 0], nbrs, degs, 0)

    def test_counts_match_tree_counts(self):
        for g in (complete_graph(3), cycle_graph(5), complete_graph(4)):
            assert recurrent_count(g) == brute_force_spanning_trees(g) == critical_group(g).order

    def test_petersen_count(self):
        assert recurrent_count(petersen_graph()) == 2000

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            recurrent_count(hoffman_singleton_graph())

    def test_configuration_guard(self):
        # 16 vertices pass the vertex limit; 15^15 stable configurations do not
        with pytest.raises(SizeGuardError, match="stable configurations exceeds guard"):
            recurrent_count(complete_graph(16))

    def test_circulant_c11_is_refused_before_enumerating(self, monkeypatch):
        # C11(1,2): 4^10 stable configurations, about a minute of enumeration
        def enumerating(degs, sink):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(sandpile, "_stable_configs", enumerating)
        g = Graph(11, [(i, (i + j) % 11) for i in range(11) for j in (1, 2)])
        for count in (recurrent_count, sandpile_group_structure):
            with pytest.raises(SizeGuardError, match="stable configurations exceeds guard"):
                count(g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            recurrent_count(Graph(4, [(0, 1), (2, 3)]))


class TestGroupStructure:
    def test_triangle_cyclic(self):
        assert sandpile_group_structure(complete_graph(3)) == (3,)

    def test_5_cycle_cyclic(self):
        assert sandpile_group_structure(cycle_graph(5)) == (5,)

    def test_k4(self):
        assert sandpile_group_structure(complete_graph(4)) == (4, 4)

    def test_petersen_matches_smith_form(self):
        structure = sandpile_group_structure(petersen_graph())
        assert structure == critical_group(petersen_graph()).invariant_factors

    @pytest.mark.parametrize(
        "g,sinks",
        [
            (complete_graph(4), (0, 2)),
            (cycle_graph(5), (0, 3)),
            (complete_graph(3), (0, 1)),
        ],
    )
    def test_sink_independence(self, g, sinks):
        results = {sandpile_group_structure(g, sink=s) for s in sinks}
        assert len(results) == 1
        assert results.pop() == critical_group(g).invariant_factors

    def test_squarefree_orders_need_no_group_operation(self, monkeypatch):
        # the part of a prime dividing |G| once is Z/p, read off the order
        def stabilizing(chips, nbrs, degs, sink):
            raise AssertionError("group operation")

        monkeypatch.setattr(sandpile, "_stabilize_list", stabilizing)
        assert sandpile_group_structure(cycle_graph(5)) == (5,)
        assert sandpile_group_structure(Graph(8, EDGES_19923)) == (19923,)

    def test_inconsistent_image_sizes_raise(self, monkeypatch):
        # a broken group law that sends everything to one configuration:
        # |G| / |2G| = 12 on C12 is no power of 2
        monkeypatch.setattr(
            sandpile, "_stabilize_list", lambda chips, nbrs, degs, sink: [0] * len(chips)
        )
        with pytest.raises(RuntimeError, match="image sizes inconsistent"):
            sandpile_group_structure(cycle_graph(12))

    def test_seeded_sweep_matches_smith_form(self):
        # K4 (4, 4), K5 (5, 5, 5) and Petersen (2, 10, 10, 10) give factors of
        # p-exponent >= 2 and several factors per prime, as do random graphs
        # such as (4, 4, 4) and (4, 140); each of the 30 random graphs has at
        # most 5,000 stable configurations at either sink
        rng = random.Random(27)
        graphs = [complete_graph(4), complete_graph(5), petersen_graph()]
        while len(graphs) < 33:
            n = rng.randint(4, 9)
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            degs = g.degrees()
            if max(math.prod(degs[1:]), math.prod(degs[:-1])) <= 5000:
                graphs.append(g)
        for g in graphs:
            expected = critical_group(g).invariant_factors
            for sink in (0, g.n - 1):
                assert sandpile_group_structure(g, sink) == expected, (g.n, sink)
