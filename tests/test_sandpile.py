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
