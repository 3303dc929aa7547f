import random

import pytest

from critlab import (
    ChipConfig,
    Graph,
    SizeGuardError,
    complete_graph,
    critical_group,
    cycle_graph,
    hoffman_singleton_graph,
    is_recurrent,
    petersen_graph,
    recurrent_count,
    sandpile_group_structure,
    spanning_tree_count,
    stabilize,
)


class TestStabilize:
    def test_zero_config_is_fixed(self):
        g = complete_graph(3)
        c = ChipConfig((0, 0, 0), sink=0)
        assert stabilize(c, g) == c

    def test_below_degree_unchanged(self):
        g = complete_graph(4)
        c = ChipConfig((0, 2, 1, 2), sink=0)
        assert stabilize(c, g) == c

    def test_triangle_cascade(self):
        g = complete_graph(3)
        out = stabilize(ChipConfig((0, 3, 0), sink=0), g)
        assert out.chips == (0, 1, 1)

    def test_large_pile_drains(self):
        g = cycle_graph(5)
        out = stabilize(ChipConfig((0, 100, 0, 0, 0), sink=0), g)
        degs = g.degrees()
        assert all(out.chips[v] < degs[v] for v in range(1, 5))

    def test_sink_slot_normalized(self):
        c = ChipConfig((9, 1, 1), sink=0)
        assert c.chips[0] == 0

    def test_negative_chips_rejected(self):
        with pytest.raises(ValueError):
            ChipConfig((0, -1, 2), sink=0)

    @pytest.mark.parametrize("chips", [(0, 1.5, 2), (0, 1.0, 2), (0, "1", 2)])
    def test_non_integer_chips_rejected(self, chips):
        with pytest.raises(TypeError):
            ChipConfig(chips, sink=0)

    @pytest.mark.parametrize("sink", [1.0, "1"])
    def test_non_integer_sink_rejected(self, sink):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ChipConfig((0, 1, 2), sink)

    def test_chips_become_an_int_tuple(self):
        c = ChipConfig([3, True, 2], sink=0)
        assert c.chips == (0, 1, 2)
        assert [type(x) for x in c.chips] == [int, int, int]

    @pytest.mark.parametrize(
        "changes,error",
        [
            ({"chips": (0, -1, 2)}, ValueError),
            ({"chips": (0, 1.5, 2)}, TypeError),
            ({"sink": 3}, ValueError),
            ({"sink": 1.0}, TypeError),
        ],
    )
    def test_replace_and_make_are_checked(self, changes, error):
        c = ChipConfig((0, 1, 2), sink=0)
        with pytest.raises(error):
            c._replace(**changes)
        with pytest.raises(error):
            ChipConfig._make({**c._asdict(), **changes}.values())

    def test_replace_and_make_zero_the_sink_slot(self):
        c = ChipConfig((0, 1, 2), sink=0)
        assert c._replace(chips=(9, 1, 2)).chips == (0, 1, 2)
        assert c._replace(sink=2).chips == (0, 1, 0)
        assert ChipConfig._make(([9, True, 2], 0)) == ((0, 1, 2), 0)

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
                cfg = ChipConfig(chips, sink=0)
                reference = stabilize(cfg, g)
                for seed in (1, 2, 3):
                    assert stabilize(cfg, g, random.Random(seed)) == reference


class TestRecurrence:
    def test_burning_test_on_triangle(self):
        g = complete_graph(3)
        assert is_recurrent(ChipConfig((0, 1, 1), sink=0), g)
        assert is_recurrent(ChipConfig((0, 0, 1), sink=0), g)
        assert not is_recurrent(ChipConfig((0, 0, 0), sink=0), g)

    def test_counts_match_tree_counts(self):
        for g in (complete_graph(3), cycle_graph(5), complete_graph(4)):
            assert recurrent_count(g) == spanning_tree_count(g)

    def test_petersen_count(self):
        assert recurrent_count(petersen_graph()) == 2000

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            recurrent_count(hoffman_singleton_graph())

    def test_configuration_guard(self):
        # 16 vertices pass the vertex limit; 15^15 stable configurations do not
        with pytest.raises(SizeGuardError, match="stable configurations exceeds guard"):
            recurrent_count(complete_graph(16))

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
