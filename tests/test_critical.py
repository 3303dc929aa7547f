import hashlib
import io
import random
import time
from math import prod

import pytest

from critlab import (
    Graph,
    InfeasibleParametersError,
    SrgParams,
    bicycle_dimension,
    complete_graph,
    critical_group,
    cycle_graph,
    elem_divisor_profile,
    factorize,
    hoffman_singleton_graph,
    laplacian_matrix,
    path_graph,
    petersen_graph,
    predicted_order_from_spectrum,
    srg_spectrum,
    valuation,
)
from critlab import exact
from critlab.cli import main as cli_main
from oracles import (
    _det_bareiss,
    brute_force_spanning_trees,
    f2_bicycle_dimension,
    format_edge_list,
    integer_snf,
)


def prism_graph():
    # two triangles joined by a matching
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def wheel_graph(n):
    # hub 0 plus an n-cycle
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return Graph(n + 1, edges)


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_plus_chords(seed, n, chords):
    # an n-cycle plus random chords; loops and repeated edges are dropped
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(chords):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return Graph(n, edges)


def random_graph(seed):
    rng = random.Random(f"critical:{seed}")
    n = rng.randint(10, 40)
    return cycle_plus_chords(seed, n, rng.randint(n // 2, 3 * n // 2))


def paley_graph(q):
    # q prime, q = 1 mod 4: adjacent when the difference is a nonzero square
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u in range(q) for v in range(u + 1, q) if v - u in squares])


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


def reduced_laplacian_det(g):
    # the oracles' Bareiss determinant of the Laplacian less row and column 0
    return _det_bareiss([row[1:] for row in laplacian_matrix(g).to_rows()[1:]])


def snf_critical_group(g):
    # invariant factors > 1 and free rank, from the Smith form of the Laplacian
    factors = integer_snf(laplacian_matrix(g))
    return tuple(d for d in factors if d > 1), factors.count(0)


SMALL_CONNECTED = [
    complete_graph(3),
    complete_graph(4),
    complete_graph(5),
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(6),
    cycle_graph(7),
    path_graph(5),
    prism_graph(),
    wheel_graph(5),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
]

DISCONNECTED = [
    Graph(0, []),
    Graph(1, []),
    Graph(4, []),
    # two components: a triangle and a 4-cycle with a chord
    Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]),
    # a 4-cycle and a triangle on interleaved vertices, plus isolated 7 and 8
    Graph(9, [(0, 2), (2, 4), (4, 6), (6, 0), (1, 3), (3, 5), (5, 1)]),
    # Petersen plus an isolated vertex
    Graph(11, list(petersen_graph().edges)),
]


class TestCriticalGroup:
    def test_triangle(self):
        cg = critical_group(complete_graph(3))
        assert cg.invariant_factors == (3,)
        assert cg.order == 3
        assert cg.free_rank == 1

    def test_5_cycle(self):
        cg = critical_group(cycle_graph(5))
        assert cg.invariant_factors == (5,)
        assert cg.order == 5

    def test_petersen(self):
        cg = critical_group(petersen_graph())
        assert cg.invariant_factors == (2, 10, 10, 10)
        assert cg.order == 2000
        assert cg.order_factored() == {2: 4, 5: 3}

    def test_hoffman_singleton_order(self):
        cg = critical_group(hoffman_singleton_graph())
        assert cg.order == 2**20 * 5**47
        assert cg.free_rank == 1

    def test_hoffman_singleton_divisor_bound(self):
        # every elementary divisor of the valency-7 Moore graph Laplacian
        # divides 50, so prime powers can only be 2, 5, 25
        cg = critical_group(hoffman_singleton_graph())
        allowed = {2, 5, 25}
        for d in cg.invariant_factors:
            for p, e in factorize(d).items():
                assert p**e in allowed

    def test_disconnected_free_rank(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        cg = critical_group(two_triangles)
        assert cg.free_rank == 2
        assert cg.order == 9

    @pytest.mark.parametrize("g", SMALL_CONNECTED[:3] + DISCONNECTED)
    def test_one_snf_call_per_component(self, g, monkeypatch):
        shapes = []
        monkeypatch.setattr(
            "critlab.critical.snf", lambda m: shapes.append((m.rows, m.cols)) or exact.snf(m)
        )
        cg = critical_group(g)
        assert shapes == [(len(c) - 1, len(c) - 1) for c in g.components()]
        assert (cg.invariant_factors, cg.free_rank) == snf_critical_group(g)

    def test_two_hoffman_singleton_copies(self):
        # G + G has every invariant factor of G twice
        hosi = critical_group(hoffman_singleton_graph()).invariant_factors
        cg = critical_group(disjoint_union(hoffman_singleton_graph(), hoffman_singleton_graph()))
        assert cg.invariant_factors == tuple(sorted(hosi * 2))
        assert cg.free_rank == 2

    @pytest.mark.parametrize("g", SMALL_CONNECTED)
    def test_order_equals_tree_count(self, g):
        assert critical_group(g).order == reduced_laplacian_det(g)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_graphs_against_snf(self, seed):
        g = random_graph(seed)
        cg = critical_group(g)
        factors, zeros = snf_critical_group(g)
        assert (cg.invariant_factors, cg.free_rank) == (factors, zeros)
        assert bicycle_dimension(g) == sum(1 for d in factors if d % 2 == 0)

    @pytest.mark.parametrize("g", SMALL_CONNECTED + DISCONNECTED)
    def test_against_snf(self, g):
        cg = critical_group(g)
        assert (cg.invariant_factors, cg.free_rank) == snf_critical_group(g)

    @pytest.mark.parametrize("seed,n,chords", [(608, 60, 480), (803, 80, 240)])
    def test_graphs_where_snf_blows_up(self, seed, n, chords, capsys, monkeypatch):
        # Integer elimination of these Laplacians takes seconds through
        # coefficient growth, where their determinants take milliseconds; so
        # the result is checked by routes that use no Smith form, and
        # `critlab snf`, which eliminates modulo a minor, by the same bound.
        g = cycle_plus_chords(seed, n, chords)
        start = time.perf_counter()
        cg = critical_group(g)
        assert time.perf_counter() - start < 5
        monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(g)))
        start = time.perf_counter()
        assert cli_main(["snf", "--edges", "-"]) == 0
        assert time.perf_counter() - start < 5
        factors = [int(d) for d in capsys.readouterr().out.split()]
        assert len(factors) == n
        assert tuple(d for d in factors if d > 1) == cg.invariant_factors
        assert factors.count(0) == 1
        factors = cg.invariant_factors
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert cg.free_rank == 1
        # the oracles' determinant shares no code with critical_group
        assert cg.order == reduced_laplacian_det(g)
        lap = laplacian_matrix(g)
        for p in (2, 3, 5, 7):
            exps = [valuation(d, p) for d in factors]
            expected = [0] * (max(exps, default=0) + 1)
            for e in exps:
                expected[e] += 1
            expected[0] = n - 1 - sum(expected[1:])
            profile = elem_divisor_profile(lap, p)
            assert profile.multiplicities == tuple(expected)
            assert profile.kernel_rank == 1


CRITGROUP_PIN_GRAPHS = (
    ["petersen", "hosi", "moore2", "moore3", "moore7"]
    + [f"c{n}" for n in range(3, 13)]
    + [f"k{n}" for n in range(9)]
    + [f"p{n}" for n in range(1, 7)]
)

# sha256 of the text and JSON output of `critlab critgroup` on every builtin
# graph of CRITGROUP_PIN_GRAPHS, then every DISCONNECTED graph and
# random_graph(0) ... random_graph(29) as edge lists on stdin, recorded from
# the implementation that eliminated each component's reduced Laplacian on
# its own
CRITGROUP_SHA256 = "79a26b70ebf7a2ea6122416461b78a0aff79463672c262fec0a8971c84ffab6a"


class TestCritgroupCommand:
    def test_output_is_pinned(self, capsys, monkeypatch):
        sources = [(["--graph", name], None) for name in CRITGROUP_PIN_GRAPHS]
        graphs = DISCONNECTED + [random_graph(seed) for seed in range(30)]
        sources += [(["--edges", "-"], format_edge_list(g)) for g in graphs]
        digest = hashlib.sha256()
        for src, stdin in sources:
            for fmt in ("text", "json"):
                if stdin is not None:
                    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                assert cli_main(["critgroup", *src, "--format", fmt]) == 0, src
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == CRITGROUP_SHA256


class TestCertifiedModulus:
    @pytest.mark.parametrize(
        "g,exponent", [(hoffman_singleton_graph(), 50), (paley_graph(53), 13 * 53)]
    )
    def test_srgs_finish_modulo_the_divisor_bound(self, g, exponent, monkeypatch):
        # the exponent is mu * v here; no pass runs modulo the determinant
        moduli = []
        real = exact._diagonal_mod
        monkeypatch.setattr(exact, "_diagonal_mod", lambda a, s: moduli.append(s) or real(a, s))
        cg = critical_group(g)
        assert moduli == [exponent]
        assert cg.invariant_factors[-1] == exponent

    def test_cyclic_and_noncyclic_graphs_against_snf(self, monkeypatch):
        # most of these critical groups are cyclic, and a right-hand side of
        # order |det| then proves it without a Smith-loop pass
        moduli = []
        real = exact._diagonal_mod
        monkeypatch.setattr(exact, "_diagonal_mod", lambda a, s: moduli.append(s) or real(a, s))
        rng = random.Random(2017)
        seen = set()
        for seed in range(60):
            n = rng.randint(10, 30)
            g = cycle_plus_chords(seed, n, rng.randint(n // 2, 2 * n))
            moduli.clear()
            cg = critical_group(g)
            assert (cg.invariant_factors, cg.free_rank) == snf_critical_group(g)
            seen.add((len(cg.invariant_factors) == 1, bool(moduli)))
        assert (True, False) in seen
        assert (False, True) in seen

    def test_paley_101_order_from_spectrum(self):
        predicted = predicted_order_from_spectrum(srg_spectrum(SrgParams(101, 50, 24, 25)), 101)
        assert critical_group(paley_graph(101)).order == prod(p**e for p, e in predicted.items())


class TestSpanningTreeCount:
    """A connected graph's critical-group order is its spanning-tree count;
    a disconnected graph has none, and free rank above 1."""

    def test_k4_cayley(self):
        assert critical_group(complete_graph(4)).order == 16

    def test_cycle(self):
        assert critical_group(cycle_graph(5)).order == 5

    def test_petersen(self):
        assert critical_group(petersen_graph()).order == 2000

    def test_single_vertex(self):
        assert critical_group(Graph(1, [])).order == 1 == brute_force_spanning_trees(Graph(1, []))

    def test_disconnected_is_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert critical_group(g).free_rank == 2
        assert brute_force_spanning_trees(g) == 0 == reduced_laplacian_det(g)

    @pytest.mark.parametrize("g", SMALL_CONNECTED)
    def test_against_brute_force(self, g):
        assert critical_group(g).order == brute_force_spanning_trees(g)

    def test_petersen_against_brute_force(self):
        assert brute_force_spanning_trees(petersen_graph()) == 2000


class TestBicycleDimension:
    def test_5_cycle_has_none(self):
        # odd spanning-tree count leaves no even invariant factor
        assert bicycle_dimension(cycle_graph(5)) == 0

    def test_petersen(self):
        assert bicycle_dimension(petersen_graph()) == 4

    def test_k4(self):
        assert bicycle_dimension(complete_graph(4)) == f2_bicycle_dimension(
            complete_graph(4)
        )

    @pytest.mark.parametrize("g", SMALL_CONNECTED + [Graph(0, [])])
    def test_against_f2_oracle(self, g):
        assert bicycle_dimension(g) == f2_bicycle_dimension(g)

    def test_petersen_against_f2_oracle(self):
        assert f2_bicycle_dimension(petersen_graph()) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            bicycle_dimension(Graph(4, [(0, 1), (2, 3)]))

    def test_random_graphs_against_f2_oracle(self):
        rng = random.Random(1212)
        done = 0
        while done < 60:
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            if g.is_connected():
                assert bicycle_dimension(g) == f2_bicycle_dimension(g)
                done += 1


class TestPredictedOrder:
    def test_moore57(self):
        sp = srg_spectrum(SrgParams(3250, 57, 0, 1))
        assert predicted_order_from_spectrum(sp, 3250) == {
            2: 1728,
            5: 4975,
            13: 1519,
        }

    def test_petersen(self):
        sp = srg_spectrum(SrgParams(10, 3, 0, 1))
        assert predicted_order_from_spectrum(sp, 10) == {2: 4, 5: 3}

    def test_hoffman_singleton(self):
        sp = srg_spectrum(SrgParams(50, 7, 0, 1))
        assert predicted_order_from_spectrum(sp, 50) == {2: 20, 5: 47}

    def test_5_cycle_conference(self):
        sp = srg_spectrum(SrgParams(5, 2, 0, 1))
        assert predicted_order_from_spectrum(sp, 5) == {5: 1}

    def test_vertex_count_mismatch(self):
        sp = srg_spectrum(SrgParams(10, 3, 0, 1))
        with pytest.raises(ValueError):
            predicted_order_from_spectrum(sp, 12)

    def test_non_integral_quotient_is_infeasible(self):
        # synthetic spectrum: 2^3 * 5^2 is not divisible by v = 6
        from critlab import QuadraticNumber, SrgSpectrum

        sp = SrgSpectrum(
            k=3,
            theta=QuadraticNumber(2, 0, 0),
            tau=QuadraticNumber(-4, 0, 0),
            m_theta=3,
            m_tau=2,
        )
        with pytest.raises(InfeasibleParametersError):
            predicted_order_from_spectrum(sp, 6)

    @pytest.mark.parametrize(
        "k,graph",
        [(2, cycle_graph(5)), (3, petersen_graph()), (7, hoffman_singleton_graph())],
    )
    def test_matches_actual_moore_graphs(self, k, graph):
        sp = srg_spectrum(SrgParams(k * k + 1, k, 0, 1))
        predicted = predicted_order_from_spectrum(sp, k * k + 1)
        assert predicted == critical_group(graph).order_factored()


class TestProfilesOfGraphLaplacians:
    def test_petersen_5_part(self):
        prof = elem_divisor_profile(laplacian_matrix(petersen_graph()), 5)
        assert prof.multiplicities == (6, 3)
        assert prof.kernel_rank == 1

    def test_petersen_2_part(self):
        prof = elem_divisor_profile(laplacian_matrix(petersen_graph()), 2)
        assert prof.multiplicities == (5, 4)

    def test_hoffman_singleton_parts_account_for_order(self):
        lap = laplacian_matrix(hoffman_singleton_graph())
        p2 = elem_divisor_profile(lap, 2)
        p5 = elem_divisor_profile(lap, 5)
        assert p2.total_valuation == 20
        assert p5.total_valuation == 47
