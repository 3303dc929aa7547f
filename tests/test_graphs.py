import functools

import pytest

from critlab import (
    ExistenceUnknownError,
    Graph,
    InfeasibleParametersError,
    IntMatrix,
    SrgParams,
    check_srg,
    complete_graph,
    cycle_graph,
    hoffman_singleton_graph,
    laplacian_matrix,
    moore_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
    srg_spectrum,
)
from oracles import adjacency_matrix, format_edge_list, matmul


def complement(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    return Graph(g.n, [e for e in pairs if e not in g.edges])


def srg_identity_holds(a2, a, k, lam, mu):
    """A^2 = k I + lam A + mu (J - A - I), entry by entry, given A^2."""
    n = a.rows
    return all(
        a2[i, j] == k * (i == j) + lam * a[i, j] + mu * (1 - a[i, j] - (i == j))
        for i in range(n)
        for j in range(n)
    )


@functools.cache
def feasible_params(v):
    # the counting identity k(k - lam - 1) = (v - k - 1) mu needs lam < k
    # for k >= 1
    out = []
    for k in range(v):
        for lam in range(max(k, 1)):
            for mu in range(k + 1):
                try:
                    out.append(SrgParams(v, k, lam, mu))
                except InfeasibleParametersError:
                    pass
    return out


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [(0, 1.9), (0.0, 1), ("0", "1")])
    def test_rejects_non_integer_vertices(self, edge):
        with pytest.raises(TypeError):
            Graph(3, [edge])

    @pytest.mark.parametrize("n", [3.0, "3"])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Graph(n, [(0, 1)])

    def test_bool_vertices_become_ints(self):
        g = Graph(3, [(False, True), (2, True)])
        assert g.edges == {(0, 1), (1, 2)}
        assert all(type(x) is int for e in g.edges for x in e)

    def test_deduplicates_edges(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_degrees_and_connectivity(self):
        g = petersen_graph()
        assert g.degrees() == [3] * 10
        assert g.is_connected()
        two = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert not two.is_connected()
        assert two.component_count() == 2

    def test_critgroup_builds_adjacency_and_components_once(self, monkeypatch, capsys):
        from critlab import cli

        builds = {"_neighbors": 0, "_components": 0}

        def counted(method, slot):
            def wrapper(self):
                builds[slot] += getattr(self, slot) is None
                return method(self)

            return wrapper

        monkeypatch.setattr(Graph, "neighbors", counted(Graph.neighbors, "_neighbors"))
        monkeypatch.setattr(Graph, "components", counted(Graph.components, "_components"))
        assert cli.main(["critgroup", "--graph", "hosi"]) == 0
        assert "bicycle dimension" in capsys.readouterr().out
        assert builds == {"_neighbors": 1, "_components": 1}

    def test_adjacency_is_shared_and_read_only(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 2)])
        assert g.neighbors() is g.neighbors()
        assert g.neighbors() == ((1, 2), (0,), (0, 3), (2,))
        assert g.components() is g.components()
        assert g.components() == ((0, 1, 2, 3),)


class TestMooreGraphs:
    def test_valency_2_is_the_5_cycle(self):
        g = moore_graph(2)
        assert (g.n, g.m) == (5, 5)
        assert g == cycle_graph(5)

    def test_valency_3_is_petersen(self):
        g = moore_graph(3)
        assert (g.n, g.m) == (10, 15)
        assert g.degrees() == [3] * 10

    def test_valency_7_counts_and_srg_identity(self):
        g = moore_graph(7)
        assert (g.n, g.m) == (50, 175)
        # A^2 = 7I + 0A + 1(J - A - I), checked by direct multiplication
        a = adjacency_matrix(g)
        assert srg_identity_holds(matmul(a, a), a, 7, 0, 1)

    def test_unknown_valencies_rejected(self):
        with pytest.raises(ExistenceUnknownError):
            moore_graph(57)
        with pytest.raises(ValueError):
            moore_graph(5)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_all_constructed_moore_graphs_are_srg(self, k):
        g = moore_graph(k)
        assert check_srg(g, SrgParams(k * k + 1, k, 0, 1))

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_girth_five(self, k):
        g = moore_graph(k)
        a = adjacency_matrix(g)
        a2 = matmul(a, a)
        a3 = matmul(a2, a)
        n = g.n
        assert all(a2[i, i] == k for i in range(n))  # no loops of length 2 beyond degree
        assert all(a3[i, i] == 0 for i in range(n))  # triangle-free
        # squares would show as an off-diagonal entry of A^2 exceeding 1
        assert all(
            a2[i, j] <= 1 for i in range(n) for j in range(n) if i != j
        )


class TestMatrices:
    def test_adjacency_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert adjacency_matrix(g) == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_adjacency_empty(self):
        assert adjacency_matrix(Graph(3, [])) == IntMatrix.zeros(3, 3)

    def test_adjacency_petersen_row_sums(self):
        a = adjacency_matrix(petersen_graph())
        assert all(sum(a.row(i)) == 3 for i in range(10))

    def test_laplacian_triangle(self):
        lap = laplacian_matrix(complete_graph(3))
        assert lap == IntMatrix.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_laplacian_5_cycle_shape(self):
        lap = laplacian_matrix(cycle_graph(5))
        for i in range(5):
            row = lap.row(i)
            assert row[i] == 2
            assert sorted(row) == [-1, -1, 0, 0, 2]

    def test_laplacian_kernel_contains_all_ones(self):
        lap = laplacian_matrix(petersen_graph())
        assert matmul(lap, IntMatrix(10, 1, [1] * 10)) == IntMatrix.zeros(10, 1)

    @pytest.mark.parametrize(
        "g", [complete_graph(4), petersen_graph(), hoffman_singleton_graph()]
    )
    def test_laplacian_symmetric_zero_row_sums(self, g):
        lap = laplacian_matrix(g)
        assert all(lap[i, j] == lap[j, i] for i in range(g.n) for j in range(i))
        assert all(sum(lap.row(i)) == 0 for i in range(g.n))


class TestSrgParams:
    def test_counting_identity_enforced(self):
        with pytest.raises(InfeasibleParametersError):
            SrgParams(10, 3, 1, 1)

    def test_basic_inequalities_enforced(self):
        with pytest.raises(InfeasibleParametersError):
            SrgParams(3, 5, 0, 1)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: SrgParams(10, 3, 0, 1)._replace(k=4), "counting identity fails"),
            (lambda: SrgParams(10, 3, 0, 1)._replace(v=3), "need v > k"),
            (lambda: SrgParams._make((10, 3, 1, 1)), "counting identity fails"),
            (lambda: SrgParams._make((3, 5, 0, 1)), "need v > k"),
        ],
        ids=["replace-k", "replace-v", "make-identity", "make-order"],
    )
    def test_replace_and_make_are_checked(self, build, message):
        with pytest.raises(InfeasibleParametersError, match=message):
            build()

    def test_moore57_spectrum(self):
        sp = srg_spectrum(SrgParams(3250, 57, 0, 1))
        assert sp.theta.to_int() == 7
        assert sp.tau.to_int() == -8
        assert (sp.m_theta, sp.m_tau) == (1729, 1520)

    def test_petersen_spectrum(self):
        sp = srg_spectrum(SrgParams(10, 3, 0, 1))
        assert sp.theta.to_int() == 1
        assert sp.tau.to_int() == -2
        assert (sp.m_theta, sp.m_tau) == (5, 4)

    def test_conference_spectrum_5_cycle(self):
        sp = srg_spectrum(SrgParams(5, 2, 0, 1))
        assert not sp.theta.is_integral
        assert (sp.theta.a, sp.theta.b, sp.theta.disc) == (-1, 1, 5)
        assert (sp.tau.a, sp.tau.b, sp.tau.disc) == (-1, -1, 5)
        assert (sp.m_theta, sp.m_tau) == (2, 2)
        # the characteristic polynomial of the 5-cycle adjacency matrix is
        # (x - 2)(x^2 + x - 1)^2, so theta and tau are roots of x^2 + x - 1
        assert sp.theta.a == -(1)  # sum of roots is -1
        # product of roots is -1: ((a)^2 - disc) / 4
        assert (sp.theta.a**2 - sp.theta.disc) // 4 == -1

    def test_irrational_needs_conference_condition(self):
        with pytest.raises(InfeasibleParametersError):
            srg_spectrum(SrgParams(13, 6, 3, 2))

    @pytest.mark.parametrize(
        "params",
        [
            (5, 2, 0, 1),
            (10, 3, 0, 1),
            (50, 7, 0, 1),
            (3250, 57, 0, 1),
            (16, 6, 2, 2),
            (16, 5, 0, 2),
            (21, 10, 3, 6),
        ],
    )
    def test_spectrum_invariants(self, params):
        p = SrgParams(*params)
        sp = srg_spectrum(p)
        assert sp.m_theta + sp.m_tau + 1 == p.v
        if sp.theta.is_integral:
            theta, tau = sp.theta.to_int(), sp.tau.to_int()
            assert theta > tau
            assert theta >= 0 > tau
            # trace of the adjacency matrix vanishes
            assert p.k + sp.m_theta * theta + sp.m_tau * tau == 0


class TestCheckSrg:
    def test_petersen_true(self):
        assert check_srg(petersen_graph(), SrgParams(10, 3, 0, 1))

    def test_size_mismatch_false(self):
        assert not check_srg(complete_graph(4), SrgParams(10, 3, 0, 1))

    def test_5_cycle_true(self):
        assert check_srg(cycle_graph(5), SrgParams(5, 2, 0, 1))

    def test_wrong_graph_right_size_false(self):
        g = cycle_graph(10)
        assert not check_srg(g, SrgParams(10, 3, 0, 1))

    def test_regular_graph_fails_a_pair(self):
        # the pentagonal prism is 3-regular on 10 vertices, so it gets past
        # the degree test: a pair's common-neighbour count rejects it
        rims = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        prism = Graph(10, rims + [(u + 5, v + 5) for u, v in rims] + spokes)
        assert prism.degrees() == [3] * 10
        assert not check_srg(prism, SrgParams(10, 3, 0, 1))

    def test_petersen_complement(self):
        # adjacent pairs share lam = 3 neighbours, non-adjacent ones mu = 4
        assert check_srg(complement(petersen_graph()), SrgParams(10, 6, 3, 4))
        assert not check_srg(complement(petersen_graph()), SrgParams(10, 3, 0, 1))

    def test_agrees_with_the_matrix_product(self):
        # every builtin graph and its complement, against every parameter
        # set on its vertex count that SrgParams accepts
        # (the Moore graphs are c5, petersen and hosi)
        graphs = [petersen_graph(), hoffman_singleton_graph()]
        graphs += [cycle_graph(n) for n in range(3, 13)]
        graphs += [complete_graph(n) for n in range(1, 9)]
        graphs += [path_graph(n) for n in range(1, 7)]
        verdicts = []
        for g in graphs + [complement(g) for g in graphs]:
            a = adjacency_matrix(g)
            a2 = matmul(a, a)
            for params in feasible_params(g.n):
                want = srg_identity_holds(a2, a, params.k, params.lam, params.mu)
                assert check_srg(g, params) == want, (g, params)
                verdicts.append(want)
        assert verdicts.count(True) >= 60
        assert verdicts.count(False) >= 800


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = petersen_graph()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_simple(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_header_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 1\n0 x\n")

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 1\n2 2\n")
