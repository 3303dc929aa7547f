import hashlib
import json

import pytest

import critlab.moore as moore_mod
from critlab import (
    ContradictionError,
    InfeasibleParametersError,
    IntMatrix,
    SrgParams,
    analyze,
    cycle_graph,
    derive_laplacian_identity,
    divisor_bound,
    elem_divisor_profile,
    enumerate_families,
    family_membership,
    hoffman_singleton_graph,
    laplacian_matrix,
    petersen_graph,
    predicted_order_from_spectrum,
    srg_spectrum,
    verify_filtration_dims,
)
from critlab.arith import factorize
from oracles import (
    _gauss_rank_mod_p,
    admissible_srg_vectors,
    kernel_basis,
    laplacian_identity_holds,
    matmul,
)

MOORE57 = SrgParams(3250, 57, 0, 1)
HOSI = SrgParams(50, 7, 0, 1)
PETERSEN = SrgParams(10, 3, 0, 1)
C5 = SrgParams(5, 2, 0, 1)


class TestLaplacianIdentity:
    def test_moore57(self):
        ident = derive_laplacian_identity(MOORE57)
        assert ident.shift == 115
        assert ident.w == 3250
        assert ident.w_factored == {2: 1, 5: 3, 13: 1}
        assert ident.j_coeff == 1

    def test_hoffman_singleton_params(self):
        ident = derive_laplacian_identity(HOSI)
        assert (ident.shift, ident.w) == (15, 50)

    def test_petersen_params(self):
        ident = derive_laplacian_identity(PETERSEN)
        assert (ident.shift, ident.w) == (7, 10)

    @pytest.mark.parametrize(
        "params,graph",
        [
            (C5, cycle_graph(5)),
            (PETERSEN, petersen_graph()),
            (HOSI, hoffman_singleton_graph()),
        ],
    )
    def test_identity_holds_entrywise(self, params, graph):
        assert laplacian_identity_holds(derive_laplacian_identity(params), graph)

    def test_identity_fails_on_wrong_graph(self):
        assert not laplacian_identity_holds(derive_laplacian_identity(PETERSEN), cycle_graph(10))

    def test_mu_0_is_unsupported_not_infeasible(self):
        # (6, 2, 1, 0) is 2K3, a real graph: outside the analysis, exit 1
        with pytest.raises(ValueError, match="needs mu >= 1") as info:
            derive_laplacian_identity(SrgParams(6, 2, 1, 0))
        assert not isinstance(info.value, InfeasibleParametersError)

    def test_mu_2_srg_has_j_coefficient_2(self):
        # Clebsch parameters: (L - cI)L = -wI + 2J
        ident = derive_laplacian_identity(SrgParams(16, 5, 0, 2))
        assert ident.j_coeff == 2
        assert ident.w == 32


class TestDivisorBound:
    def test_moore57(self):
        ident = derive_laplacian_identity(MOORE57)
        assert set(divisor_bound(ident).allowed) == {2, 5, 25, 125, 13}

    def test_petersen(self):
        assert divisor_bound(derive_laplacian_identity(PETERSEN)).allowed == (2, 5)

    def test_hoffman_singleton(self):
        assert divisor_bound(derive_laplacian_identity(HOSI)).allowed == (2, 5, 25)


class TestForcedMultiplicities:
    """A prime with bound exponent 1 has its multiplicity in
    ``analyze(params)["forced"]``; any other prime goes to
    ``enumerate_families``."""

    def test_moore57_prime_2(self):
        assert analyze(MOORE57)["forced"]["2"] == 1728

    def test_moore57_prime_13(self):
        assert analyze(MOORE57)["forced"]["13"] == 1519

    def test_prime_coprime_to_order(self):
        assert "3" not in analyze(MOORE57)["forced"]
        assert "2" not in analyze(C5)["forced"]

    def test_moore57_prime_5_defers_to_families(self):
        assert "5" not in analyze(MOORE57)["forced"]
        assert len(enumerate_families(MOORE57, 5)) == 2

    def test_hosi_prime_2(self):
        assert analyze(HOSI)["forced"]["2"] == 20

    def test_forced_matches_measured_e1(self):
        # the real graphs realize the forced value at q = 2
        for params, graph in ((PETERSEN, petersen_graph()), (HOSI, hoffman_singleton_graph())):
            prof = elem_divisor_profile(laplacian_matrix(graph), 2)
            assert analyze(params)["forced"]["2"] == prof.e(1)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            enumerate_families(MOORE57, 6)


class TestEnumerateFamiliesMoore57:
    def test_exactly_two_families(self):
        fams = enumerate_families(MOORE57, 5)
        assert [f.case_label for f in fams] == [1, 2]

    def test_case_1_expressions(self):
        fam = enumerate_families(MOORE57, 5)[0]
        assert [str(e) for e in fam.exprs] == ["3 + t", "1517 - t", "1729 - t", "t"]
        assert fam.t_range == (0, 1517)
        assert [str(e) for e in fam.rank_exprs] == [
            "1520 - e0",
            "1732 - e0",
            "e0 - 3",
        ]

    def test_case_2_expressions(self):
        fam = enumerate_families(MOORE57, 5)[1]
        assert [str(e) for e in fam.exprs] == ["2 + t", "1519 - t", "1728 - t", "t"]
        assert fam.t_range == (0, 1519)
        assert [str(e) for e in fam.rank_exprs] == [
            "1521 - e0",
            "1730 - e0",
            "e0 - 2",
        ]

    def test_sum_rules_across_ranges(self):
        for fam in enumerate_families(MOORE57, 5):
            lo, hi = fam.t_range
            for t in (lo, (lo + hi) // 2, hi):
                e = tuple(ex(t) for ex in fam.exprs)
                assert all(x >= 0 for x in e)
                assert sum(e) + 1 == 3250
                assert sum(i * x for i, x in enumerate(e)) == 4975

    def test_families_cover_every_solution(self):
        # exhaustive scan: for each 5-rank e0 in [0, 3250], solve the linear
        # system directly (e2 and e1 in terms of e0 and e3) and collect every
        # nonnegative solution satisfying the four rank inequalities; the two
        # family parametrizations must produce exactly that set
        fams = enumerate_families(MOORE57, 5)
        covered = set()
        for fam in fams:
            lo, hi = fam.t_range
            for t in range(lo, hi + 1):
                covered.add(tuple(ex(t) for ex in fam.exprs))
        admissible = set()
        for e0 in range(0, 3251):
            lo3 = max(0, 2 * e0 - 1523)  # e1 = 1523 - 2 e0 + e3 >= 0
            hi3 = (1726 + e0) // 2  # e2 = 1726 + e0 - 2 e3 >= 0
            for e3 in range(lo3, hi3 + 1):
                e2 = 1726 + e0 - 2 * e3
                e1 = 1523 - 2 * e0 + e3
                if e0 + e1 < 1520:
                    continue
                if 1 + e1 + e2 + e3 < 1520:
                    continue
                if e0 + e1 + e2 < 1729:
                    continue
                if 1 + e2 + e3 < 1729:
                    continue
                admissible.add((e0, e1, e2, e3))
        assert covered == admissible


class TestEnumerateFamiliesOtherParams:
    def test_hosi_families_contain_measured_profile(self):
        fams = enumerate_families(HOSI, 5)
        prof = elem_divisor_profile(laplacian_matrix(hoffman_singleton_graph()), 5)
        hit = family_membership(prof, fams)
        assert hit is not None

    def test_hosi_family_range(self):
        (fam,) = enumerate_families(HOSI, 5)
        assert fam.t_range == (0, 20)
        assert [str(e) for e in fam.exprs] == ["2 + t", "47 - 2*t", "t"]

    def test_hosi_coverage_by_scan(self):
        (fam,) = enumerate_families(HOSI, 5)
        lo, hi = fam.t_range
        covered = {tuple(ex(t) for ex in fam.exprs) for t in range(lo, hi + 1)}
        admissible = set()
        for e2 in range(0, 24):  # e1 = 47 - 2 e2 >= 0
            e1 = 47 - 2 * e2
            e0 = 49 - e1 - e2
            if e0 < 0:
                continue
            # eigenvalue 5 has multiplicity 28, eigenvalue 10 multiplicity 21
            if e0 + e1 < 28 or e0 + e1 < 21:
                continue
            if 1 + e1 + e2 < 28 or 1 + e1 + e2 < 21:
                continue
            admissible.add((e0, e1, e2))
        assert covered == admissible

    def test_measured_hosi_profile_satisfies_rank_inequalities(self):
        prof = elem_divisor_profile(laplacian_matrix(hoffman_singleton_graph()), 5)
        e0, e1, e2 = prof.e(0), prof.e(1), prof.e(2)
        assert 28 <= e0 + e1
        assert 21 <= e0 + e1
        assert 28 <= 1 + e1 + e2
        assert 21 <= 1 + e2 + e1

    def test_petersen_forced_at_5(self):
        assert analyze(PETERSEN)["forced"]["5"] == 3

    def test_conference_params_have_no_eigen_constraints(self):
        (fam,) = enumerate_families(C5, 5)
        assert tuple(ex(fam.t_range[0]) for ex in fam.exprs) == (3, 1)

    def test_unsupported_bound_exponent(self):
        # Clebsch parameters put 2^5 in the bound; T(5) = (10, 6, 3, 4) puts
        # 2^3 there but has no complementary pair; neither reduces to
        # one-parameter families, and neither is a contradiction
        for params, message in (
            (SrgParams(16, 5, 0, 2), "divisor bound allows exponent 5"),
            (SrgParams(10, 6, 3, 4), "no complementary pair"),
        ):
            with pytest.raises(ValueError, match=message) as info:
                enumerate_families(params, 2)
            assert not isinstance(info.value, ContradictionError)


def feasible_params(vmax):
    """Every (v, k, lam, mu) with v <= vmax and mu >= 1 that SrgParams and
    srg_spectrum accept, complete graphs (k = v - 1, any mu) included."""
    for v in range(2, vmax + 1):
        for k in range(1, v):
            for lam in range(k):
                num, den = k * (k - lam - 1), v - k - 1
                for mu in range(1, k + 1) if den == 0 else (num // den,):
                    try:
                        params = SrgParams(v, k, lam, mu)
                        srg_spectrum(params)
                    except ValueError:
                        continue
                    if mu >= 1:
                        yield params


def small_cases():
    """(params, q) for every feasible set with v <= 30 and prime q of mu*v."""
    for params in feasible_params(30):
        for q in sorted(factorize(params.mu * params.v)):
            yield params, q


# The sha256 of every small case's sorted-key analyze JSON (or "ValueError:
# <message>"), one line each, and the cases that raise ValueError (J >= 4, or
# J = 3 without a complementary pair).  Pinned from the code before the
# exponent branches were merged into one solve-and-restrict path, then
# re-recorded once when eigenvalues of multiplicity 0 stopped adding their
# primes to the order: that changed exactly the 770 complete-graph cases
# (k = v - 1), each to the order of Cayley's formula v^(v-2).
ANALYZE_SHA256 = "43882acf37021656a37cbd045dffc5749d909f45ba578a75cd9854ef3d198045"
UNSUPPORTED = """
8,4,0,4:2 8,6,4,6:2 8,7,6,1:2 8,7,6,2:2 8,7,6,3:2 8,7,6,4:2 8,7,6,5:2
8,7,6,6:2 8,7,6,7:2 9,8,7,8:2 10,6,3,4:2 10,8,6,8:2 10,9,8,8:2 11,10,9,8:2
12,8,4,8:2 12,11,10,4:2 12,11,10,8:2 13,12,11,8:2 14,13,12,8:2 15,14,13,8:2
16,5,0,2:2 16,6,2,2:2 16,8,0,8:2 16,9,4,6:2 16,10,6,6:2 16,12,8,12:2
16,14,12,14:2 16,15,14,1:2 16,15,14,2:2 16,15,14,3:2 16,15,14,4:2
16,15,14,5:2 16,15,14,6:2 16,15,14,7:2 16,15,14,8:2 16,15,14,9:2
16,15,14,10:2 16,15,14,11:2 16,15,14,12:2 16,15,14,13:2 16,15,14,14:2
16,15,14,15:2 17,16,15,8:2 17,16,15,16:2 18,9,0,9:3 18,16,14,16:2
18,17,16,8:2 18,17,16,9:3 18,17,16,16:2 19,18,17,8:2 19,18,17,16:2
20,16,12,16:2 20,19,18,4:2 20,19,18,8:2 20,19,18,12:2 20,19,18,16:2
21,20,19,8:2 21,20,19,16:2 22,21,20,8:2 22,21,20,16:2 23,22,21,8:2
23,22,21,16:2 24,12,0,12:2 24,16,8,16:2 24,18,12,18:2 24,20,16,20:2
24,21,18,21:2 24,22,20,22:2 24,23,22,1:2 24,23,22,2:2 24,23,22,3:2
24,23,22,4:2 24,23,22,5:2 24,23,22,6:2 24,23,22,7:2 24,23,22,8:2
24,23,22,9:2 24,23,22,10:2 24,23,22,11:2 24,23,22,12:2 24,23,22,13:2
24,23,22,14:2 24,23,22,15:2 24,23,22,16:2 24,23,22,17:2 24,23,22,18:2
24,23,22,19:2 24,23,22,20:2 24,23,22,21:2 24,23,22,22:2 24,23,22,23:2
25,24,23,8:2 25,24,23,16:2 25,24,23,24:2 26,10,3,4:2 26,24,22,24:2
26,25,24,8:2 26,25,24,16:2 26,25,24,24:2 27,18,9,18:3 27,24,21,24:2
27,24,21,24:3 27,26,25,1:3 27,26,25,2:3 27,26,25,3:3 27,26,25,4:3
27,26,25,5:3 27,26,25,6:3 27,26,25,7:3 27,26,25,8:2 27,26,25,8:3
27,26,25,9:3 27,26,25,10:3 27,26,25,11:3 27,26,25,12:3 27,26,25,13:3
27,26,25,14:3 27,26,25,15:3 27,26,25,16:2 27,26,25,16:3 27,26,25,17:3
27,26,25,18:3 27,26,25,19:3 27,26,25,20:3 27,26,25,21:3 27,26,25,22:3
27,26,25,23:3 27,26,25,24:2 27,26,25,24:3 27,26,25,25:3 27,26,25,26:3
28,9,0,4:2 28,12,6,4:2 28,24,20,24:2 28,27,26,4:2 28,27,26,8:2 28,27,26,12:2
28,27,26,16:2 28,27,26,20:2 28,27,26,24:2 28,27,26,27:3 29,28,27,8:2
29,28,27,16:2 29,28,27,24:2 29,28,27,27:3 30,24,18,24:2 30,27,24,27:3
30,29,28,8:2 30,29,28,16:2 30,29,28,24:2 30,29,28,27:3
""".split()


def case_key(params, q):
    return "{},{},{},{}:{}".format(*params, q)


class TestSmallParameterSweep:
    def test_analyze_output_is_pinned(self):
        digest = hashlib.sha256()
        unsupported = []
        for params, q in small_cases():
            try:
                text = json.dumps(analyze(params, (q,)), sort_keys=True)
            except ValueError as exc:
                text = f"ValueError: {exc}"
                unsupported.append(case_key(params, q))
            digest.update(text.encode() + b"\n")
        assert unsupported == UNSUPPORTED
        assert digest.hexdigest() == ANALYZE_SHA256

    def test_families_partition_the_admissible_vectors(self):
        # every vector the constraints allow, found by exhaustive search with
        # eigenvalues computed in the oracle, lies in exactly one family, and
        # every family point is admissible
        supported = 0
        for params, q in small_cases():
            if case_key(params, q) in UNSUPPORTED:
                continue
            supported += 1
            admissible = admissible_srg_vectors(*params, q)
            try:
                fams = enumerate_families(params, q)
            except ContradictionError:
                fams = []
            points = [
                tuple(ex(t) for ex in fam.exprs)
                for fam in fams
                for t in range(fam.t_range[0], fam.t_range[1] + 1)
            ]
            assert sorted(points) == sorted(admissible), (params, q)
        assert supported == 1114


class TestCompleteGraphs:
    def test_order_is_cayleys_formula(self):
        # K_v has v^(v-2) spanning trees; every (v, v - 1, lam, mu) with
        # v <= 30 describes it, with one eigenvalue of multiplicity 0
        cases = 0
        for params in feasible_params(30):
            if params.k != params.v - 1:
                continue
            cases += 1
            cayley = factorize(params.v ** (params.v - 2))
            spectrum = srg_spectrum(params)
            assert 0 in (spectrum.m_theta, spectrum.m_tau)
            assert predicted_order_from_spectrum(spectrum, params.v) == cayley, params
            report = analyze(params)
            assert report["order_factored"] == {str(p): e for p, e in cayley.items()}
            assert all(report["forced"].values()), params
        assert cases == 435


class TestFamilyMembership:
    def test_case_1_start(self):
        fams = enumerate_families(MOORE57, 5)
        assert family_membership((3, 1517, 1729, 0), fams) == (1, 0)

    def test_case_2_start(self):
        fams = enumerate_families(MOORE57, 5)
        assert family_membership((2, 1519, 1728, 0), fams) == (2, 0)

    def test_totals_violation_rejected(self):
        fams = enumerate_families(MOORE57, 5)
        assert family_membership((0, 0, 0, 0), fams) is None

    def test_interior_points(self):
        fams = enumerate_families(MOORE57, 5)
        assert family_membership((103, 1417, 1629, 100), fams) == (1, 100)
        assert family_membership((102, 1419, 1628, 100), fams) == (2, 100)

    def test_out_of_range_rejected(self):
        fams = enumerate_families(MOORE57, 5)
        # t = 1518 exceeds the case-1 range and misses case 2
        vec = tuple(e(1518) for e in fams[0].exprs)
        assert family_membership(vec, fams) is None


class TestContradictionOutcomes:
    def test_unsatisfiable_valuation_raises(self, monkeypatch):
        monkeypatch.setattr(
            moore_mod, "predicted_order_from_spectrum", lambda s, v: {5: 10**7}
        )
        with pytest.raises(ContradictionError):
            enumerate_families(MOORE57, 5)

    def test_forced_path_contradiction(self, monkeypatch):
        monkeypatch.setattr(
            moore_mod, "predicted_order_from_spectrum", lambda s, v: {5: 60}
        )
        with pytest.raises(ContradictionError):
            enumerate_families(C5, 5)

    def test_prime_outside_bound_with_order_share(self, monkeypatch):
        monkeypatch.setattr(
            moore_mod, "predicted_order_from_spectrum", lambda s, v: {3: 4}
        )
        with pytest.raises(ContradictionError):
            analyze(MOORE57, (3,))

    def test_infeasible_constant_solution_is_dropped(self):
        assert (
            moore_mod._family_from_solution(1, 5, [(-1, 0), (1, 0)], [], 1) is None
        )


class TestSolveAffine:
    def test_one_parameter_solution(self):
        # e0 + e1 + e2 = 10, e1 + 2*e2 = 4
        eqs = [([1, 1, 1], 10), ([0, 1, 2], 4)]
        assert moore_mod._solve_affine(eqs, 3) == [(6, 1), (4, -2), (0, 1)]

    def test_determined_system_fixes_t(self):
        # J = 1: e0 + e1 = 9, e1 = 4
        assert moore_mod._solve_affine([([1, 1], 9), ([0, 1], 4)], 2) == [
            (5, 0),
            (4, 0),
        ]

    def test_consistent_overdetermined_system(self):
        # J = 0: e0 = 9 and 0 = 0
        assert moore_mod._solve_affine([([1], 9), ([0], 0)], 1) == [(9, 0)]

    def test_inconsistent_system(self):
        assert moore_mod._solve_affine([([1], 9), ([0], 3)], 1) is None
        eqs = [([1, 1], 9), ([0, 1], 4), ([1, 0], 6)]
        assert moore_mod._solve_affine(eqs, 2) is None

    def test_free_unknown_other_than_t(self):
        # e2 = 3 - e3 leaves e0 and e1 tied by one equation only
        eqs = [([1, 1, 1, 1], 7), ([0, 0, 1, 1], 3), ([1, 1, 0, 0], 4)]
        assert moore_mod._solve_affine(eqs, 4) is None

    def test_non_integral_solution(self):
        # 2*e0 = 5 - t is not integral for every t; 2*t = 5 has no integer t
        assert moore_mod._solve_affine([([2, 1], 5)], 2) is None
        assert moore_mod._solve_affine([([1, 1], 9), ([0, 2], 5)], 2) is None


class TestEigenlatticeMechanism:
    """The rank inequalities come from eigenvector lattices landing in the
    filtration chains; check that concretely on the real graphs.

    An integer eigenvector x with L x = 5u x, u a unit mod 5, lies in M_1
    (L x = 0 mod 5) and in N_1 (x = L(u^-1 x) / 5 mod 5 with u^-1 x in
    M_1), so the eigen-identity itself is the membership, and the F_5 rank
    of the eigenvectors bounds the level-1 dimensions from below.
    """

    @staticmethod
    def _eigenvectors(lap, c):
        n = lap.rows
        shifted = IntMatrix(n, n, [lap[i, j] - c * (i == j) for i in range(n) for j in range(n)])
        vecs = kernel_basis(shifted)
        for vec in vecs:
            assert matmul(lap, IntMatrix(n, 1, vec)) == IntMatrix(n, 1, [c * x for x in vec])
        return vecs

    def test_petersen_eigenvalue_5_lands_in_level_1(self):
        lap = laplacian_matrix(petersen_graph())
        eig = self._eigenvectors(lap, 5)
        assert len(eig) == _gauss_rank_mod_p(eig, 5) == 4
        rep = verify_filtration_dims(lap, 5)
        assert rep.dims_N[1] >= 4
        assert rep.dims_M[1] >= 4

    def test_hosi_eigenvalues_land_in_level_1(self):
        lap = laplacian_matrix(hoffman_singleton_graph())
        eig5 = self._eigenvectors(lap, 5)
        eig10 = self._eigenvectors(lap, 10)
        assert (len(eig5), len(eig10)) == (28, 21)
        assert _gauss_rank_mod_p(eig5, 5) == 28
        assert _gauss_rank_mod_p(eig10, 5) == 21

    def test_hosi_dims_bound_the_multiplicities(self):
        lap = laplacian_matrix(hoffman_singleton_graph())
        rep = verify_filtration_dims(lap, 5)
        assert rep.dims_N[1] >= 28
        assert rep.dims_M[1] >= 28 - 1  # kernel supplies 1
        assert rep.dims_N[1] >= 21
        assert rep.dims_M[1] >= 21


class TestAnalyzeReport:
    def test_moore57_report(self):
        report = analyze(MOORE57, primes=(5,))
        assert report["schema"] == 1
        assert report["identity"]["c"] == 115
        assert report["identity"]["w_factored"] == {"2": 1, "5": 3, "13": 1}
        assert report["divisor_bound"] == [2, 5, 13, 25, 125]
        assert report["order_factored"] == {"2": 1728, "5": 4975, "13": 1519}
        assert report["forced"] == {"2": 1728, "13": 1519}
        assert len(report["families"]["5"]) == 2

    def test_families_json_shape(self):
        report = analyze(MOORE57, primes=(5,))
        fam = report["families"]["5"][0]
        assert fam["case"] == 1
        assert fam["t_range"] == [0, 1517]
        assert fam["e"] == ["3 + t", "1517 - t", "1729 - t", "t"]
        assert fam["e_of_rank"] == ["1520 - e0", "1732 - e0", "e0 - 3"]
