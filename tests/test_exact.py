import random
from math import prod

import pytest

from critlab import (
    IntMatrix,
    elem_divisor_profile,
    hoffman_singleton_graph,
    laplacian_matrix,
    parse_matrix,
    petersen_graph,
    rank_mod_p,
    snf,
)
from critlab import exact
from critlab.exact import _eliminate_mod, _valuation_bound
from oracles import (
    _det_bareiss,
    _gauss_rank_mod_p,
    eliminate_mod_reference,
    format_matrix,
    integer_snf,
    matmul,
    profile_from_snf,
    random_int_matrix,
    snf_from_determinantal_divisors,
)


class TestSnfExamples:
    def test_diag_2_3(self):
        assert snf(IntMatrix.diagonal([2, 3])).invariant_factors == (1, 6)

    def test_identity(self):
        assert snf(IntMatrix.identity(4)).invariant_factors == (1, 1, 1, 1)

    def test_2x2(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert snf(m).invariant_factors == (2, 4)

    def test_empty(self):
        assert snf(IntMatrix.zeros(0, 3)).invariant_factors == ()
        assert snf(IntMatrix.zeros(3, 0)).invariant_factors == ()

    def test_zero_matrix(self):
        assert snf(IntMatrix.zeros(2, 3)).invariant_factors == (0, 0)

    def test_rectangular(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 0, 4]])
        assert snf(m).invariant_factors == (2, 4)


class TestSnfProperties:
    def test_divisibility_chain_random(self):
        rng = random.Random(20240817)
        for _ in range(120):
            m = random_int_matrix(rng, max_dim=6, lo=-9, hi=9)
            factors = snf(m).invariant_factors
            nonzero = [d for d in factors if d]
            assert all(d >= 0 for d in factors)
            # zeros trail the nonzero prefix
            assert factors[: len(nonzero)] == tuple(nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_determinantal_divisor_oracle_random(self):
        rng = random.Random(42)
        for _ in range(100):
            m = random_int_matrix(rng, max_dim=5, lo=-10, hi=10)
            assert snf(m).invariant_factors == snf_from_determinantal_divisors(m)

    def test_det_is_product_of_factors(self):
        rng = random.Random(99)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            m = IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            d = _det_bareiss(m.to_rows())
            if d == 0:
                continue
            prod = 1
            for f in snf(m).invariant_factors:
                prod *= f
            assert abs(d) == prod
            done += 1


def rank_k_product(rng, rows, cols, k):
    """a diag(ds) b with a rows x k and b k x cols: rank k for most draws,
    with torsion from the diagonal and from a common scale of b."""
    scale = rng.choice((1, 1, 2, 6, 10**9))
    a = IntMatrix(rows, k, [rng.randint(-4, 4) for _ in range(rows * k)])
    ds = IntMatrix.diagonal([rng.choice((1, 1, 2, 3, 4, 6, 12)) for _ in range(k)])
    b = IntMatrix(k, cols, [scale * rng.randint(-4, 4) for _ in range(k * cols)])
    return matmul(matmul(a, ds), b)


class TestSnfModularRoute:
    """snf eliminates modulo a nonzero maximal-rank minor D, or a certified
    divisor of it for nonsingular square input; integer_snf eliminates over
    Z and is the oracle."""

    def test_products_at_every_rank(self):
        rng = random.Random(6061)
        seen = set()
        count = 0
        for rows in range(1, 8):
            for cols in range(1, 8):
                for k in range(min(rows, cols) + 1):
                    for _ in range(2):
                        m = rank_k_product(rng, rows, cols, k)
                        factors = snf(m).invariant_factors
                        assert factors == integer_snf(m), m
                        seen.add((rows, cols, sum(1 for d in factors if d)))
                        count += 1
        assert count >= 300
        # every rank from 0 to min(rows, cols) occurs in every shape
        assert seen == {
            (r, c, k) for r in range(1, 8) for c in range(1, 8) for k in range(min(r, c) + 1)
        }

    def test_torsion_containing_z_mod_d(self):
        # rank 1 and D = 6: coker([m | 6I]) = Z/6 presented by the diagonal
        # (2, 3), whose chain is (1, 6); its first entry, 1, is the nonzero
        # factor, where the smallest diagonal entry would give (2, 0)
        m = IntMatrix.from_rows([[-6, -4], [3, 2]])
        assert exact._diagonal_mod(m.to_rows(), 6) == [2, 3]
        assert snf(m).invariant_factors == (1, 0) == integer_snf(m)

    def test_bareiss_rank_and_minor(self):
        # the rank and the leading minor under full pivoting, on rectangular
        # and rank-deficient input: the minor is nonzero and a multiple of
        # the product of the nonzero invariant factors
        rng = random.Random(6062)
        for _ in range(150):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            m = rank_k_product(rng, rows, cols, rng.randint(0, min(rows, cols)))
            rank, minor, _ = exact._bareiss(m.to_rows(), ())
            nonzero = [d for d in snf_from_determinantal_divisors(m) if d]
            assert rank == len(nonzero)
            assert minor != 0 and minor % prod(nonzero) == 0


class TestDeterminant:
    """The determinant as ``_bareiss`` gives it: the minor of a square
    input of full rank; a smaller rank means determinant 0."""

    def test_identity(self):
        assert exact._bareiss(IntMatrix.identity(3).to_rows(), ()) == (3, 1, [])

    def test_2x2(self):
        assert exact._bareiss([[2, 4], [6, 8]], ()) == (2, -8, [])

    def test_empty(self):
        assert exact._bareiss([], ()) == (0, 1, [])

    def test_k4_reduced_laplacian_cayley(self):
        # deleting row/column 0 from the K4 Laplacian leaves 3I + (I - J)
        assert exact._bareiss([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], ()) == (3, 16, [])

    def test_singular(self):
        rank, _, ys = exact._bareiss([[1, 2], [2, 4]], [[1, 1]])
        assert (rank, ys) == (1, [])


def block_diagonal(blocks):
    size = sum(b.rows for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            row = [0] * size
            row[offset : offset + b.cols] = b.row(i)
            rows.append(row)
        offset += b.cols
    return IntMatrix.from_rows(rows)


def torsion(m):
    # invariant factors > 1: the finite part of the cokernel
    return tuple(d for d in snf(m).invariant_factors if d > 1)


class TestCokernelInvariants:
    def test_blocks_merge_into_one_chain(self):
        m = block_diagonal([IntMatrix.diagonal([2, 3]), IntMatrix.from_rows([[4]])])
        # Z/2 + Z/3 + Z/4 = Z/2 + Z/12
        assert snf(m).invariant_factors == (1, 2, 12)

    def test_unimodular_and_empty(self):
        assert snf(block_diagonal([])).invariant_factors == ()
        assert snf(block_diagonal([IntMatrix.zeros(0, 0)])).invariant_factors == ()
        m = block_diagonal([IntMatrix.from_rows([[2, 1], [1, 1]])])
        assert snf(m).invariant_factors == (1, 1)

    def test_singular_and_rectangular_run_once_modulo_the_minor(self, monkeypatch):
        # no right-hand side is solved there, so there is no smaller modulus
        # to certify: the Smith loop runs once, modulo |D|
        moduli = record_moduli(monkeypatch)
        rng = random.Random(1989)
        shapes = set()
        for _ in range(120):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(0, min(rows, cols) - (rows == cols))
            m = rank_k_product(rng, rows, cols, k)
            r = exact._unit_pivot_residual(m.to_rows())
            _, minor, _ = exact._bareiss(r, ())
            moduli.clear()
            assert snf(m).invariant_factors == integer_snf(m), m
            assert moduli == [abs(minor)], m
            shapes.add(rows == cols)
        assert shapes == {True, False}

    def test_random_blocks_against_snf(self):
        rng = random.Random(1987)
        done = 0
        while done < 150:
            blocks = []
            for _ in range(rng.randint(1, 3)):
                dim = rng.randint(1, 5)
                scale = rng.choice((1, 1, 2, 3, 6))
                blocks.append(
                    IntMatrix(dim, dim, [scale * rng.randint(-6, 6) for _ in range(dim * dim)])
                )
            if any(_det_bareiss(b.to_rows()) == 0 for b in blocks):
                continue
            m = block_diagonal(blocks)
            expected = tuple(d for d in integer_snf(m) if d > 1)
            assert torsion(m) == expected
            done += 1


def unimodular(rng, n):
    # a product of random elementary row operations on the identity
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return IntMatrix.from_rows(rows)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def disguised_diagonal(rng, diag):
    # U diag(...) V for random unimodular U and V: the same cokernel
    n = len(diag)
    ud = matmul(unimodular(rng, n), IntMatrix.diagonal(diag))
    return matmul(ud, unimodular(rng, n))


def record_moduli(monkeypatch):
    # every modulus the Smith loop of snf runs under
    moduli = []
    real = exact._diagonal_mod

    def recorder(a, s):
        moduli.append(s)
        return real(a, s)

    monkeypatch.setattr(exact, "_diagonal_mod", recorder)
    return moduli


class TestCertifiedModulus:
    def test_noncyclic_block(self, monkeypatch):
        moduli = record_moduli(monkeypatch)
        m = disguised_diagonal(random.Random(12), (2, 4, 4, 12))
        assert torsion(m) == (2, 4, 4, 12)
        # the first modulus is an element order, so it divides the exponent
        assert 12 % moduli[0] == 0

    def test_seeded_blocks_against_snf(self):
        rng = random.Random(4242)
        for _ in range(60):
            chain = [1]
            for _ in range(rng.randint(1, 7)):
                chain.append(chain[-1] * rng.choice((1, 1, 2, 3, 5, 6)))
            m = disguised_diagonal(rng, chain)
            expected = tuple(d for d in integer_snf(m) if d > 1)
            assert expected == tuple(d for d in chain if d > 1)
            assert torsion(m) == expected

    def test_cyclic_groups_skip_the_smith_loop(self, monkeypatch):
        # A right-hand side of order s = |det| = |T| generates T, so no pass
        # runs modulo |det| first: none runs at all, or one runs modulo a
        # proper divisor s and the failed certificate reruns it modulo |det|.
        moduli = record_moduli(monkeypatch)
        rng = random.Random(2015)
        passes = []
        for d in (1, 101, 3**7, 2**5 * 3**2 * 7, 1000000007 * 998244353):
            for n in range(1, 7):
                moduli.clear()
                m = disguised_diagonal(rng, (1,) * (n - 1) + (d,))
                assert abs(_det_bareiss(m.to_rows())) == d
                assert torsion(m) == ((d,) if d > 1 else ())
                if moduli:
                    s = moduli[0]
                    assert moduli == [s, d] and s < d and d % s == 0
                passes.append(len(moduli))
        assert 0 in passes

    def test_fallback_when_the_right_hand_sides_are_in_the_column_lattice(
        self, monkeypatch
    ):
        real = exact._bareiss

        def in_lattice(a, rhs):
            # b -> a b: a^-1 b is integral, so both orders are 1 and s = 1
            return real(a, [[sum(x * y for x, y in zip(row, b)) for row in a] for b in rhs])

        monkeypatch.setattr(exact, "_bareiss", in_lattice)
        moduli = record_moduli(monkeypatch)
        rng = random.Random(7)
        for chain in ((2, 4, 4, 12), (1, 3, 9), (5,)):
            moduli.clear()
            m = disguised_diagonal(rng, chain)
            assert torsion(m) == tuple(d for d in chain if d > 1)
            d = abs(_det_bareiss(m.to_rows()))
            # the certificate fails modulo 1 and the pass modulo d runs
            assert moduli == ([1, d] if d > 1 else [1])

    def test_bareiss_solves(self):
        rng = random.Random(31)
        done = 0
        while done < 50:
            m = random_int_matrix(rng, max_dim=6, lo=-9, hi=9)
            if m.rows != m.cols:
                continue
            a = m.to_rows()
            rhs = [[rng.randint(-9, 9) for _ in a] for _ in range(2)]
            rank, minor, ys = exact._bareiss(a, rhs)
            assert a == m.to_rows()
            det = minor if rank == len(a) else 0
            assert det == _det_bareiss(a)
            if not det:
                assert ys == []
            else:
                for b, y in zip(rhs, ys):
                    # a y = det * b
                    assert [sum(x * z for x, z in zip(row, y)) for row in a] == [
                        det * x for x in b
                    ]
            done += 1


class TestRankModP:
    def test_identity(self):
        assert rank_mod_p(IntMatrix.identity(5), 5) == 5

    def test_diag(self):
        assert rank_mod_p(IntMatrix.diagonal([5, 1]), 5) == 1

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            rank_mod_p(IntMatrix.identity(2), 4)

    def test_petersen_laplacian_mod_2_consistent(self):
        lap = laplacian_matrix(petersen_graph())
        prof = elem_divisor_profile(lap, 2)
        assert rank_mod_p(lap, 2) == prof.e(0)

    def test_rank_equals_e0_random(self):
        rng = random.Random(5150)
        for _ in range(60):
            m = random_int_matrix(rng, max_dim=6, lo=-15, hi=15)
            for p in (2, 3, 5, 13):
                assert rank_mod_p(m, p) == elem_divisor_profile(m, p).e(0)


class TestRankF2:
    """The prefix-rank kernel against the list-based Gaussian elimination."""

    @staticmethod
    def _shapes(rng):
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(7, 40)) for _ in range(65)]  # wide
        shapes += [(rng.randint(7, 40), rng.randint(1, 6)) for _ in range(65)]  # tall
        shapes += [(k, k) for k in (rng.randint(1, 30) for _ in range(66))]
        return shapes

    def test_bitsets_against_the_list_routine(self):
        rng = random.Random(2222)
        for rows, cols in self._shapes(rng):
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                if rng.random() < 0.2:
                    m[i] = [2 * x for x in m[i]]  # a zero row mod 2
            assert exact._rank_profile_mod_p(m, 2)[-1] == _gauss_rank_mod_p(m, 2)

    def test_dependent_rows(self):
        m = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [3, 2, 1]]
        assert exact._rank_profile_mod_p(m, 2)[-1] == _gauss_rank_mod_p(m, 2) == 2

    def test_every_prefix_against_the_list_routine(self):
        rng = random.Random(3333)
        shapes = self._shapes(rng)
        for k, (rows, cols) in enumerate(shapes):
            p = (2, 3, 5, 7)[k % 4]
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                r = rng.random()
                if r < 0.15:
                    m[i] = [p * x for x in m[i]]  # a zero row mod p
                elif r < 0.3 and i >= 2:
                    # a combination of earlier rows, plus a multiple of p
                    a, b = rng.sample(range(i), 2)
                    f = rng.randint(1, p - 1)
                    m[i] = [x + f * y + p * z for x, y, z in zip(m[a], m[b], m[i])]
            ranks = exact._rank_profile_mod_p(m, p)
            assert ranks == [_gauss_rank_mod_p(m[:n], p) for n in range(rows + 1)]

    def test_large_prime_and_full_rank_early(self):
        # slots for p near 2^31 are wide; rows past a full basis add nothing
        p = 2147483647
        rng = random.Random(4444)
        m = [[rng.randint(-(p**2), p**2) for _ in range(6)] for _ in range(12)]
        ranks = exact._rank_profile_mod_p(m, p)
        assert ranks == [_gauss_rank_mod_p(m[:n], p) for n in range(13)]
        assert ranks[-1] == 6


class TestElemDivisorProfile:
    def test_diag_5_powers(self):
        prof = elem_divisor_profile(IntMatrix.diagonal([1, 5, 25]), 5)
        assert prof.multiplicities == (1, 1, 1)
        assert prof.kernel_rank == 0

    def test_diag_10_20(self):
        prof = elem_divisor_profile(IntMatrix.diagonal([10, 20]), 2)
        assert prof.multiplicities == (0, 1, 1)
        assert prof.kernel_rank == 0

    def test_zero_matrix(self):
        prof = elem_divisor_profile(IntMatrix.zeros(2, 3), 3)
        assert prof.multiplicities == ()
        assert prof.kernel_rank == 2

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            elem_divisor_profile(IntMatrix.identity(2), 6)

    def test_hoffman_singleton_total_valuation(self):
        lap = laplacian_matrix(hoffman_singleton_graph())
        prof = elem_divisor_profile(lap, 5)
        assert prof.total_valuation == 47
        assert prof.kernel_rank == 1

    def test_agrees_with_snf_random(self):
        rng = random.Random(31337)
        for _ in range(80):
            m = random_int_matrix(rng, max_dim=6, lo=-20, hi=20)
            factors = snf(m).invariant_factors
            for p in (2, 3, 5, 13):
                prof = elem_divisor_profile(m, p)
                mult, zeros = profile_from_snf(factors, p)
                assert prof.multiplicities == mult
                assert prof.kernel_rank == zeros
                assert sum(prof.multiplicities) + prof.kernel_rank == min(
                    m.rows, m.cols
                )


def _weighted_laplacian(rng, n, p, signed=True):
    """Rows of D - W for a random symmetric weight matrix W, some weights
    divisible by p^1..p^3.  With ``signed`` false the weights are positive
    on a spanning path, so the graph is connected and the rank is n - 1."""
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 and not signed:
                x = rng.randint(1, 4)
            elif rng.random() < 0.5:
                x = rng.randint(-4 if signed else 1, 4)
            else:
                continue
            w[i][j] = w[j][i] = x * p ** rng.choice((0, 0, 1, 2, 3))
    return [[-x if i != j else sum(w[i]) for j, x in enumerate(w[i])] for i in range(n)]


def _zero_row_sum_rows(rng, rows, cols, p):
    """Random rows whose last entry cancels the others, some scaled by a
    power of p."""
    out = []
    for _ in range(rows):
        row = [rng.randint(-9, 9) for _ in range(cols - 1)]
        scale = p ** rng.choice((0, 0, 1, 3))
        out.append([scale * x for x in row + [-sum(row)]])
    return out


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + row + [0] * (n - at - len(row)) for row in b]
        at += len(b)
    return rows


_ZERO_SUM_SHAPES = [(4, 4), (6, 6), (3, 5), (2, 6), (5, 3), (6, 2)]

# the first precision of inputs without a zero-sum certificate: the largest
# b with p^(2b) < 2^30, capped at the Hadamard ceiling
_START = {2: 14, 3: 9, 5: 6, 7: 5}


class TestCertifiedPrecision:
    """The adaptive profile against one pass at the Hadamard ceiling and snf."""

    @pytest.fixture
    def tried(self, monkeypatch):
        """The precisions b of every _eliminate_mod pass that a profile makes."""
        seen = []

        def recorder(m, p, b, track=None):
            seen.append(b)
            return _eliminate_mod(m, p, b, track)

        monkeypatch.setattr(exact, "_eliminate_mod", recorder)
        return seen

    @pytest.fixture
    def ranked(self, monkeypatch):
        """The row counts of the _bareiss calls without right-hand sides,
        which a profile makes for rule (a)'s exact rank (snf's have two)."""
        seen = []

        def recorder(a, rhs):
            if not rhs:
                seen.append(len(a))
            return bareiss(a, rhs)

        bareiss = exact._bareiss
        monkeypatch.setattr(exact, "_bareiss", recorder)
        return seen

    @staticmethod
    def check(m, p, tried):
        """The adaptive profile of m at p, and the precisions it tried."""
        tried.clear()
        prof = elem_divisor_profile(m, p)
        precisions = tuple(tried)
        ceiling = _valuation_bound(m, p) + 1
        assert precisions and max(precisions) <= ceiling
        one_pass = sorted(_eliminate_mod(m, p, ceiling))
        assert one_pass == [i for i, e in enumerate(prof.multiplicities) for _ in range(e)]
        assert prof.kernel_rank == min(m.rows, m.cols) - len(one_pass)
        assert (prof.multiplicities, prof.kernel_rank) == profile_from_snf(
            snf(m).invariant_factors, p
        )
        return prof, precisions

    def test_zero_row_sums_symmetric(self, tried):
        rng = random.Random(4242)
        doubled = 0
        for k in range(30):
            for p in (2, 3, 5):
                m = IntMatrix.from_rows(_weighted_laplacian(rng, 2 + k % 6, p))
                _, precisions = self.check(m, p, tried)
                assert precisions[0] == min(2, _valuation_bound(m, p) + 1)
                doubled += len(precisions) > 1
        assert doubled >= 10

    def test_zero_row_sums_not_symmetric(self, tried):
        rng = random.Random(4343)
        for k in range(36):
            r, c = _ZERO_SUM_SHAPES[k % len(_ZERO_SUM_SHAPES)]
            for p in (2, 3, 5):
                self.check(IntMatrix.from_rows(_zero_row_sum_rows(rng, r, c, p)), p, tried)

    def test_zero_column_sums(self, tried):
        rng = random.Random(4444)
        for k in range(36):
            r, c = _ZERO_SUM_SHAPES[k % len(_ZERO_SUM_SHAPES)]
            for p in (2, 3, 5):
                m = IntMatrix.from_rows(zip(*_zero_row_sum_rows(rng, c, r, p)))
                self.check(m, p, tried)

    def test_wide_zero_row_sums_keep_full_row_rank(self, tried):
        # rows sum to 0, yet the rank is min(rows, cols) = 2: the all-ones
        # kernel vector lowers only the column count, so the rank bound stays
        # 2, and the input starts at the precision of inputs without a
        # zero-sum certificate, where it finds both pivots, not at p^2
        for p in (2, 3, 5):
            m = IntMatrix.from_rows([[1, -1, 0], [0, p**5, -(p**5)]])
            prof, precisions = self.check(m, p, tried)
            assert prof.multiplicities == (1, 0, 0, 0, 0, 1)
            assert prof.kernel_rank == 0
            assert precisions == (min(_START[p], _valuation_bound(m, p) + 1),)

    def test_disconnected_laplacians_stop_on_the_valuation_bound(self, tried):
        rng = random.Random(4545)
        early = 0
        for k in range(20):
            p = (2, 3, 5)[k % 3]
            blocks = [
                _weighted_laplacian(rng, rng.randint(1, 4), p, signed=False)
                for _ in range(2 + k % 2)
            ]
            m = IntMatrix.from_rows(_block_diagonal(blocks))
            prof, precisions = self.check(m, p, tried)
            # rank n - components never reaches the cap n - 1 of rule (a)
            assert prof.rank == m.rows - len(blocks)
            assert prof.total_valuation + precisions[-1] > _valuation_bound(m, p)
            early += precisions[-1] <= _valuation_bound(m, p)
        # rule (b) stops most of them below the ceiling H + 1
        assert early >= 10

    def test_deep_exponent_forces_four_doublings(self, tried):
        for p in (2, 3, 5):
            x = p**20
            prof, precisions = self.check(IntMatrix.from_rows([[x, -x], [-x, x]]), p, tried)
            assert precisions == (2, 4, 8, 16, 32)
            assert prof.multiplicities == (0,) * 20 + (1,)
            assert prof.kernel_rank == 1

    def test_rank_deficient_tall_matrices_make_one_pass(self, tried, ranked):
        # the first pass finds every pivot, and the exact rank stops the loop
        rng = random.Random(4646)
        below = 0
        for k in range(24):
            c = 2 + k % 5
            a = [[rng.randint(-5, 5) for _ in range(c - 1)] for _ in range(c + 2)]
            b = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(c - 1)]
            m = matmul(IntMatrix.from_rows(a), IntMatrix.from_rows(b))
            for p in (2, 3, 5):
                ranked.clear()
                prof, precisions = self.check(m, p, tried)
                assert prof.rank < c
                assert ranked == [m.rows]
                ceiling = _valuation_bound(m, p) + 1
                assert precisions == (min(_START[p], ceiling),)
                below += precisions[0] < ceiling
        assert below >= 60

    def test_full_rank_without_zero_sums_stops_below_the_ceiling(self, tried, ranked):
        # the reduced Laplacian of HoSi: square, nonsingular, no zero sums
        lap = laplacian_matrix(hoffman_singleton_graph()).to_rows()
        m = IntMatrix.from_rows([row[1:] for row in lap[1:]])
        for p in (2, 3, 5, 7):
            prof, precisions = self.check(m, p, tried)
            assert prof.kernel_rank == 0
            assert precisions == (_START[p],)
            assert _START[p] < _valuation_bound(m, p) + 1
        # a full-rank pass needs no rank
        assert ranked == []

    def test_rank_deficient_deep_divisor_needs_the_exact_rank(self, tried, ranked):
        # rank 2 of min(rows, cols) = 3, no zero sums, a divisor p^20 that
        # the first pass misses and large rows that lift the ceiling: the
        # loop must double until the pivot count reaches the rank from
        # _bareiss, and only that stops it below rule (b)
        for p, expected in ((2, (14, 28)), (3, (9, 18, 36)), (5, (6, 12, 24))):
            x, y, z = p**20, p**25, p**30
            m = IntMatrix.from_rows([[1, 0, 0], [0, x, 0], [y, x, 0], [z, 0, 0]])
            ranked.clear()
            prof, precisions = self.check(m, p, tried)
            assert prof.multiplicities == (1,) + (0,) * 19 + (1,)
            assert prof.kernel_rank == 1
            assert precisions == expected
            assert ranked == [m.rows]

    def test_hoffman_singleton_p5_tries_2_then_4(self, tried):
        lap = laplacian_matrix(hoffman_singleton_graph())
        prof = elem_divisor_profile(lap, 5)
        assert tuple(tried) == (2, 4)
        assert prof.multiplicities == (21, 9, 19)
        assert prof.kernel_rank == 1


class TestEliminateMod:
    def test_tracked_columns_have_determinant_one(self):
        # the filtration generators rely on det q = +-1 over Z, not just mod p^b
        rng = random.Random(5150)
        nontrivial = 0
        for _ in range(100):
            m = random_int_matrix(rng, max_dim=8, lo=-20, hi=20)
            for p in (2, 3, 5):
                for b in range(1, 7):
                    q = IntMatrix.identity(m.cols).to_rows()
                    _eliminate_mod(m, p, b, q)
                    assert abs(_det_bareiss(q)) == 1
                    nontrivial += any(x not in (0, 1) for col in q for x in col)
        assert nontrivial > 1000

    @staticmethod
    def assert_same_as_reference(rows, p, b):
        """The kernel's exponents, in order, and tracked columns equal the
        full-scan reference's; returns the exponents."""
        cols = len(rows[0]) if rows else 0
        q = IntMatrix.identity(cols).to_rows()
        q_ref = IntMatrix.identity(cols).to_rows()
        m = IntMatrix(len(rows), cols, [x for row in rows for x in row])
        exps = _eliminate_mod(m, p, b, q)
        assert exps == eliminate_mod_reference(rows, p, b, q_ref), (rows, p, b)
        assert q == q_ref, (rows, p, b)
        return exps

    def test_pivot_order_matches_the_full_scan_reference(self):
        # entries scaled by p or p^2 leave rows with no entry at the current
        # level, and blocks whose least valuation jumps by two or more
        rng = random.Random(2610)
        matrices = jumps = 0
        for p in (2, 3, 5, 7):
            for b in range(7):
                for _ in range(110):
                    R, C = rng.randint(0, 9), rng.randint(0, 9)
                    rows = [
                        [rng.randint(-2 * p, 2 * p) * rng.choice((1, p, p * p)) for _ in range(C)]
                        for _ in range(R)
                    ]
                    exps = self.assert_same_as_reference(rows, p, b)
                    matrices += 1
                    jumps += any(w - v >= 2 for v, w in zip(exps, exps[1:]))
        assert matrices >= 3000
        assert jumps > 50

    def test_least_valuation_jumps_from_0_to_3(self):
        # after the unit pivot the block is [[0, 0], [8, 16], [8, 24]] mod 2^b:
        # its first row has no entry at any level below b, and its least
        # valuation is 3
        rows = [[1, 2, 4], [3, 6, 12], [5, 18, 36], [7, 22, 52]]
        assert self.assert_same_as_reference(rows, 2, 6) == [0, 3, 3]
        assert self.assert_same_as_reference(rows, 2, 4) == [0, 3, 3]
        assert self.assert_same_as_reference(rows, 2, 3) == [0]


class TestMatrixTextFormat:
    def test_roundtrip(self):
        m = IntMatrix.from_rows([[1, -2, 3], [0, 10**30, -7]])
        assert parse_matrix(format_matrix(m)) == m

    def test_parse(self):
        assert parse_matrix("2 2\n2 0\n0 3\n") == IntMatrix.diagonal([2, 3])

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix("2\n1 2\n")
        # checked before the body is counted, which would expect -2 entries
        for text in ("-1 2\n", "2 -1\n1 2\n"):
            with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
                parse_matrix(text)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2 3\n")

    def test_non_integer_entries(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2\n1 x\n")


class IndexOnly:
    # an integer type that is not an int subclass, like numpy's
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestEntryTypes:
    @pytest.mark.parametrize("bad", [2.7, 2.0, "5"])
    def test_non_integers_raise(self, bad):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [bad, 5])
        with pytest.raises(TypeError):
            IntMatrix.diagonal([1, bad])

    @pytest.mark.parametrize("shape", [(1.0, 2), (1, 2.0), ("1", 2)])
    def test_non_integer_dimensions_raise(self, shape):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            IntMatrix(*shape, [1, 5])

    def test_integer_types_become_ints(self):
        m = IntMatrix(1, 3, [True, IndexOnly(-7), 10**30])
        assert m == IntMatrix(1, 3, [1, -7, 10**30])
        assert [type(x) for x in m.row(0)] == [int, int, int]
        d = IntMatrix.diagonal([IndexOnly(2), False])
        assert [type(x) for row in d.to_rows() for x in row] == [int] * 4
        assert snf(d).invariant_factors == (2, 0)
