import random

from critlab import IntMatrix, Lattice, kernel_basis
from oracles import integer_snf, random_int_matrix


class TestLattice:
    def test_membership_basic(self):
        lat = Lattice(2, [[2, 0], [0, 3]])
        assert [2, 3] in lat
        assert [4, -3] in lat
        assert [1, 0] not in lat
        assert [0, 1] not in lat

    def test_rank_and_combination(self):
        lat = Lattice(3)
        lat.add_vector([2, 0, 0])
        lat.add_vector([3, 0, 0])  # gcd combine: pivot becomes 1
        assert lat.rank == 1
        assert [1, 0, 0] in lat

    def test_zero_vector_ignored(self):
        lat = Lattice(2)
        lat.add_vector([0, 0])
        assert lat.rank == 0

    def test_echelon_pivots_increase(self):
        rng = random.Random(11)
        for _ in range(30):
            amb = rng.randint(1, 6)
            lat = Lattice(amb)
            for _ in range(rng.randint(1, 8)):
                lat.add_vector([rng.randint(-9, 9) for _ in range(amb)])
            assert lat.pivots == sorted(lat.pivots)
            assert len(set(lat.pivots)) == len(lat.pivots)
            for row, piv in zip(lat.rows, lat.pivots):
                assert row[piv] > 0
                assert all(x == 0 for x in row[:piv])

    def test_added_vectors_are_members(self):
        rng = random.Random(23)
        for _ in range(30):
            amb = rng.randint(1, 6)
            vecs = [
                [rng.randint(-9, 9) for _ in range(amb)]
                for _ in range(rng.randint(1, 6))
            ]
            lat = Lattice(amb, vecs)
            for v in vecs:
                assert v in lat
            # and so are random integer combinations
            combo = [0] * amb
            for v in vecs:
                c = rng.randint(-3, 3)
                combo = [x + c * y for x, y in zip(combo, v)]
            assert combo in lat


class TestKernelBasis:
    def test_simple(self):
        m = IntMatrix.from_rows([[2, 0], [0, 0]])
        assert kernel_basis(m) == [[0, 1]]

    def test_full_rank_has_no_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)) == []

    def test_kernel_vectors_annihilate_random(self):
        rng = random.Random(4242)
        for _ in range(50):
            m = random_int_matrix(rng, max_dim=6, lo=-9, hi=9)
            basis = kernel_basis(m)
            for vec in basis:
                assert m.mul_vector(vec) == [0] * m.rows
            rank = sum(1 for d in integer_snf(m) if d)
            assert len(basis) == m.cols - rank

    def test_kernel_is_saturated(self):
        # a vector with a common factor divided out must still lie inside
        rng = random.Random(77)
        for _ in range(25):
            m = random_int_matrix(rng, max_dim=5, lo=-6, hi=6)
            basis = kernel_basis(m)
            lat = Lattice(m.cols, basis)
            for vec in basis:
                doubled = [2 * x for x in vec]
                assert doubled in lat
