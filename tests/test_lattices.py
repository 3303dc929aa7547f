"""The lattice oracles of ``tests/oracles.py``: Hermite bases and integer
kernels, the references the eigenvector and filtration tests use."""

import random

from critlab import IntMatrix
from oracles import hermite_rows, integer_snf, kernel_basis, matmul, random_int_matrix


def contains(basis, vec) -> bool:
    # vec lies in the lattice exactly when adding it leaves the Hermite form
    n = len(vec)
    return hermite_rows(list(basis) + [vec], n) == hermite_rows(basis, n)


class TestLattice:
    def test_membership_basic(self):
        basis = [[2, 0], [0, 3]]
        assert contains(basis, [2, 3])
        assert contains(basis, [4, -3])
        assert not contains(basis, [1, 0])
        assert not contains(basis, [0, 1])

    def test_rank_and_combination(self):
        # gcd combination: the pivot becomes 1
        assert hermite_rows([[2, 0, 0], [3, 0, 0]], 3) == [[1, 0, 0]]

    def test_zero_vector_ignored(self):
        assert hermite_rows([[0, 0]], 2) == []

    def test_echelon_pivots_increase(self):
        rng = random.Random(11)
        for _ in range(30):
            amb = rng.randint(1, 6)
            vecs = [[rng.randint(-9, 9) for _ in range(amb)] for _ in range(rng.randint(1, 8))]
            rows = hermite_rows(vecs, amb)
            pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
            assert pivots == sorted(set(pivots))
            for k, (row, piv) in enumerate(zip(rows, pivots)):
                assert row[piv] > 0
                # Hermite reduction: the other rows sit in [0, pivot) here
                assert all(0 <= other[piv] < row[piv] for other in rows[:k])

    def test_added_vectors_are_members(self):
        rng = random.Random(23)
        for _ in range(30):
            amb = rng.randint(1, 6)
            vecs = [
                [rng.randint(-9, 9) for _ in range(amb)]
                for _ in range(rng.randint(1, 6))
            ]
            basis = hermite_rows(vecs, amb)
            for v in vecs:
                assert contains(basis, v)
            # and so are random integer combinations
            combo = [0] * amb
            for v in vecs:
                c = rng.randint(-3, 3)
                combo = [x + c * y for x, y in zip(combo, v)]
            assert contains(basis, combo)


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
                assert matmul(m, IntMatrix(m.cols, 1, vec)) == IntMatrix.zeros(m.rows, 1)
            rank = sum(1 for d in integer_snf(m) if d)
            assert len(basis) == m.cols - rank

    def test_kernel_is_saturated(self):
        # a vector whose multiple lies in the kernel lies in it too: the
        # basis spans a direct summand of Z^cols, so its invariant factors
        # are all 1
        rng = random.Random(77)
        saturated = 0
        for _ in range(25):
            m = random_int_matrix(rng, max_dim=5, lo=-6, hi=6)
            basis = kernel_basis(m)
            if basis:
                assert integer_snf(IntMatrix.from_rows(basis)) == (1,) * len(basis)
                saturated += 1
        assert saturated >= 5
