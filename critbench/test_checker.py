"""Tests of the benchmark's checker and input generators against published values.

Run from the root of a checkout:  python3 -m unittest discover -s critbench
"""

import sys
import unittest
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import inputs  # noqa: E402


def complete_edges(n):
    return set(combinations(range(n), 2))


def srg_parameters(n, edges):
    """(v, k, lambda, mu) of a graph, or None when it is not strongly regular."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if len({len(a) for a in adj}) != 1:
        return None
    lam = {len(adj[u] & adj[v]) for u, v in combinations(range(n), 2) if v in adj[u]}
    mu = {len(adj[u] & adj[v]) for u, v in combinations(range(n), 2) if v not in adj[u]}
    if len(lam) != 1 or len(mu) != 1:
        return None
    return n, len(adj[0]), lam.pop(), mu.pop()


class PublishedValues(unittest.TestCase):
    """C5 gives Z5, Petersen Z2 + Z10^3, K_n Z_n^(n-2), HoSi order 2^20 5^47."""

    def test_tree_counts(self):
        self.assertEqual(checker.tree_count(5, inputs.cycle_edges(5)), 5)
        self.assertEqual(checker.tree_count(10, inputs.petersen_edges()), 2 * 10**3)
        for n in range(2, 9):
            self.assertEqual(checker.tree_count(n, complete_edges(n)), n ** (n - 2))
        self.assertEqual(checker.tree_count(50, inputs.hoffman_singleton_edges()), 2**20 * 5**47)

    def test_srg_closed_form(self):
        self.assertEqual(checker.srg_order(5, 2, 0, 1), 5)
        self.assertEqual(checker.srg_order(10, 3, 0, 1), 2000)
        self.assertEqual(checker.srg_order(50, 7, 0, 1), 2**20 * 5**47)
        self.assertEqual(checker.srg_order(3250, 57, 0, 1), 2**1728 * 5**4975 * 13**1519)

    def test_ranks_give_e0(self):
        # Petersen: factors 1^5 2 10 10 10 0, so 5 are odd and 6 prime to 5
        lap = inputs.laplacian(10, inputs.petersen_edges())
        self.assertEqual(checker.rank_mod(lap, 2), 5)
        self.assertEqual(checker.rank_mod(lap, 5), 6)
        self.assertEqual(checker.rank_q(lap), 9)
        # K_n: factors 1 n^(n-2) 0
        self.assertEqual(checker.rank_mod(inputs.laplacian(6, complete_edges(6)), 3), 1)

    def test_every_generated_graph_has_its_parameters(self):
        for label, params, n, edges in inputs.srg_graphs():
            with self.subTest(label):
                self.assertEqual(srg_parameters(n, edges), params)
                self.assertEqual(checker.tree_count(n, edges), checker.srg_order(*params))

    def test_roadmap_graph(self):
        n, edges = inputs.roadmap_graph()
        self.assertEqual(n, 40)
        self.assertEqual(checker.tree_count(n, edges).bit_length(), 74)


class Arithmetic(unittest.TestCase):
    def test_primality_against_a_sieve(self):
        limit = 5000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        self.assertEqual([n for n in range(limit) if checker.is_prime(n)],
                         [n for n in range(limit) if sieve[n]])

    def test_primality_pseudoprimes(self):
        self.assertTrue(checker.is_prime(2**61 - 1))
        self.assertFalse(checker.is_prime(561))  # Carmichael
        self.assertFalse(checker.is_prime(3215031751))  # strong pseudoprime to 2, 3, 5, 7
        self.assertFalse(checker.is_prime(3825123056546413051))  # ... to bases up to 23
        with self.assertRaises(ValueError):
            checker.is_prime(2**89 - 1)  # prime, but past the proven range

    def test_det(self):
        self.assertEqual(checker.det([[0, 2], [3, 4]]), -6)
        self.assertEqual(checker.det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]), 6)
        self.assertEqual(checker.det([[1, 2], [2, 4]]), 0)

    def test_trial_division_cost(self):
        cap = 1 << 20
        prim = checker.primorial(cap)
        self.assertEqual(checker.trial_division_cost(1, cap, prim), 1)
        self.assertEqual(checker.trial_division_cost(2**5 * 1000003 * 1000033, cap, prim), 1000003)
        self.assertEqual(checker.trial_division_cost(7 * 1000003**2, cap, prim), 1000003)
        self.assertEqual(checker.trial_division_cost(6 * 999983 * 1000003, cap, prim), 999983)
        self.assertEqual(checker.trial_division_cost(12 * 1000000007, cap, prim), 31622)
        self.assertIsNone(checker.trial_division_cost(7 * (2**61 - 1), cap, prim))

    def test_matrix_with_divisors_keeps_the_determinant(self):
        import random

        rows = inputs.matrix_with_divisors(random.Random(0), 5, 5, [1, 2, 3, 4, 25])
        self.assertEqual(abs(checker.det(rows)), 600)


class Checks(unittest.TestCase):
    PETERSEN = {"invariant_factors": [2, 10, 10, 10], "order_factored": {"2": 4, "5": 3},
                "free_rank": 1, "bicycle_dim": 4}

    def test_critgroup(self):
        self.assertEqual(checker.check_critgroup(self.PETERSEN, 10, 2000, 5), [])
        for key, bad in (("invariant_factors", [2, 10, 100, 1]), ("bicycle_dim", 3),
                         ("order_factored", {"4": 2, "5": 3}), ("free_rank", 0)):
            with self.subTest(key):
                self.assertNotEqual(
                    checker.check_critgroup({**self.PETERSEN, key: bad}, 10, 2000, 5), [])

    def test_profile(self):
        good = {"profiles": [{"p": 5, "multiplicities": [6, 3], "kernel_rank": 1}]}
        self.assertEqual(checker.check_profile(good, 10, 2000, {5: 6}), [])
        wrong = {"profiles": [{"p": 5, "multiplicities": [7, 1, 1], "kernel_rank": 1}]}
        self.assertNotEqual(checker.check_profile(wrong, 10, 2000, {5: 6}), [])

    def test_affine_expressions(self):
        for text, t, value in (("1517 - t", 10, 1507), ("3 + t", 4, 7), ("t", 9, 9),
                               ("2 + 2*t", 3, 8), ("5 - 3*t", 1, 2), ("-4", 0, -4),
                               ("t - 2", 5, 3)):
            self.assertEqual(checker.affine_at(text, t), value, text)

    def test_moore57(self):
        rep = {"order_factored": {"2": 1728, "5": 4975, "13": 1519},
               "forced": {"2": 1728, "13": 1519},
               "families": {"5": [
                   {"case": 1, "t_range": [0, 1517], "e": ["3 + t", "1517 - t", "1729 - t", "t"]},
                   {"case": 2, "t_range": [0, 1519], "e": ["2 + t", "1519 - t", "1728 - t", "t"]}]}}
        params = (3250, 57, 0, 1)
        self.assertEqual(checker.check_moore57(rep), [])
        self.assertEqual(checker.check_analyze(rep, params, checker.srg_order(*params), {}), [])
        one = {**rep, "families": {"5": rep["families"]["5"][:1]}}
        self.assertNotEqual(checker.check_moore57(one), [])

    def test_filtration(self):
        # Petersen at 5: e = (6, 3) and a kernel of 1, so dims_M 10 4 1 1 and dims_N 6 9 9 9
        good = {"dims_M": [10, 4, 1, 1], "dims_N": [6, 9, 9, 9], "kernel_dim": 1, "pass": True}
        self.assertEqual(checker.check_filtration(good, 10, 6, 1, 3), [])
        self.assertNotEqual(checker.check_filtration({**good, "pass": False}, 10, 6, 1, 3), [])
        self.assertNotEqual(checker.check_filtration(good, 10, 6, 1, 4), [])


if __name__ == "__main__":
    unittest.main()
