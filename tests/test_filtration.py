import operator
import random
import time

import pytest

from critlab import (
    IntMatrix,
    hoffman_singleton_graph,
    laplacian_matrix,
    petersen_graph,
    elem_divisor_profile,
    verify_filtration_dims,
)
from critlab import exact, filtration
from critlab.cli import main as cli_main
from critlab.exact import _eliminate_mod, _rank_profile_mod_p
from critlab.filtration import _checked_images
from oracles import (
    _gauss_rank_mod_p,
    hermite_rows,
    integer_snf,
    matmul,
    profile_from_snf,
    random_int_matrix,
)


def _level_generators(m, p, b):
    """Eliminate m once modulo p^b; return the generators of each level.

    The returned function maps a level i <= b to generators of M_i (vectors
    of length m.cols) and of N_i (length m.rows), as in the docstring of
    ``critlab.filtration``: p^max(0, i - v_k) q_k for the pivot columns,
    the other columns q_j, and their images divided by p^i.  It shares the
    elimination kernel with the library, so it is a reference for the
    level bookkeeping of ``verify_filtration_dims``, not for the kernel.
    The images are exact over Z, from ``matmul``, since the Hermite-form
    checks compare lattices; ``_checked_images``, which returns them only
    modulo p^b, is called for its divisibility check alone.
    """
    q = [[int(r == c) for r in range(m.cols)] for c in range(m.cols)]
    exps = _eliminate_mod(m, p, b, q)
    _checked_images(m, p, exps, q, b)
    mq = [[x for (x,) in matmul(m, IntMatrix(m.cols, 1, qk)).to_rows()] for qk in q]

    def level(i):
        assert 0 <= i <= b
        pi = p**i
        dom, img = [], []
        for k, (qk, yk) in enumerate(zip(q, mq)):
            s = p ** max(0, i - exps[k]) if k < len(exps) else 1
            dom.append([s * x for x in qk])
            img.append([s * x // pi for x in yk])
        return dom, img

    return level


def _kernel_dim(m):
    # the zero count of the integer Smith form, plus the columns past it
    return m.cols - sum(1 for d in integer_snf(m) if d)


def _within(inner, outer, n):
    # the lattice spanned by inner lies in the one spanned by outer
    return hermite_rows(outer + inner, n) == hermite_rows(outer, n)


class TestFiltrationM:
    """The level generators span the sublattice M_i of the vectors whose
    images are divisible by p^i, and the report measures its rank mod p."""

    def test_diag_level_1_is_everything(self):
        m = IntMatrix.diagonal([5, 25, 0])
        dom, _ = _level_generators(m, 5, 1)(1)
        assert hermite_rows(dom, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert verify_filtration_dims(m, 5).dims_M[1] == 3

    def test_diag_level_2(self):
        m = IntMatrix.diagonal([5, 25, 0])
        dom, _ = _level_generators(m, 5, 2)(2)
        # [5, 0, 0], [0, 1, 0] and [0, 0, 1] are inside, [1, 0, 0] is not
        assert hermite_rows(dom, 3) == [[5, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert _gauss_rank_mod_p(dom, 5) == 2
        assert verify_filtration_dims(m, 5).dims_M[2] == 2

    def test_identity_level_1_is_p_times_lattice(self):
        m = IntMatrix.identity(2)
        dom, _ = _level_generators(m, 5, 1)(1)
        assert hermite_rows(dom, 2) == [[5, 0], [0, 5]]
        assert verify_filtration_dims(m, 5).dims_M[1] == 0

    def test_level_0_is_full_lattice(self):
        dom, _ = _level_generators(IntMatrix.diagonal([2, 3]), 7, 0)(0)
        assert hermite_rows(dom, 2) == [[1, 0], [0, 1]]


class TestFiltrationN:
    """The level images divided by p^i span N_i, and the report measures
    its rank mod p."""

    def test_diag_level_1(self):
        m = IntMatrix.diagonal([5, 25, 0])
        _, img = _level_generators(m, 5, 1)(1)
        # [1, 0, 0] and [0, 5, 0] are inside, [0, 1, 0] is not
        assert hermite_rows(img, 3) == [[1, 0, 0], [0, 5, 0]]
        assert _gauss_rank_mod_p(img, 5) == 1
        assert verify_filtration_dims(m, 5).dims_N[1] == 1

    def test_diag_level_2(self):
        m = IntMatrix.diagonal([5, 25, 0])
        _, img = _level_generators(m, 5, 2)(2)
        assert hermite_rows(img, 3) == [[1, 0, 0], [0, 1, 0]]
        assert verify_filtration_dims(m, 5).dims_N[2] == 2

    def test_zero_matrix_gives_zero_lattice(self):
        m = IntMatrix.zeros(3, 3)
        _, img = _level_generators(m, 5, 2)(2)
        assert hermite_rows(img, 3) == []
        assert set(verify_filtration_dims(m, 5).dims_N) == {0}


class TestChains:
    def test_containments_random(self):
        # descending on the domain side, ascending on the image side, as
        # lattices and as the measured dimensions
        rng = random.Random(314)
        for _ in range(25):
            m = random_int_matrix(rng, max_dim=5, lo=-9, hi=9)
            for p in (2, 5):
                level = _level_generators(m, p, 3)
                prev_m, prev_n = level(0)
                for i in (1, 2, 3):
                    cur_m, cur_n = level(i)
                    assert _within(cur_m, prev_m, m.cols)
                    assert _within(prev_n, cur_n, m.rows)
                    prev_m, prev_n = cur_m, cur_n
                rep = verify_filtration_dims(m, p)
                assert list(rep.dims_M) == sorted(rep.dims_M, reverse=True)
                assert list(rep.dims_N) == sorted(rep.dims_N)

    def test_image_chain_stabilizes_at_rank(self):
        rng = random.Random(2718)
        for _ in range(20):
            m = random_int_matrix(rng, max_dim=5, lo=-6, hi=6)
            factors = integer_snf(m)
            rank = sum(1 for d in factors if d)
            prof_val = sum(i * e for i, e in enumerate(profile_from_snf(factors, 2)[0]))
            _, img = _level_generators(m, 2, prof_val + 1)(prof_val + 1)
            assert len(hermite_rows(img, m.rows)) == rank
            # the saturated image keeps its rank mod p
            assert verify_filtration_dims(m, 2).dims_N[-1] == rank


class TestVerifyFiltrationDims:
    def test_diagonal_example(self):
        rep = verify_filtration_dims(IntMatrix.diagonal([5, 25, 0]), 5)
        assert rep.passed
        assert rep.dims_M == (3, 3, 2, 1, 1)
        assert rep.dims_N == (0, 1, 2, 2, 2)
        assert rep.kernel_dim == 1

    def test_random_matrices_pass_with_snf_oracle(self):
        rng = random.Random(161803)
        for _ in range(60):
            m = random_int_matrix(rng, max_dim=5, lo=-20, hi=20)
            factors = integer_snf(m)
            for p in (2, 3, 5):
                rep = verify_filtration_dims(m, p)
                assert rep.passed
                # recompute the expected dimensions from the full integer
                # Smith form, independently of the mod-p^B profile
                mult, _ = profile_from_snf(factors, p)
                kern = _kernel_dim(m)
                depth = len(rep.dims_M) - 1
                e = list(mult) + [0] * (depth + 2 - len(mult))
                assert rep.kernel_dim == kern
                for i in range(depth + 1):
                    assert rep.dims_M[i] == kern + sum(e[i:])
                    assert rep.dims_N[i] == sum(e[: i + 1])

    def test_petersen_p5(self):
        rep = verify_filtration_dims(laplacian_matrix(petersen_graph()), 5)
        assert rep.passed
        # the multiplicity-4 Laplacian eigenvalue 5 pins at least 4
        # dimensions into the level-1 image chain
        assert rep.dims_N[1] >= 4

    def test_petersen_p2(self):
        rep = verify_filtration_dims(laplacian_matrix(petersen_graph()), 2)
        assert rep.passed
        assert rep.kernel_dim == 1

    def test_report_json_shape(self):
        rep = verify_filtration_dims(IntMatrix.diagonal([2, 4]), 2)
        d = rep.to_json_dict()
        assert set(d) == {"p", "dims_M", "dims_N", "kernel_dim", "pass"}
        assert d["pass"] is True


def _agreement_matrices():
    """Seeded square, wide, tall and rank-deficient matrices, then zero and
    empty ones."""
    rng = random.Random(5772)
    shapes = [(4, 4), (5, 5), (3, 5), (2, 6), (5, 3), (6, 2), (1, 4), (4, 1)]
    out = []
    for k in range(64):
        r, c = shapes[k % len(shapes)]
        rows = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        if k % 2 == 0 and r > 2:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        if k % 4 == 1:
            # deep filtrations: a column divisible by 2^2 * 3 * 5^2
            j = rng.randrange(c)
            for row in rows:
                row[j] *= 300
        out.append(IntMatrix.from_rows(rows))
    return out + [IntMatrix.zeros(2, 3), IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0)]


class TestAgreementWithLatticeRoute:
    """The measured dimensions against the generators of every level,
    emitted tail included, ranked by Gaussian elimination on lists."""

    def test_random_matrices_every_level(self):
        deficient = 0
        for m in _agreement_matrices():
            kern = _kernel_dim(m)
            deficient += kern > max(0, m.cols - m.rows)
            for p in (2, 3, 5):
                rep = verify_filtration_dims(m, p)
                assert rep.passed
                assert rep.kernel_dim == kern
                level = _level_generators(m, p, len(rep.dims_M) - 1)
                for i in range(len(rep.dims_M)):
                    dom, img = level(i)
                    assert rep.dims_M[i] == _gauss_rank_mod_p(dom, p)
                    assert rep.dims_N[i] == _gauss_rank_mod_p(img, p)
        assert deficient >= 10


class TestNoLatticeOnTheCheckPath:
    """Pinned dimensions of HoSi and of a wide rank-deficient example."""

    def test_passes_with_lattice_disabled(self):
        # third row = 2 * first + second: rank 2, kernel 3, invariant factors 1, 15
        wide = IntMatrix.from_rows(
            [[5, 10, 0, 15, 25], [3, 0, 9, 3, 15], [13, 20, 9, 33, 65]]
        )
        for m in (laplacian_matrix(hoffman_singleton_graph()), wide):
            rep = verify_filtration_dims(m, 5)
            assert rep.passed
        assert (rep.dims_M, rep.dims_N, rep.kernel_dim) == ((5, 4, 3), (1, 2, 2), 3)


def _profile_route_matrices():
    """Seeded square, wide, tall and rank-deficient matrices with deep
    divisors, then zero and empty ones: 330 in all."""
    rng = random.Random(1414)
    shapes = [(5, 5), (7, 7), (4, 7), (3, 8), (7, 4), (8, 3), (1, 5), (6, 1), (9, 9)]
    out = []
    for k in range(320):
        r, c = shapes[k % len(shapes)]
        rows = [[rng.randint(-15, 15) for _ in range(c)] for _ in range(r)]
        if k % 3 == 0 and r > 2:
            rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
        if k % 4 == 1:
            # a column divisible by 2^3 * 3^2 * 5^2
            j = rng.randrange(c)
            for row in rows:
                row[j] *= 1800
        out.append(IntMatrix.from_rows(rows))
    zeros = [(1, 1), (2, 3), (3, 2), (4, 4)]
    empty = [(0, 0), (0, 3), (3, 0), (0, 1), (1, 0), (0, 5)]
    return out + [IntMatrix.zeros(r, c) for r, c in zeros + empty]


class TestRankProfileRoute:
    """Every measured level against the rank of that level's own
    generators, one rank per chain and level."""

    @staticmethod
    def _assert_levels_match(m, p):
        rep = verify_filtration_dims(m, p)
        depth = len(elem_divisor_profile(m, p).multiplicities)
        level = _level_generators(m, p, depth)
        for i in range(depth + 1):
            dom, img = level(i)
            assert rep.dims_M[i] == _rank_profile_mod_p(dom, p)[-1]
            assert rep.dims_N[i] == _rank_profile_mod_p(img, p)[-1]
        assert rep.passed
        return depth

    def test_seeded_matrices(self):
        matrices = _profile_route_matrices()
        assert len(matrices) >= 300
        deep = 0
        for m in matrices:
            for p in (2, 3, 5):
                deep += self._assert_levels_match(m, p) >= 3
        assert deep >= 50

    def test_graph_laplacians(self):
        hosi = laplacian_matrix(hoffman_singleton_graph())
        petersen = laplacian_matrix(petersen_graph())
        assert self._assert_levels_match(hosi, 5) == 3
        for p in (2, 5):
            self._assert_levels_match(petersen, p)

    def test_corrupt_tracked_column_is_caught(self, monkeypatch):
        lap = laplacian_matrix(hoffman_singleton_graph())
        # column 0 of the Laplacian is not 0 mod 5, so adding e_0 to the
        # non-pivot column breaks m q_j = 0 mod p^depth
        def corrupting(m, p, b, track=None):
            exps = _eliminate_mod(m, p, b, track)
            if track is not None:
                track[len(exps)][0] += 1
            return exps

        monkeypatch.setattr(exact, "_eliminate_mod", corrupting)
        with pytest.raises(AssertionError, match="not divisible"):
            verify_filtration_dims(lap, 5)

    def test_scaled_tracked_column_fails_the_image_chain(self, monkeypatch, capsys):
        # p q_0 keeps every image divisible, so only the N chain can see it:
        # the row (p m q_0 / p^v_0) mod p is 0, and N loses a dimension at
        # every level from v_0 on
        def scaling(m, p, b, track=None):
            exps = _eliminate_mod(m, p, b, track)
            if track is not None and exps:
                track[0] = [p * x for x in track[0]]
            return exps

        monkeypatch.setattr(exact, "_eliminate_mod", scaling)
        rep = verify_filtration_dims(laplacian_matrix(hoffman_singleton_graph()), 5)
        assert not rep.passed
        assert rep.dims_N[:4] == (20, 29, 48, 48)
        petersen = laplacian_matrix(petersen_graph())
        for p in (2, 5):
            assert not verify_filtration_dims(petersen, p).passed
        assert cli_main(["filtration", "--graph", "hosi", "--prime", "5"]) == 2
        assert capsys.readouterr().out.startswith("p=5 pass=False\n")

    def test_one_certified_loop_for_profile_and_levels(self, monkeypatch):
        # verify_filtration_dims makes the passes of elem_divisor_profile,
        # each with a tracker, and no other elimination
        passes = []

        def recorder(m, p, b, track=None):
            passes.append((b, track is not None))
            return _eliminate_mod(m, p, b, track)

        monkeypatch.setattr(exact, "_eliminate_mod", recorder)
        hosi = laplacian_matrix(hoffman_singleton_graph())
        reduced = IntMatrix.from_rows([row[1:] for row in hosi.to_rows()[1:]])
        x = 30**20  # a divisor p^20 at p = 2, 3, 5
        deep = [
            IntMatrix.from_rows([[x, -x], [-x, x]]),
            IntMatrix.from_rows([[1, 0, 0], [0, x, 0], [30 * x, x, 0]]),
        ]
        matrices = _profile_route_matrices()[::7] + [hosi, reduced] + deep
        doubled = 0
        for m in matrices:
            for p in (2, 3, 5):
                passes.clear()
                elem_divisor_profile(m, p)
                tried = [b for b, tracked in passes if not tracked]
                assert len(tried) == len(passes)
                passes.clear()
                assert verify_filtration_dims(m, p).passed
                assert passes == [(b, True) for b in tried]
                doubled += len(tried) > 1
        assert doubled >= 7


class TestHoffmanSingleton:
    def test_p5_all_levels(self):
        lap = laplacian_matrix(hoffman_singleton_graph())
        start = time.perf_counter()
        rep = verify_filtration_dims(lap, 5)
        # an echelon lattice per level would take minutes for the 49 levels
        assert time.perf_counter() - start < 10
        assert rep.passed
        assert len(rep.dims_M) == 49
        assert rep.dims_M[:4] == (50, 29, 20, 1)
        assert rep.dims_N[:4] == (21, 30, 49, 49)
        assert set(rep.dims_M[3:]) == {1}
        assert set(rep.dims_N[2:]) == {49}
        for i in (0, 1):
            # each level from its own elimination modulo 5^i
            dom, img = _level_generators(lap, 5, i)(i)
            assert rep.dims_M[i] == _gauss_rank_mod_p(dom, 5)
            assert rep.dims_N[i] == _gauss_rank_mod_p(img, 5)


class TestFiltrationDepth:
    """Levels past the largest exponent are emitted as constant, not measured."""

    def test_hoffman_singleton_measures_three_levels(self, monkeypatch):
        calls = []

        def counting(rows, p):
            calls.append(len(rows))
            return _rank_profile_mod_p(rows, p)

        monkeypatch.setattr(filtration, "_rank_profile_mod_p", counting)
        rep = verify_filtration_dims(laplacian_matrix(hoffman_singleton_graph()), 5)
        # one rank profile, of the N chain, with one row per pivot column,
        # for levels 0..2; the M chain is counted
        assert calls == [49]
        assert rep.passed
        assert rep.dims_M == (50, 29, 20) + (1,) * 46
        assert rep.dims_N == (21, 30) + (49,) * 47
        assert rep.kernel_dim == 1

    def test_emitted_tail_equals_full_depth_ranks(self):
        tails = 0
        for p in (2, 3, 5):
            for m in _matrices_with_p_divisors(p, 20):
                rep = verify_filtration_dims(m, p)
                prof = elem_divisor_profile(m, p)
                depth, top = len(prof.multiplicities), prof.total_valuation + 1
                assert rep.passed
                assert len(rep.dims_M) - 1 == top
                level = _level_generators(m, p, top)
                for i in range(depth + 1, top + 1):
                    dom, img = level(i)
                    measured = (
                        _rank_profile_mod_p(dom, p)[-1],
                        _rank_profile_mod_p(img, p)[-1],
                    )
                    assert (rep.dims_M[i], rep.dims_N[i]) == measured
                    tails += 1
        assert tails >= 150


def _unimodular(rng, n):
    """A random integer n x n matrix of determinant +-1, n >= 2."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return IntMatrix.from_rows(u)


def _matrices_with_p_divisors(p, count):
    """Seeded U D V with unimodular U, V and several divisors p^1..p^3 on
    the diagonal D, some rank-deficient, so the total valuation is well
    above the largest exponent and the emitted tail is long."""
    rng = random.Random(f"tail:{p}")
    shapes = [(4, 4), (5, 5), (3, 5), (5, 3), (6, 4)]
    out = []
    for k in range(count):
        r, c = shapes[k % len(shapes)]
        rank = min(r, c) - (k % 3 == 0)
        d = [[0] * c for _ in range(r)]
        for t in range(rank):
            d[t][t] = p ** rng.choice((0, 1, 1, 2, 3)) * rng.choice((1, 2, 3, 4, 6, 7))
        ud = matmul(_unimodular(rng, r), IntMatrix.from_rows(d))
        out.append(matmul(ud, _unimodular(rng, c)))
    return out


class TestTrackerCorruptionSweep:
    """Seeded corruptions of the tracked columns of the last pass: the
    report's verdict against one measured level at a time, each level from
    all of its generators, the non-pivot images included."""

    @staticmethod
    def _corrupt(kind, q, exps, p, rng):
        C = len(q)
        if kind == "scale" and exps:
            k = rng.randrange(len(exps))
            q[k] = [p * x for x in q[k]]
        elif kind == "shift" and C:
            q[rng.randrange(C)][rng.randrange(C)] += 1
        elif kind == "copy" and C > 1:
            j, k = rng.sample(range(C), 2)
            q[k] = list(q[j])
        elif kind == "swap" and C > 1:
            j, k = rng.sample(range(C), 2)
            q[j], q[k] = q[k], q[j]

    @staticmethod
    def _reference_verdict(m, p, exps, q):
        """"caught" when an image fails its divisibility, else whether the
        ranks of levels 0..depth, each from its own generators and the last
        one repeated, equal e_0 + ... + e_i."""
        depth = max(exps) + 1 if exps else 0
        top = sum(exps) + 1
        mod = p**depth
        q = [[x % mod for x in qk] for qk in q]
        images = [[sum(map(operator.mul, row, qk)) for row in m.to_rows()] for qk in q]
        scale = [p**v for v in exps] + [mod] * (len(q) - len(exps))
        if any(x % s for s, y in zip(scale, images) for x in y):
            return "caught"
        dims = []
        for i in range(depth + 1):
            rows = []
            for k, y in enumerate(images):
                f = p ** max(0, i - exps[k]) if k < len(exps) else 1
                rows.append([f * x // p**i for x in y])
            dims.append(_gauss_rank_mod_p(rows, p))
        dims += dims[-1:] * (top - depth)
        e = [exps.count(v) for v in range(depth)]
        return dims == [sum(e[: i + 1]) for i in range(top + 1)]

    def test_verdicts_match_the_full_generator_ranks(self, monkeypatch):
        kinds = ("scale", "shift", "copy", "swap")
        last = {}

        def corrupting(m, p, b, track=None):
            exps = _eliminate_mod(m, p, b, track)
            if track is not None:
                self._corrupt(last["kind"], track, exps, p, last["rng"])
                last["pass"] = (exps, [list(qk) for qk in track])
            return exps

        monkeypatch.setattr(exact, "_eliminate_mod", corrupting)
        laplacians = [laplacian_matrix(g) for g in (petersen_graph(), hoffman_singleton_graph())]
        verdicts = []
        for p in (2, 3, 5):
            matrices = _profile_route_matrices() + _matrices_with_p_divisors(p, 20) + laplacians
            for n, m in enumerate(matrices):
                last["kind"] = kinds[n % 4]
                last["rng"] = random.Random(f"corrupt:{p}:{n}")
                try:
                    got = verify_filtration_dims(m, p).passed
                except AssertionError:
                    got = "caught"
                assert got == self._reference_verdict(m, p, *last["pass"]), (p, n)
                verdicts.append((last["kind"], got))
        assert len(verdicts) == 1056
        # a swap keeps the span of q, so it passes or is caught; the other
        # kinds fail the chain somewhere
        for kind in ("scale", "shift", "copy"):
            assert (kind, False) in verdicts
        assert ("swap", False) not in verdicts
        assert sum(got is False for _, got in verdicts) >= 400
        assert sum(got == "caught" for _, got in verdicts) >= 150
        assert sum(got is True for _, got in verdicts) >= 300


class TestCheckedImages:
    """The packed images of ``_checked_images`` against exact products."""

    @staticmethod
    def _seeded_cases():
        # square, wide and tall shapes, empty ones, all-zero rows and
        # columns; entries up to 10^12 times p^0..p^2 give deep pivots too
        rng = random.Random("packed-images")
        shapes = [(5, 5), (3, 7), (7, 3), (0, 4), (4, 0), (1, 9), (9, 1), (6, 6)]
        for k in range(400):
            r, c = shapes[k % len(shapes)]
            p = (2, 3, 5, 7, 11)[k % 5]
            b = rng.randint(0, 4)
            h = rng.choice((9, 10**12))
            rows = [[p ** rng.randint(0, 2) * rng.randint(-h, h) for _ in range(c)] for _ in range(r)]
            if r and k % 3 == 0:
                rows[rng.randrange(r)] = [0] * c
            if c and k % 4 == 0:
                j = rng.randrange(c)
                for row in rows:
                    row[j] = 0
            yield IntMatrix(r, c, [x for row in rows for x in row]), p, b

    def test_seeded_tracked_eliminations_match_matmul(self):
        deep = 0
        for m, p, b in self._seeded_cases():
            q = [[int(r == c) for r in range(m.cols)] for c in range(m.cols)]
            exps = _eliminate_mod(m, p, b, q)
            P = p**b
            exact_images = [matmul(m, IntMatrix(m.cols, 1, qk)).to_rows() for qk in q]
            assert _checked_images(m, p, exps, q, b) == [
                [x % P for (x,) in y] for y in exact_images
            ]
            deep += any(exps)
        assert deep >= 60

    @pytest.mark.parametrize("p, b", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2), (11, 1)])
    def test_every_slot_at_its_bound(self, p, b):
        # m = -1 is P - 1 mod P = p^b, and C = P columns of P - 1 fill every
        # slot to C (P - 1)^2, the bound the slot width comes from; the
        # image -C (P - 1) is 0 mod P, as a non-pivot column needs
        C = P = p**b
        q = [[P - 1] * C for _ in range(C)]
        for R in (2, 3):
            m = IntMatrix(R, C, [-1] * (R * C))
            assert -C * (P - 1) % P == 0
            assert _checked_images(m, p, [], q, b) == [[0] * R] * C
