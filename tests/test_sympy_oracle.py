"""Smith forms and profiles against sympy's Smith normal form.

sympy shares no code with critlab, so it is an independent oracle for
``snf`` and ``elem_divisor_profile``.  The module is skipped where sympy is
not installed.
"""

import random

import pytest

pytest.importorskip("sympy")

from sympy import Matrix, ZZ  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from critlab import IntMatrix, elem_divisor_profile, snf  # noqa: E402
from oracles import profile_from_snf  # noqa: E402


def _sympy_factors(m: IntMatrix) -> tuple[int, ...]:
    d = smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
    return tuple(abs(d[t, t]) for t in range(min(m.rows, m.cols)))


def _matrices():
    """100 seeded matrices up to 6 x 6: square, wide and tall, every
    other one with a dependent row, every fourth with a column scaled by
    2^2 * 3 * 5^2."""
    rng = random.Random(2718)
    out = []
    for k in range(100):
        small, large = rng.randint(1, 5), rng.randint(1, 6)
        large = max(large, small + 1)
        r, c = ((large, large), (small, large), (large, small))[k % 3]
        rows = [[rng.randint(-15, 15) for _ in range(c)] for _ in range(r)]
        if k % 2 == 0 and r > 1:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[r // 2])]
        if k % 4 == 1:
            j = rng.randrange(c)
            for row in rows:
                row[j] *= 300
        out.append(IntMatrix.from_rows(rows))
    return out


def test_snf_and_profiles_agree_with_sympy():
    shapes = set()
    singular = 0
    for m in _matrices():
        factors = _sympy_factors(m)
        assert snf(m).invariant_factors == factors
        for p in (2, 3, 5, 7):
            prof = elem_divisor_profile(m, p)
            assert (prof.multiplicities, prof.kernel_rank) == profile_from_snf(factors, p)
        shapes.add((m.rows > m.cols) - (m.rows < m.cols))
        singular += 0 in factors
    assert shapes == {-1, 0, 1}
    assert singular >= 20
