"""p-adic filtrations attached to an integer matrix, and the dimension
identities tying them to elementary-divisor multiplicities.

For a map given by a matrix m and a prime p, the domain filters into the
descending chain of sublattices M_i whose images are divisible by p^i, and
the codomain collects the ascending chain of those images divided by p^i,
N_i = m M_i / p^i (which stabilizes to the purification of the image).
Writing e_i for the multiplicity of p^i among the elementary divisors, the
mod-p reductions satisfy, for every i >= 0:

    dim M_i = dim kernel-bar + e_i + e_{i+1} + ...
    dim N_i = e_0 + e_1 + ... + e_i

Both chains are read off one valuation-pivoting elimination of m modulo
p^b with a column tracker (``exact._eliminate_mod``).  It gives pivot
exponents v_k and a column transform q of determinant +-1 over Z, and for
every level i <= b:

* M_i is generated by p^max(0, i - v_k) q_k for the pivot columns k and by
  the other columns q_j;
* N_i is generated by the images of those generators under m, divided by
  p^i.

``verify_filtration_dims`` takes that elimination from the last pass of
the certified loop behind ``elem_divisor_profile``
(``exact._certified_exponents``), which runs modulo p^b for some b >
max exponent, so one elimination gives both the profile and the levels.

The domain chain is counted, not measured.  q is a column permutation of
a unit upper-triangular matrix (``_eliminate_mod``), so its columns stay
independent mod p, and p^(i - v_k) q_k is 0 mod p for v_k < i; so dim M_i
is the column count minus #{v_k < i}, the first identity's right-hand
side.  What that rests on, det q = +-1, is tested by
``TestEliminateMod::test_tracked_columns_have_determinant_one`` and by the
per-level generator ranks of ``TestAgreementWithLatticeRoute`` and
``TestRankProfileRoute``.

The image chain is measured.  q is reduced modulo p^depth, with depth =
max exponent + 1, the images are formed modulo p^depth from the columns
of m packed into one int each, and one check per column makes them
divisible as the generators need.  A row (m q_k / p^v_k) mod p reads a
pivot image only modulo p^(v_k + 1), v_k < depth, so the residues are
enough.  Mod p N_i is spanned by the pivot images m q_k / p^v_k with
v_k <= i (and, from depth on, by the non-pivot images, which add nothing:
N_i lies in the saturated lattice of the image, of dimension r mod p, so
pivot images short of r already fail the level of the largest exponent),
and every other image is 0 mod p.  So the chain is one ordered list of
rows, and one rank profile over F_p (``exact._rank_profile_mod_p``)
gives the dimension of every level from 0 through the largest exponent
as the rank of a prefix, building no lattice.  Beyond that level the
image chain is provably constant, so the report repeats its value up to
level total valuation + 1 instead of measuring it.  The kernel over Z is
saturated, so its dimension mod p is the column count minus the rank.
The expected side comes from the pivot exponents of the same pass, so
the two sides are not independent.  The anchors are the tests against
the integer Smith form (``integer_snf`` in ``tests/oracles.py``) and
against the F_p rank of each level's own generators, non-pivot images
included, taken one level at a time instead of as prefixes of one
profile.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from operator import mul

from .exact import _certified_exponents, _profile, _rank_profile_mod_p
from .intmatrix import IntMatrix


def _checked_images(
    m: IntMatrix, p: int, exps: list[int], q: list[list[int]], b: int
) -> list[list[int]]:
    """The images m q_k modulo P = p^b of the columns q_k that an
    elimination modulo p^b with pivot exponents v_k tracked, each checked once.

    m q_k is 0 mod p^v_k for a pivot column k and 0 mod p^b for the other
    columns.  That is the divisibility of every level's image generators by
    p^i, for all i <= b at once.  The check reads m q_k modulo p^b, and a
    row of the N chain, (m q_k / p^v_k) mod p for a pivot column (v_k < b),
    reads it modulo p^(v_k + 1), so residues modulo P are enough.

    Each column of m mod P is packed into one int, row i in the w-bit slot
    i, and each image is one sum of m.cols int products, unpacked into
    m.rows residues.  The tracked entries are below P (at b = 0, P = 1,
    m is 0 mod P and w is 0), so a slot sums at most m.cols (P - 1)^2; w
    is that bound's bit length, and no slot carries into the next.
    """
    P = p**b
    w = (m.cols * (P - 1) ** 2).bit_length()
    cols = []
    for col in zip(*m.to_rows()):
        c = 0
        for x in reversed(col):
            c = c << w | x % P
        cols.append(c)
    mask = (1 << w) - 1
    shifts = [i * w for i in range(m.rows)]
    mq = []
    for k, qk in enumerate(q):
        packed = sum(map(mul, cols, qk))
        y = [(packed >> s & mask) % P for s in shifts]
        pv = p ** (exps[k] if k < len(exps) else b)
        if any(x % pv for x in y):
            raise AssertionError("image not divisible by p^i; filtration bug")
        mq.append(y)
    return mq


class FiltrationReport(namedtuple("FiltrationReport", "p dims_M dims_N kernel_dim passed")):
    """Reduction dimensions of both chains, the domain's counted and the
    image's measured, with the pass verdict.

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "dims_M": list(self.dims_M),
            "dims_N": list(self.dims_N),
            "kernel_dim": self.kernel_dim,
            "pass": self.passed,
        }


def verify_filtration_dims(m: IntMatrix, p: int) -> FiltrationReport:
    """Check the dimension identities at every level up to stabilization.

    One certified loop (``_certified_exponents``, the loop of
    ``elem_divisor_profile``, so it tries the same precisions) gives the
    pivot exponents and, from its last pass modulo p^b, the column
    transform q.  The expected dimensions come from the profile of those
    exponents; the kernel's is m.cols minus the rank.  dims_M is the count
    kernel_dim + e_i + e_(i+1) + ..., which the module docstring derives
    from det q = +-1, so ``passed`` compares the measured N chain alone.

    Levels 0 through the largest exponent are measured.  b >= depth = max
    exponent + 1 (``len(e)``), so q reduced modulo p^depth still gives
    generators of every level i <= depth.  ``_checked_images`` forms their
    images modulo p^depth from packed columns of m, and its divisibility
    check, once per column, is what makes the images named below 0 mod p.
    A pivot image is read modulo p^(v_k + 1), v_k < depth, so its row is
    the same as from the exact image.  For i below depth, N_i mod p is
    spanned by m q_k / p^v_k for v_k <= i, and every other image is 0 mod
    p.  So the rows are the pivot images by ascending v_k, and one rank
    profile (``_rank_profile_mod_p``) gives every level's dimension as a
    prefix rank.

    From the largest exponent on, N_i is the saturation of the image, so
    the report repeats that level, without measuring it, up to level
    1 + v_p(product of invariant factors).  The non-pivot images, which
    join N_i at i = depth, change no verdict: every image lies in the
    saturated rank-r lattice of m's image, so N_i mod p has dimension at
    most r, and if the pivot images span less, the level of the largest
    exponent already fails.
    """
    q: list[list[int]] = []
    exps = _certified_exponents(m, p, q)
    profile = _profile(p, exps, min(m.rows, m.cols))
    e = profile.multiplicities
    depth = len(e)
    top = profile.total_valuation + 1
    # the integer kernel is saturated, so its reduction mod p keeps its rank
    kernel_dim = m.cols - profile.rank
    mod = p**depth
    mq = _checked_images(m, p, exps, [[x % mod for x in qk] for qk in q], depth)
    order = sorted(range(len(exps)), key=exps.__getitem__)
    scale = [p**v for v in exps]
    ranks_n = _rank_profile_mod_p([[x // scale[k] for x in mq[k]] for k in order], p)
    # N_i takes the pivot images with v_k <= i, all of them from the
    # largest exponent on
    vs = sorted(exps)
    levels = range(top + 1)
    dims_n = tuple(ranks_n[bisect_right(vs, i)] for i in levels)
    dims_m = tuple(kernel_dim + sum(e[i:]) for i in levels)
    expect_n = tuple(sum(e[: i + 1]) for i in levels)
    return FiltrationReport(p, dims_m, dims_n, kernel_dim, dims_n == expect_n)
