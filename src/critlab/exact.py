"""Exact integer matrix kernel: Smith normal form, ranks over prime fields,
and per-prime elementary-divisor profiles.

``snf`` is the one Smith-form routine, for ``critlab snf`` and for critical
groups alike.  After exact elimination on +-1 pivots
(``_unit_pivot_residual``) it runs two loops.  ``_bareiss`` is the one
fraction-free elimination: with full pivoting it gives the rank and a
nonzero maximal-rank minor D, and for a square residual of full rank also
the solutions det(a) a^-1 b for two fixed right-hand sides b, whose orders
in the cokernel have an lcm s that divides its exponent.  When s = |D| the
cokernel is cyclic of order |D| and no Smith loop runs.  Otherwise
``_diagonal_mod``, the one minimal-|pivot| Smith loop, diagonalises modulo s
when a product-equals-|D| check certifies s, and modulo |D| otherwise, so
entries stay below the modulus and the coefficient growth of integer
elimination never sets in.  The same pass without right-hand sides gives
the exact rank that ``_certified_exponents`` needs for a rank-deficient
input without zero row or column sums.

The other routes are kept independent on purpose, as oracles that check
``snf`` and each other:

* ``elem_divisor_profile`` never forms the integer Smith form; it eliminates
  modulo p^b with valuation-aware pivoting (``_eliminate_mod``), which keeps
  entries bounded and gives the per-prime structure.  A lower bound on the
  valuations of the remaining block, which row operations never lower, lets
  each stage take the first entry at that level, with one full valuation
  scan per level, and each stage updates only the nonzero columns of its
  pivot row.  b grows until a certificate shows that every nonzero divisor
  has been found (``_certified_exponents``).  The same loop, with a column
  tracker, gives the filtration levels in ``filtration.py`` from its last
  pass, so the filtration identities are not an independent check of the
  profile.  ``eliminate_mod_reference`` in ``tests/oracles.py`` keeps the
  per-stage full valuation scan as the check of the kernel's pivot order.
* integer elimination with no modulus, the oracle for ``snf``, lives in
  the test suite (``tests/oracles.py``, ``integer_snf``).

``rank_mod_p`` is the rank over F_p.  Its one kernel,
``_rank_profile_mod_p``, gives the rank of every prefix of a list of rows,
each row packed into one int: for p = 2 as a bitset for ``_rank_f2``, an
XOR basis, and for odd p with one column per wide slot, reduced against a
basis keyed by leading column.  ``_rank_f2`` is also the engine of the
bicycle dimension, and the prefix ranks give every level of the filtration's
image chain at once.  Gaussian elimination on lists (``_gauss_rank_mod_p`` in
``tests/oracles.py``) is the independent check of the kernel;
``rank_mod_p`` is in turn an oracle only for the e_0 entry of the
profiles.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd, lcm, prod

from .arith import is_prime
from .intmatrix import IntMatrix

# seeds the two right-hand sides whose orders in the cokernel give the modulus
_RHS_SEED = 2000


class SnfResult(namedtuple("SnfResult", "invariant_factors")):
    """Diagonal of the Smith form.

    invariant_factors has length min(rows, cols): a nonnegative, divisibility
    -chained prefix of nonzero entries followed by zeros.  A named tuple, so
    it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of any integer matrix, by elimination modulo a
    multiple of the exponent of its torsion.

    Exact elimination on +-1 pivots (``_unit_pivot_residual``) drops one
    unit invariant factor per step.  One fraction-free pass with full
    pivoting (``_bareiss``) on the R' x C' residual r gives its rank rho and
    a nonzero rho x rho minor D.  The product of the nonzero invariant
    factors of r divides every rho x rho minor, so D kills the torsion T of
    coker(r), and coker([r | D*I]) = (Z/D)^(R' - rho) + T (Domich, Kannan
    and Trotter, Math. Oper. Res. 12, 1987; Hafner and McCurley, SIAM J.
    Comput. 20, 1991).  ``_diagonal_mod`` presents that group with entries
    below D, and its invariant-factor chain, padded in front with 1s to
    length R', is d_1 | ... | d_rho | D | ... | D: the first rho entries are
    the nonzero factors of r.  It has to be the chain prefix, not the rho
    smallest diagonal entries, because T may contain Z/D itself.

    When r is square and nonsingular, coker(r) = T is finite of order
    |D| = |det r|, and the same pass solves for two fixed right-hand sides
    b: the class of b in T has order |D| / gcd(D, content(y)) for
    y = det(r) r^-1 b, and the lcm s of the two orders divides the exponent
    of T, which divides |T| = |D|.  If s = |D|, some class has order |T|, so
    T = Z/|D| and the chain is (1, ..., 1, |D|) without a Smith loop.
    Otherwise the loop runs modulo s, usually far below |D|, and presents
    T/sT; the product of its diagonal equals |D| = |T| exactly when sT = 0,
    which certifies the result (Iliopoulos, SIAM J. Comput. 18, 1989).  If
    not, it is rerun modulo |D|.
    """
    r = _unit_pivot_residual(m.to_rows())
    units = m.rows - len(r)
    rng = random.Random(_RHS_SEED)
    rank, minor, ys = _bareiss(r, [[rng.randint(-9, 9) for _ in r] for _ in range(2)])
    d = abs(minor)
    s = lcm(*(d // gcd(d, *y) for y in ys)) if ys else d
    # an element of order s = |D| = |T| generates T
    diagonal = [d] if ys and s == d else _diagonal_mod(r, s)
    if s != d and prod(diagonal) != d:
        diagonal = _diagonal_mod(r, d)
    chain = _divisibility_chain([x for x in diagonal if x > 1])
    chain = (1,) * (len(r) - len(chain)) + chain
    zeros = min(m.rows, m.cols) - units - rank
    return SnfResult((1,) * units + chain[:rank] + (0,) * zeros)


def _bareiss(
    a: list[list[int]], rhs: Sequence[Sequence[int]]
) -> tuple[int, int, list[list[int]]]:
    """Rank rho of a, a nonzero rho x rho minor, and y = det(a) a^-1 b for
    each b in ``rhs``; ``a`` is kept.

    Fraction-free (Bareiss) elimination of [a | b ...] with full pivoting: a
    step whose diagonal entry is 0 swaps in the first nonzero entry of the
    remaining block of a, searching column by column, so a nonzero in its
    own column is taken by a row swap alone.  Every entry it forms is a
    minor of the permuted input, so each division is exact, and the last
    pivot, signed for the swaps, is the leading rho x rho minor: det(a) for
    square a of full rank.  Only then are the ys formed, and otherwise ys is
    [].  A column swap happens only when the current column of the remaining
    block is 0, which makes a square a singular, and it never moves a
    right-hand side.  y = adj(a) b is integral, so the back substitution,
    multiplied through by the last pivot, divides exactly too.
    """
    R = len(a)
    C = len(a[0]) if a else 0
    width = C + len(rhs)
    w = [row + [b[i] for b in rhs] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    rank = 0
    for k in range(min(R, C)):
        wk = w[k]
        if wk[k] == 0:
            at = next(((i, j) for j in range(k, C) for i in range(k, R) if w[i][j]), None)
            if at is None:
                break
            i, j = at
            if i != k:
                w[k], w[i] = w[i], wk
                wk = w[k]
                sign = -sign
            if j != k:
                for row in w:
                    row[k], row[j] = row[j], row[k]
                sign = -sign
        pk = wk[k]
        for i in range(k + 1, R):
            wi = w[i]
            f = wi[k]
            for j in range(k + 1, width):
                wi[j] = (wi[j] * pk - f * wk[j]) // prev
            wi[k] = 0
        prev = pk
        rank = k + 1
    ys = []
    if rank == R == C:
        for c in range(C, width):
            y = [0] * R
            for k in range(R - 1, -1, -1):
                wk = w[k]
                acc = prev * wk[c]
                for j in range(k + 1, R):
                    acc -= wk[j] * y[j]
                y[k] = acc // wk[k]
            ys.append([sign * x for x in y])
    return rank, sign * prev, ys


def _diagonal_mod(a: list[list[int]], s: int) -> list[int]:
    """Diagonal presentation of coker([a | s*I]) = G/sG, one entry per row
    of a; a is kept.

    s*Z^R lies in the column lattice of [a | s*I], so the elimination may
    reduce every entry modulo s, which bounds the coefficients.  It pivots
    on a minimal-|entry| in the symmetric range mod s; a diagonal entry x
    then presents the cyclic factor Z/gcd(x, s), and each row left without
    a pivot presents Z/s.  When s is a multiple of the exponent of
    G = coker(a), G/sG = G.
    """
    R = len(a)
    C = len(a[0]) if a else 0
    half = s // 2
    a = [row[:] for row in a]
    for row in a:
        for j, x in enumerate(row):
            x %= s
            row[j] = x - s if x > half else x
    diagonal = []
    for t in range(min(R, C)):
        # smallest nonzero entry of the working submatrix becomes the pivot
        pi = pj = -1
        best = 0
        for i in range(t, R):
            rowi = a[i]
            for j in range(t, C):
                x = rowi[j]
                if x and (best == 0 or -best < x < best):
                    best = abs(x)
                    pi, pj = i, j
            if best == 1:
                break
        if pi < 0:
            break  # the rest is 0 mod s
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for i in range(t, R):
                rowi = a[i]
                rowi[t], rowi[pj] = rowi[pj], rowi[t]
        while True:
            rowt = a[t]
            pivot = rowt[t]
            swapped = False
            for i in range(t + 1, R):
                rowi = a[i]
                x = rowi[t]
                if x:
                    q = x // pivot
                    for j in range(t, C):
                        y = (rowi[j] - q * rowt[j]) % s
                        rowi[j] = y - s if y > half else y
                    if rowi[t]:
                        # the remainder is strictly smaller than |pivot|
                        a[t], a[i] = rowi, rowt
                        swapped = True
                        break
            if swapped:
                continue
            # Column t is clear below the pivot, so clearing row t by column
            # operations changes no other entry; it only needs pivot | rowt[j].
            j = next((j for j in range(t + 1, C) if rowt[j] % pivot), -1)
            if j < 0:
                break
            rowt[j] %= pivot
            for i in range(t, R):
                rowi = a[i]
                rowi[t], rowi[j] = rowi[j], rowi[t]
        diagonal.append(gcd(pivot, s))
    diagonal.extend([s] * (R - len(diagonal)))
    return diagonal


def _unit_pivot_residual(a: list[list[int]]) -> list[list[int]]:
    """Schur complement left after exact elimination on +-1 pivots.

    Eliminating on a unit pivot is unimodular and splits off one invariant
    factor 1, so the residual has the same cokernel as ``a`` and, for
    square ``a``, the same determinant up to sign.
    """
    rows = list(range(len(a)))
    cols = list(range(len(a[0]) if a else 0))
    progress = True
    while progress:
        progress = False
        for i in list(rows):
            piv_row = a[i]
            pj = next((j for j in cols if piv_row[j] in (1, -1)), -1)
            if pj < 0:
                continue
            rows.remove(i)
            cols.remove(pj)
            pivot = piv_row[pj]
            pattern = [(j, piv_row[j]) for j in cols if piv_row[j]]
            for r in rows:
                row = a[r]
                f = row[pj]
                if f:
                    f *= pivot  # pivot is its own inverse
                    for j, x in pattern:
                        row[j] -= f * x
            progress = True
    return [[a[i][j] for j in cols] for i in rows]


def _divisibility_chain(xs: list[int]) -> tuple[int, ...]:
    """Invariant factors > 1 of the group given by a diagonal of positive ints.

    Works in place.  After the pass for position i, xs[i] divides every later
    entry; later passes only replace entries by gcds and lcms of multiples of
    xs[i].
    """
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            g = gcd(xs[i], xs[j])
            if g != xs[i]:
                xs[i], xs[j] = g, xs[i] // g * xs[j]
    return tuple(x for x in xs if x > 1)


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of the entrywise mod-p reduction over the field with p elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _rank_profile_mod_p(map(m.row, range(m.rows)), p)[-1]


def _rank_profile_mod_p(rows: Iterable[Sequence[int]], p: int) -> list[int]:
    """The F_p rank kernel, p prime: ranks[k] is the rank of the first k
    equal-length integer rows, so ranks[0] = 0 and ranks[-1] is the rank.

    F_2 packs each row into an int bitset for ``_rank_f2``.  Odd p packs each
    row into one int too, column j in the w-bit slot j, and keeps a basis
    keyed by leading (highest nonzero) column, each basis row scaled to a
    leading 1 and zero above it.  A new row is reduced one leading column at
    a time: adding (p - t) times the basis row of its leading column, whose
    slot holds t mod p, makes that slot 0 mod p, and it is then cleared; a
    slot already 0 mod p is cleared at once.  The row vanishes or reaches a
    leading column with no basis row, where it joins the basis.  Every slot
    starts below p and gains at most (p - 1)^2 per reduction, at most one
    per column, so slots of w bits with 2^w > (C + 1) p^2 never carry.  Once
    the basis spans every column, later rows add nothing and are not
    reduced.
    """
    if p == 2:
        return _rank_f2(sum(1 << j for j, x in enumerate(row) if x & 1) for row in rows)
    basis: dict[int, int] = {}
    ranks = [0]
    for row in rows:
        C = len(row)
        if len(basis) < C:
            w = ((C + 1) * p * p).bit_length()
            r = 0
            for x in reversed(row):
                r = r << w | x % p
            while r:
                j = (r.bit_length() - 1) // w
                s = r >> w * j
                t = s % p
                if t:
                    b = basis.get(j)
                    if b is None:
                        inv = pow(t, -1, p)
                        mask = (1 << w) - 1
                        b = 1
                        for k in range(j - 1, -1, -1):
                            b = b << w | ((r >> w * k) & mask) * inv % p
                        basis[j] = b
                        break
                    r += (p - t) * b
                    s += p - t
                r -= s << w * j
        ranks.append(len(basis))
    return ranks


def _rank_f2(rows: Iterable[int]) -> list[int]:
    """Rank over F_2 of every prefix of rows packed as int bitsets (bit j is
    column j); ranks[k] is the rank of the first k rows.

    An XOR basis keyed by leading bit: each row is reduced by the basis row
    with its leading bit until it vanishes or has a new leading bit.
    """
    basis: dict[int, int] = {}
    ranks = [0]
    for r in rows:
        while r:
            top = r.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
        ranks.append(len(basis))
    return ranks


class ElemDivisorProfile(namedtuple("ElemDivisorProfile", "p multiplicities kernel_rank")):
    """Multiplicities of p^i among the elementary divisors of a matrix.

    multiplicities[i] is the number of nonzero invariant factors whose p-part
    is exactly p^i (so multiplicities[0] counts the factors coprime to p);
    kernel_rank counts the zero invariant factors.  A named tuple, so it
    compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def e(self, i: int) -> int:
        return self.multiplicities[i] if 0 <= i < len(self.multiplicities) else 0

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)

    @property
    def total_valuation(self) -> int:
        return sum(i * e for i, e in enumerate(self.multiplicities))


def _valuation_bound(m: IntMatrix, p: int) -> int:
    """Upper bound H on v_p(product of nonzero invariant factors).

    The product of the nonzero invariant factors divides the gcd of the
    maximal-rank minors, and every minor is Hadamard-bounded by the product
    of the row norms; so v_p is at most log_p of that product.  H bounds the
    largest exponent too, so p^(H + 1) is the ceiling of the precisions that
    ``elem_divisor_profile`` tries.
    """
    prod2 = 1
    for i in range(m.rows):
        s = sum(x * x for x in m.row(i))
        if s > 1:
            prod2 *= s
    bound = 0
    pw = 1
    p2 = p * p
    while pw <= prod2:
        pw *= p2
        bound += 1
    return bound


def elem_divisor_profile(m: IntMatrix, p: int) -> ElemDivisorProfile:
    """Per-prime elementary-divisor multiplicities without integer SNF.

    Eliminates modulo p^b, pivoting on a minimal-p-valuation entry at each
    stage (``_eliminate_mod``); the pivots are exactly the elementary
    divisors whose p-exponent is below b.  ``_certified_exponents`` finds b
    adaptively and stops only on a certificate that no nonzero divisor is
    missing; it never goes above the Hadamard ceiling H + 1.
    """
    return _profile(p, _certified_exponents(m, p), min(m.rows, m.cols))


def _profile(p: int, exps: list[int], size: int) -> ElemDivisorProfile:
    """The profile of a matrix with min(rows, cols) = size whose nonzero
    elementary divisors have the p-exponents ``exps``."""
    mult = [0] * (max(exps) + 1 if exps else 0)
    for v in exps:
        mult[v] += 1
    return ElemDivisorProfile(p, tuple(mult), size - len(exps))


def _certified_exponents(
    m: IntMatrix, p: int, track: list[list[int]] | None = None
) -> list[int]:
    """Pivot exponents of every nonzero elementary divisor, precision adaptive.

    A pass modulo p^b finds exactly the divisors with exponent < b.  The
    loop doubles b and stops when one of two certificates says none is
    missing:

    (a) the pivot count reaches an upper bound on the rank over Q: columns
        minus one when every row sums to 0 (the all-ones vector is in the
        kernel), rows minus one when every column sums to 0, and otherwise
        min(rows, cols) until a pass finds fewer pivots, and from then on
        the exact rank from one fraction-free pass (``_bareiss``);
    (b) sum(exponents) + b > H, the Hadamard bound on the total valuation
        (``_valuation_bound``): a missing divisor has exponent >= b.

    With a zero-sum certificate b starts at 2, since graph Laplacians
    mostly have small exponents.  Other inputs start at the largest b with
    p^(2b) < 2^30, where every product of two entries below p^b fits one
    CPython digit: b = 14, 9, 6, 5 at p = 2, 3, 5, 7.  b is capped at
    H + 1, where (b) always holds.

    ``track``, if given, is reset to the identity's m.cols columns before
    every pass and receives that pass's column operations
    (``_eliminate_mod``), so it ends with the transform of the last pass.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    size = min(m.rows, m.cols)
    ceiling = _valuation_bound(m, p) + 1
    rows = m.to_rows()
    cap = min(
        m.rows - all(sum(col) == 0 for col in zip(*rows)),
        m.cols - all(sum(row) == 0 for row in rows),
    )
    if cap < size:
        b = 2
    else:
        b = 1
        while p ** (2 * b + 2) < 1 << 30:
            b += 1
    b = min(b, ceiling)
    rank = None
    while True:
        if track is not None:
            track[:] = [[int(r == c) for r in range(m.cols)] for c in range(m.cols)]
        exps = _eliminate_mod(m, p, b, track)
        if len(exps) < cap == size and rank is None:
            cap = rank = _bareiss(rows, ())[0]
        if len(exps) >= cap or sum(exps) + b >= ceiling:
            return exps
        b = min(2 * b, ceiling)


def _eliminate_mod(
    m: IntMatrix, p: int, b: int, track: list[list[int]] | None = None
) -> list[int]:
    """Valuation-pivoting elimination of m modulo p^b; the pivot exponents.

    Each stage pivots on an entry of minimal p-valuation v in the remaining
    submatrix.  Every other entry there is then p^v times an integer mod p^b,
    so the pivot clears its column by row operations invertible mod p^b, and
    its row by such column operations.  The returned exponents v_0, ...,
    v_{r-1} (each < b, in order of elimination) are therefore the p-exponents
    of the elementary divisors that p^b does not divide; what remains is
    0 mod p^b.  This is the kernel of ``elem_divisor_profile`` and of the
    filtration levels.

    The pivot is the first entry in row-major order of least valuation, found
    without computing most valuations.  ``level`` is a lower bound on the
    valuation of every entry in the remaining block.  It stays one because a
    stage's row operations subtract multiples of the pivot row, whose entries
    are 0 mod p^level, and reducing mod p^b (b > level) keeps that; the block
    only shrinks.  So the first entry that is not 0 mod p^(level + 1) has
    valuation exactly level and is the pivot.  Only when no entry is left at
    that level does a full scan of the valuations find the least one and
    raise ``level`` to it: one scan per level, not one per stage.

    Each stage builds the nonzero pattern of the pivot row once, and the row
    updates touch only its columns, so they cost the rows with a nonzero in
    column t times the pivot row's nonzeros.  Column t below the pivot is
    left as it is, and a column swap skips the rows above t: no later stage
    reads them.

    ``track``, if given, is a list of m.cols columns (usually the identity's)
    that receives every column operation, in place: one per column of the
    pivot row's pattern, each changing only the entries where tracked column
    t is nonzero, and reducing those mod p^b.  Afterwards there is a row
    transform P, invertible mod p^b, with P m q = diag(p^v_0 u_0, ...,
    p^v_{r-1} u_{r-1}, 0, ..., 0) mod p^b for units u_k, where q has the
    tracked columns.  Starting from the identity, tracked entries stay below
    p^b whenever a stage runs (b >= 1), and q has determinant +-1 over Z,
    not only mod p^b: the column operation of stage t subtracts multiples of
    column t from later columns, and column t is 0 at the unit coordinate of
    every later column, so each column keeps a 1 at its own coordinate and q
    is a column permutation of a unit upper-triangular matrix (reducing
    entries mod p^b keeps that).
    """
    R, C = m.rows, m.cols
    mod = p**b
    a = [[x % mod for x in row] for row in m.to_rows()]
    exps: list[int] = []
    level = 0  # every entry of the remaining block is 0 mod p^level
    for t in range(min(R, C)):
        # the first entry in row-major order of valuation exactly level
        step = p ** (level + 1)
        pi, pj = next(
            ((i, j) for i in range(t, R) for j in range(t, C) if a[i][j] % step), (-1, -1)
        )
        if pi >= 0:
            v = level
        else:
            # none is left at this level: the first entry of least valuation
            best_v = -1
            for i in range(t, R):
                rowi = a[i]
                for j in range(t, C):
                    r = rowi[j]
                    if r:
                        v = 0
                        while r % p == 0:
                            r //= p
                            v += 1
                        if best_v < 0 or v < best_v:
                            best_v = v
                            pi, pj = i, j
            if pi < 0:
                break  # everything that remains is 0 mod p^b
            level = v = best_v
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
            if track is not None:
                track[t], track[pj] = track[pj], track[t]
        exps.append(v)
        pv = p**v
        rowt = a[t]
        unit_inv = pow(rowt[t] // pv, -1, mod)
        pattern = [(j, x) for j, x in enumerate(rowt[t + 1 :], t + 1) if x]
        for ai in a[t + 1 :]:
            x = ai[t]
            if x:
                mult = (x // pv) * unit_inv % mod
                for j, y in pattern:
                    ai[j] = (ai[j] - mult * y) % mod
        if track is not None:
            # The row operations make column t 0 below the pivot, so clearing
            # row t by column operations would change no entry that a later
            # stage reads; only the tracker needs them, and each changes only
            # the entries where tracked column t is nonzero.
            qt = [(r, z) for r, z in enumerate(track[t]) if z]
            for j, x in pattern:
                mult = (x // pv) * unit_inv % mod
                col = track[j]
                for r, z in qt:
                    col[r] = (col[r] - mult * z) % mod
    return exps
