"""Independent oracles for the test suite.

Everything here recomputes results by a route that shares no elimination
code with the library, and nothing here imports ``critlab.exact`` or
``critlab.filtration``: spanning trees by exhaustive subset enumeration,
Smith forms by integer elimination (``integer_snf``) and from
determinantal divisors (gcds of k x k minors), bicycle
dimensions by enumerating the binary cut space, elementary-divisor
profiles read off an integer Smith form, admissible SRG multiplicity
vectors by exhaustive search, ranks over F_p by Gaussian elimination on
lists (``_gauss_rank_mod_p``), the pivot order of the p-adic elimination
kernel by a full valuation scan at every stage
(``eliminate_mod_reference``), matrix products by the row-times-column
definition (``matmul``), lattice bases in Hermite normal form
(``hermite_rows``) and integer kernels from the Hermite form of [m; I]
(``kernel_basis``), the Laplacian identity of an SRG entrywise on plain
lists (``laplacian_identity_holds``), and primality and factorization by
plain trial division.  The adjacency matrix (``adjacency_matrix``) and the
edge-list and matrix text writers (``format_edge_list``, ``format_matrix``),
which only tests call, build inputs for the library and the command.  The trial-division pair is the independent
reference for the library's Miller-Rabin ``is_prime`` and Pollard-Brent
rho ``factorize``; it is exact but slow beyond about 2^40.
"""

from itertools import combinations
from math import gcd, isqrt

from critlab import Graph, IntMatrix


def brute_force_spanning_trees(g: Graph) -> int:
    """Count spanning trees by checking every (n-1)-edge subset."""
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return 1
    edges = sorted(g.edges)
    count = 0
    for subset in combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def f2_bicycle_dimension(g: Graph) -> int:
    """Dimension of (cycle space ∩ cut space) over F2, by enumeration.

    Enumerates the whole cut space as edge bitmasks (sums of single-vertex
    cuts over vertices 1..n-1) and counts the members in which every vertex
    has even degree.  The count is a power of two; its log2 is the answer.
    """
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}
    vertex_cut = [0] * g.n  # bitmask of edges incident to each vertex
    for e, i in index.items():
        u, v = e
        vertex_cut[u] |= 1 << i
        vertex_cut[v] |= 1 << i
    cut_elems = {0}
    for v in range(1, g.n):
        cut_elems |= {x ^ vertex_cut[v] for x in cut_elems}
    bicycles = 0
    for mask in cut_elems:
        if all((mask & vertex_cut[v]).bit_count() % 2 == 0 for v in range(g.n)):
            bicycles += 1
    assert bicycles & (bicycles - 1) == 0
    return bicycles.bit_length() - 1


def adjacency_matrix(g: Graph) -> IntMatrix:
    n = g.n
    data = [0] * (n * n)
    for u, v in g.edges:
        data[u * n + v] = 1
        data[v * n + u] = 1
    return IntMatrix(n, n, data)


def format_edge_list(g: Graph) -> str:
    """The edge-list text that ``critlab.parse_edge_list`` reads."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def format_matrix(m: IntMatrix) -> str:
    """The matrix text that ``critlab.parse_matrix`` reads."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def _det_bareiss(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), -1)
            if swap < 0:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_from_determinantal_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of all k x k minors.

    d_k = g_k / g_{k-1} where g_k is the gcd of every k x k minor (g_0 = 1);
    once some g_k vanishes the remaining factors are zero.  Feasible for
    matrices up to about 6 x 6.
    """
    rows = m.to_rows()
    R, C = m.rows, m.cols
    size = min(R, C)
    factors = []
    g_prev = 1
    for k in range(1, size + 1):
        if g_prev == 0:
            factors.append(0)
            continue
        g_k = 0
        for rsel in combinations(range(R), k):
            for csel in combinations(range(C), k):
                minor = _det_bareiss([[rows[i][j] for j in csel] for i in rsel])
                g_k = gcd(g_k, minor)
                if g_k == g_prev:
                    break
            if g_k == g_prev:
                break
        factors.append(g_k // g_prev if g_k else 0)
        g_prev = g_k
    return tuple(factors)


def integer_snf(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors by integer elimination with minimal-|pivot| selection.

    The independent Smith-form oracle of the suite: it runs over Z with no
    modulus, where the library eliminates modulo a minor or a multiple of
    the exponent.  The pivot at each stage is forced to divide every entry
    of the remaining submatrix (offending rows are folded into the pivot
    row), so the divisibility chain holds by construction.  Entries can
    grow far beyond the invariant factors: seconds on the Hoffman-Singleton
    Laplacian.
    """
    R, C = m.rows, m.cols
    A = m.to_rows()
    size = min(R, C)
    for t in range(size):
        # smallest nonzero entry of the working submatrix becomes the pivot
        pi = pj = -1
        best = 0
        for i in range(t, R):
            for j in range(t, C):
                x = A[i][j]
                if x and (best == 0 or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if pi < 0:
            break  # submatrix is zero; remaining factors are 0
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]

        while True:
            rowt = A[t]
            pivot = rowt[t]
            swapped = False
            for i in range(t + 1, R):
                rowi = A[i]
                if rowi[t]:
                    q = rowi[t] // pivot
                    for j in range(C):
                        rowi[j] -= q * rowt[j]
                    if rowi[t]:
                        # remainder is strictly smaller than |pivot|
                        A[t], A[i] = rowi, rowt
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, C):
                if rowt[j]:
                    q = rowt[j] // pivot
                    for row in A:
                        row[j] -= q * row[t]
                    if rowt[j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        swapped = True
                        break
            if swapped:
                continue
            # row t and column t are clear; force pivot | rest of submatrix
            offender = next(
                (row for row in A[t + 1 :] if any(x % pivot for x in row[t + 1 :])),
                None,
            )
            if offender is None:
                break
            for j in range(C):
                rowt[j] += offender[j]

    return tuple(abs(A[t][t]) for t in range(size))


def profile_from_snf(invariant_factors, p: int) -> tuple[tuple[int, ...], int]:
    """(multiplicities, kernel_rank) of the p-part of an invariant-factor list."""
    exps = []
    zeros = 0
    for d in invariant_factors:
        if d == 0:
            zeros += 1
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        exps.append(v)
    if not exps:
        return (), zeros
    mult = [0] * (max(exps) + 1)
    for v in exps:
        mult[v] += 1
    return tuple(mult), zeros


def _gauss_rank_mod_p(rows, p: int) -> int:
    """Rank over F_p, p prime, by Gaussian elimination on lists of residues.

    The list-based reference for the library's prefix-rank kernel
    ``_rank_profile_mod_p``: column by column, it swaps a pivot row up and
    clears the column below it.
    """
    a = [[x % p for x in row] for row in rows]
    R = len(a)
    C = len(a[0]) if a else 0
    rank = 0
    for j in range(C):
        piv = next((i for i in range(rank, R) if a[i][j]), -1)
        if piv < 0:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        arank = a[rank]
        inv = pow(arank[j], -1, p)
        for i in range(rank + 1, R):
            ai = a[i]
            f = ai[j] * inv % p
            if f:
                for jj in range(j, C):
                    ai[jj] = (ai[jj] - f * arank[jj]) % p
        rank += 1
        if rank == R:
            break
    return rank


def eliminate_mod_reference(rows, p: int, b: int, track=None) -> list[int]:
    """Pivot exponents of the valuation-pivoting elimination of the integer
    rows modulo p^b, with the library kernel's pivot order.

    A duplicate of ``exact._eliminate_mod``, kept on purpose as the list
    reference for its pivot order: every stage computes the p-valuation of
    every nonzero entry of the remaining block and pivots on the first one
    of least valuation in row-major order, then updates every column of
    every row below the pivot, and of every tracked column that the pivot
    row reaches.  ``track``, if given, is a list of len(rows[0]) columns
    that receives the column operations, so the tracked columns can be
    compared with the kernel's.
    """
    R = len(rows)
    C = len(rows[0]) if rows else 0
    mod = p**b
    a = [[x % mod for x in row] for row in rows]
    exps = []
    for t in range(min(R, C)):
        best_v = -1
        pi = pj = -1
        for i in range(t, R):
            for j in range(t, C):
                r = a[i][j]
                if r:
                    v = 0
                    while r % p == 0:
                        r //= p
                        v += 1
                    if best_v < 0 or v < best_v:
                        best_v = v
                        pi, pj = i, j
        if pi < 0:
            break
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        if track is not None:
            track[t], track[pj] = track[pj], track[t]
        exps.append(best_v)
        pv = p**best_v
        unit_inv = pow(a[t][t] // pv, -1, mod)
        for i in range(t + 1, R):
            mult = (a[i][t] // pv) * unit_inv % mod
            for j in range(t, C):
                a[i][j] = (a[i][j] - mult * a[t][j]) % mod
        if track is not None:
            for j in range(t + 1, C):
                mult = (a[t][j] // pv) * unit_inv % mod
                if mult:
                    track[j] = [(y - mult * z) % mod for y, z in zip(track[j], track[t])]
    return exps


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, each entry a row of a times a column of b.

    An inner dimension of 0 gives the zero matrix of shape a.rows x b.cols.
    """
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    cols = [[b[i, j] for i in range(b.rows)] for j in range(b.cols)]
    return IntMatrix(
        a.rows,
        b.cols,
        [sum(x * y for x, y in zip(a.row(i), col)) for i in range(a.rows) for col in cols],
    )


def hermite_rows(vectors, n: int) -> list[list[int]]:
    """Basis of the lattice spanned by integer vectors of length n, in row
    Hermite normal form.

    Column by column, Euclid's algorithm on the remaining rows leaves one
    row with a nonzero entry there, the pivot, made positive; the rows
    above are reduced into [0, pivot) in that column.  The form is unique,
    so two lists of vectors span the same lattice exactly when their forms
    are equal.
    """
    rows = [list(v) for v in vectors]
    if any(len(v) != n for v in rows):
        raise ValueError("vector length does not match the ambient dimension")
    r = 0
    for j in range(n):
        live = [i for i in range(r, len(rows)) if rows[i][j]]
        if not live:
            continue
        while len(live) > 1:
            # the smallest entry becomes the pivot; the rest drop below it
            top = min(live, key=lambda i: abs(rows[i][j]))
            rows[r], rows[top] = rows[top], rows[r]
            piv = rows[r]
            for i in range(r + 1, len(rows)):
                q = rows[i][j] // piv[j]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], piv)]
            live = [i for i in range(r, len(rows)) if rows[i][j]]
        rows[r], rows[live[0]] = rows[live[0]], rows[r]
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        piv = rows[r]
        for i in range(r):
            q = rows[i][j] // piv[j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], piv)]
        r += 1
    return rows[:r]


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Basis of the integer kernel {x : m x = 0}, from the Hermite form of
    [m; I].

    Column j of m stacked on e_j spans the lattice of all (m x, x).  Its
    Hermite rows whose first m.rows entries vanish have pivots past the m
    block, and by the echelon shape they span exactly the vectors (0, x)
    of the lattice, that is the kernel.
    """
    R, C = m.rows, m.cols
    cols = [[m[i, j] for i in range(R)] + [int(k == j) for k in range(C)] for j in range(C)]
    return [row[R:] for row in hermite_rows(cols, R + C) if not any(row[:R])]


def laplacian_identity_holds(ident, g: Graph) -> bool:
    """(L - shift I) L = -w I + j_coeff J, entry by entry, with the
    Laplacian L of g built from its edge set as plain lists."""
    n = g.n
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][v] = lap[v][u] = -1
        lap[u][u] += 1
        lap[v][v] += 1
    shifted = [[x - ident.shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(lap)]
    return all(
        sum(shifted[i][t] * lap[t][j] for t in range(n)) == ident.j_coeff - ident.w * (i == j)
        for i in range(n)
        for j in range(n)
    )


def random_int_matrix(rng, max_dim=8, lo=-20, hi=20) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix(
        rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)]
    )


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, ascending."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _weighted_compositions(total: int, val: int, top: int):
    """(e_1, ..., e_top) >= 0 with sum i*e_i = val and sum e_i <= total."""
    if top == 0:
        if val == 0:
            yield ()
        return
    for e_top in range(min(val // top, total) + 1):
        for rest in _weighted_compositions(total - e_top, val - top * e_top, top - 1):
            yield rest + (e_top,)


def admissible_srg_vectors(v: int, k: int, lam: int, mu: int, q: int) -> set:
    """Every (e_0, ..., e_J) the SRG constraints allow at prime q, by search.

    J = v_q(mu*v).  The adjacency eigenvalues r > s solve
    x^2 - (lam - mu)x - (k - mu) = 0 with multiplicities f + g = v - 1 and
    f*r + g*s = -k; the group order is the product of the Laplacian
    eigenvalues k - r, k - s (to their multiplicities) over v, or
    (mu*v)^((v - 1)/2) / v for an irrational pair.  A vector counts the v - 1
    nonzero invariant factors, carries the order's q-valuation, and for each
    Laplacian eigenvalue of q-valuation j >= 1 and multiplicity m satisfies
    m <= e_0 + ... + e_j and m <= 1 + e_j + ... + e_J.
    """
    top = _val(mu * v, q)
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(disc)
    if root * root == disc:
        r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
        f = (-k - (v - 1) * s) // (r - s)
        eigs = [(k - r, f), (k - s, v - 1 - f)]
        val = sum(m * _val(x, q) for x, m in eigs) - _val(v, q)
    else:
        eigs = []
        val = (v - 1) // 2 * top - _val(v, q)
    out = set()
    for rest in _weighted_compositions(v - 1, val, top):
        e = (v - 1 - sum(rest),) + rest
        if all(
            m <= sum(e[: j + 1]) and m <= 1 + sum(e[j:])
            for x, m in eigs
            for j in (_val(x, q),)
            if j >= 1
        ):
            out.add(e)
    return out
