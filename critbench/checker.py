"""The benchmark's own reference arithmetic and output checks.

This module shares no code with critlab: determinants, ranks, primality and
the strongly regular closed forms are computed here from scratch, so a fault
in critlab's kernels cannot hide by agreeing with itself.  Each ``check_*``
function takes the parsed JSON report of one critlab command and returns a
list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import re
from math import gcd, isqrt


def det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination with row pivoting."""
    a = [list(r) for r in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * ak[k] - aik * ak[j]) // prev
        prev = ak[k]
    return sign * a[n - 1][n - 1] if n else 1


def tree_count(n: int, edges) -> int:
    """Spanning trees of a graph: the determinant of its reduced Laplacian."""
    red = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in edges:
        for x, y in ((u, v), (v, u)):
            if x:
                red[x - 1][x - 1] += 1
                if y:
                    red[x - 1][y - 1] -= 1
    return det(red)


def rank_mod(a: list[list[int]], p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination, column by column."""
    rows = [[x % p for x in r] for r in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def rank_q(a: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination."""
    rows = [list(r) for r in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [x * top[c] - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


# Miller-Rabin with the first thirteen primes as bases gives no false
# positive below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MR_LIMIT; larger n raise ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_LIMIT:
        raise ValueError(f"no deterministic primality test for {n.bit_length()}-bit n")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def srg_order(v: int, k: int, lam: int, mu: int) -> int:
    """Critical-group order of a connected SRG from its parameters alone.

    The Laplacian eigenvalues are 0, k - r (f times) and k - s (g times),
    with r, s the roots of x^2 - (lam - mu) x - (k - mu); the order is
    (k - r)^f (k - s)^g / v.  In the conference case (irrational r, s) the
    multiplicities agree and (k - r)(k - s) = k^2 - k(lam - mu) - (k - mu).
    """
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(disc)
    if root * root == disc:
        r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
        f = ((v - 1) * (-s) - k) // (r - s)
        prod = (k - r) ** f * (k - s) ** (v - 1 - f)
    else:
        prod = (k * k - k * (lam - mu) - (k - mu)) ** ((v - 1) // 2)
    if prod % v:
        raise ValueError(f"({v}, {k}, {lam}, {mu}): order is not an integer")
    return prod // v


def prime_factors(n: int) -> list[int]:
    """Distinct primes of n by trial division; for the small orders of SRGs."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primorial(limit: int) -> int:
    """Product of the primes up to `limit`: a sieve, then a product tree."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    xs = [i for i in range(limit + 1) if sieve[i]]
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] if i + 1 < len(xs) else xs[i] for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 64
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor found for {n}")


def smooth_factors(s: int, bound: int) -> list[int]:
    """Prime factors, with multiplicity and sorted, of s whose primes are all <= bound."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while s % p == 0:
            out.append(p)
            s //= p
    todo = [s] if s > 1 else []
    while todo:
        m = todo.pop()
        if m <= bound and is_prime(m):
            out.append(m)
        else:
            f = _rho(m)
            todo += [f, m // f]
    return sorted(out)


def trial_division_cost(n: int, cap: int, primorial_cap: int) -> int | None:
    """The last divisor that plain trial division tries before n is fully factored.

    Trial division stops once d*d exceeds what is left.  So when the largest
    prime P1 of n occurs once, it ends near max(P2, sqrt(P1)), with P2 the
    next prime down; when P1 repeats it ends at P1.  Returns None when that
    is above `cap`; `primorial_cap` is primorial(cap).
    """
    g, rest = gcd(n, primorial_cap), n
    while g > 1:
        rest //= g
        g = gcd(rest, g)
    # rest has only primes above cap: one prime up to cap^2, or the cost is above cap
    if rest > cap * cap:
        return None
    primes = smooth_factors(n // rest, cap) + ([rest] if rest > 1 else [])
    if not primes:
        return 1
    top = primes[-1]
    below = [q for q in primes if q != top]
    cost = max(below[-1] if below else 1, top if primes.count(top) > 1 else isqrt(top))
    return cost if cost <= cap else None


# -- checks of critlab reports --------------------------------------------------


def check_critgroup(rep: dict, n: int, order: int, rank2: int) -> list[str]:
    """Invariant factors chain and multiply to the tree count; bicycles and factors agree."""
    bad = []
    inv = rep["invariant_factors"]
    if any(d <= 1 for d in inv) or any(b % a for a, b in zip(inv, inv[1:])):
        bad.append(f"invariant factors {inv} are not a divisibility chain of factors > 1")
    prod = 1
    for d in inv:
        prod *= d
    if prod != order:
        bad.append(f"invariant factors multiply to {prod}, tree count is {order}")
    if rep["free_rank"] != 1:
        bad.append(f"free_rank {rep['free_rank']} for a connected graph")
    if rep["bicycle_dim"] != n - 1 - rank2:
        bad.append(f"bicycle_dim {rep['bicycle_dim']}, expected {n - 1 - rank2}")
    back = 1
    for p, e in rep["order_factored"].items():
        if not is_prime(int(p)):
            bad.append(f"order_factored key {p} is not prime")
        back *= int(p) ** e
    if back != order:
        bad.append(f"order_factored multiplies to {back}, not {order}")
    return bad


def check_profile(rep: dict, n: int, order: int, ranks: dict[int, int]) -> list[str]:
    """Per prime: sum e_i = n - 1, sum i*e_i = v_p(order), e_0 = rank over F_p."""
    bad = []
    if sorted(pr["p"] for pr in rep["profiles"]) != sorted(ranks):
        bad.append(f"profiles for primes {[pr['p'] for pr in rep['profiles']]}")
    for pr in rep["profiles"]:
        p, e = pr["p"], pr["multiplicities"]
        if sum(e) != n - 1 or pr["kernel_rank"] != 1:
            bad.append(f"p={p}: {sum(e)} nonzero factors, kernel {pr['kernel_rank']}")
        if sum(i * x for i, x in enumerate(e)) != valuation(order, p):
            bad.append(f"p={p}: total valuation differs from v_p(tree count)")
        if p in ranks and (e[0] if e else 0) != ranks[p]:
            bad.append(f"p={p}: e_0 = {e[0] if e else 0}, rank over F_p is {ranks.get(p)}")
    return bad


_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?\s*[a-z]\w*)?")


def affine_at(expr: str, t: int) -> int:
    """Value of an affine family expression such as "1517 - t" or "3 + 2*t"."""
    total, pos = 0, 0
    text = expr.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read family expression {expr!r}")
        sign, num, var = m.groups()
        if not num and not var:
            raise ValueError(f"cannot read family expression {expr!r}")
        value = int(num) if num else 1
        if var:
            value *= t
        total += -value if sign == "-" else value
        pos = m.end()
    return total


def check_analyze(rep: dict, params: tuple[int, int, int, int], order: int,
                  profiles: dict[int, list[int]]) -> list[str]:
    """Order, forced multiplicities and families against the closed forms.

    `profiles` maps a prime to a graph's measured multiplicities, when the
    parameters belong to a real graph; each must lie in one family.
    """
    bad = []
    v, k, lam, mu = params
    fact = {int(p): e for p, e in rep["order_factored"].items()}
    back = 1
    for p, e in fact.items():
        back *= p**e
    if back != order:
        bad.append("order_factored differs from the closed-form order")
    w = mu * v
    forced = {int(q): m for q, m in rep["forced"].items()}
    want = {q: valuation(order, q) for q in fact if valuation(w, q) == 1}
    if forced != want:
        bad.append(f"forced multiplicities {forced}, expected {want}")
    for q, fams in rep["families"].items():
        q = int(q)
        val = valuation(order, q)
        if not fams:
            bad.append(f"no family for prime {q}")
        hits = 0
        for fam in fams:
            lo, hi = fam["t_range"]
            for t in (lo, hi):
                e = [affine_at(x, t) for x in fam["e"]]
                if min(e) < 0 or sum(e) != v - 1 or sum(i * x for i, x in enumerate(e)) != val:
                    bad.append(f"prime {q} case {fam['case']} at t={t}: e={e}")
            if q in profiles and _in_family(fam, profiles[q]):
                hits += 1
        if q in profiles and hits != 1:
            bad.append(f"measured profile {profiles[q]} lies in {hits} families for prime {q}")
    return bad


def _in_family(fam: dict, mults: list[int]) -> bool:
    lo, hi = fam["t_range"]
    width = len(fam["e"])
    target = list(mults) + [0] * (width - len(mults))
    if any(target[width:]):
        return False
    return any(
        [affine_at(x, t) for x in fam["e"]] == target[:width] for t in range(lo, hi + 1)
    )


def check_filtration(rep: dict, cols: int, rank_p: int, kernel: int,
                     val: int | None) -> list[str]:
    """Filtration identities; `val` is v_p of the determinant, when there is one."""
    bad = []
    dm, dn = rep["dims_M"], rep["dims_N"]
    if rep["pass"] is not True:
        bad.append("pass is not true")
    if not dm or dm[0] != cols:
        bad.append(f"dims_M[0] = {dm[:1]}, expected {cols}")
    if not dn or dn[0] != rank_p:
        bad.append(f"dims_N[0] = {dn[:1]}, expected rank over F_p {rank_p}")
    if len(dm) != len(dn) or any(dm[i] + dn[i - 1] != cols for i in range(1, len(dm))):
        bad.append("dims_M[i] + dims_N[i-1] differs from the column count")
    if rep["kernel_dim"] != kernel:
        bad.append(f"kernel_dim {rep['kernel_dim']}, expected {kernel}")
    if val is not None:
        got = sum(i * (dn[i] - dn[i - 1]) for i in range(1, len(dn)))
        if got != val:
            bad.append(f"sum i*(dims_N[i] - dims_N[i-1]) = {got}, v_p(det) = {val}")
    return bad


def check_moore57(rep: dict) -> list[str]:
    """The paper's result for the valency-57 Moore graph parameters (3250, 57, 0, 1)."""
    bad = []
    if rep["order_factored"] != {"2": 1728, "5": 4975, "13": 1519}:
        bad.append(f"order {rep['order_factored']}, expected 2^1728 5^4975 13^1519")
    if rep["forced"] != {"2": 1728, "13": 1519}:
        bad.append(f"forced {rep['forced']}, expected 2->1728 13->1519")
    if len(rep["families"].get("5", [])) != 2:
        bad.append("expected exactly two families for p = 5")
    return bad
