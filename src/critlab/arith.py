"""Small integer number-theory helpers shared across the package.

Everything here is exact arbitrary-precision arithmetic on Python ints.
Primality is deterministic Miller-Rabin with the first thirteen primes as
bases, which has no false positive below ``_MR_LIMIT`` (about 3.3e24;
Sorenson and Webster, Math. Comp. 86, 2017); above it ``is_prime`` raises
rather than guess.  Factoring trial-divides by the primes below 2^10,
takes roots of perfect powers and splits what is left with Pollard-Brent
rho (Brent, BIT 20, 1980) under a fixed budget of ``_RHO_STEPS`` steps per
call.  A cofactor that the budget does not split, or that is too large to
prove prime, is never reported as a prime: ``factorize`` raises ``UnfactoredError``, which carries the primes
it did prove and the unfactored rest.
"""

from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_TRIAL_LIMIT = 1 << 10
_SIEVE = bytearray([0, 0]) + bytearray([1]) * (_TRIAL_LIMIT - 2)
for _i in range(2, isqrt(_TRIAL_LIMIT - 1) + 1):
    if _SIEVE[_i]:
        _SIEVE[_i * _i :: _i] = bytes(len(range(_i * _i, _TRIAL_LIMIT, _i)))
_SMALL_PRIMES = [i for i, is_p in enumerate(_SIEVE) if is_p]
del _SIEVE, _i
_RHO_STEPS = 1 << 19  # 0.25-0.5 s on 80-200-bit cofactors, CPython 3.11, 2-core machine


class UnfactoredError(ValueError):
    """A factorization left incomplete: n = rest * prod(p**e for primes).

    ``primes`` maps the proven primes to their exponents, ascending; ``rest``
    is the unfactored part, greater than 1.
    """

    def __init__(self, primes: dict[int, int], rest: int):
        super().__init__(f"could not factor a {rest.bit_length()}-bit cofactor")
        self.primes = primes
        self.rest = rest


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Numbers with a prime factor up to 41 are decided by division; any other
    n >= ``_MR_LIMIT`` raises ValueError, since no test here is proven there.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"no deterministic primality test for a {n.bit_length()}-bit n")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in ``_MR_BASES``, for n > 41 prime to them.

    False proves n composite; True proves n prime only below ``_MR_LIMIT``.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, steps: int) -> tuple[int | None, int]:
    """A nontrivial factor of the odd composite n by Pollard-Brent rho.

    Returns (factor, steps left), or (None, 0) when the next doubling of the
    cycle search would overrun ``steps`` iterations of x -> x^2 + c.  A run
    that closes its cycle without a proper factor starts over with the next c.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps < 2 * r:
                return None, 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps -= r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: step through it one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, ascending.

    Raises ``UnfactoredError`` when a cofactor outlasts the rho budget or is
    too large for ``is_prime``; its rest has no prime factor below 2^10.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    else:  # the loop ran out of small primes before d * d > n
        return _split_cofactor(n, out) if n > 1 else out
    if n > 1:
        out[n] = 1
    return out


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with n = r^k for the smallest prime k, or (n, 1) if there is none.

    Only for an n with no prime factor below 2^10, so r >= 2^10 bounds k.
    """
    for k in _SMALL_PRIMES:
        if k * 10 > n.bit_length():
            break
        x = 1 << -(-n.bit_length() // k)  # above the k-th root; Newton from above
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
        if x**k == n:
            return x, k
    return n, 1


def _split_cofactor(n: int, out: dict[int, int]) -> dict[int, int]:
    """Finish ``factorize`` on an n > 1 with no prime factor below 2^10."""
    pending, rest, steps = [n], 1, _RHO_STEPS
    while pending:
        m = pending.pop()
        if _strong_probable_prime(m):
            if m < _MR_LIMIT:
                out[m] = out.get(m, 0) + 1
            else:  # almost surely prime, so rho would only burn the budget
                rest *= m
            continue
        root, k = _perfect_power(m)
        if k > 1:  # rho splits p^k only after about sqrt(p) steps
            pending += [root] * k
            continue
        d, steps = _brent(m, steps)
        if d is None:
            rest *= m
        else:
            pending += [d, m // d]
    out = dict(sorted(out.items()))
    if rest > 1:
        raise UnfactoredError(out, rest)
    return out


def valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n.  Undefined (raises) for n = 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power_divisors(n: int) -> list[int]:
    """All prime powers p^j (j >= 1) dividing n, sorted ascending."""
    out = []
    for p, e in factorize(n).items():
        q = 1
        for _ in range(e):
            q *= p
            out.append(q)
    return sorted(out)
