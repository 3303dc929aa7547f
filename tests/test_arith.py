import random
from math import prod

import pytest

from critlab import UnfactoredError, factorize, is_prime
from critlab.arith import _MR_LIMIT, _TRIAL_LIMIT
from oracles import trial_division_factorize, trial_division_is_prime


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


class TestAgainstTrialDivision:
    def test_every_n_below_20000(self):
        for n in range(1, 20000):
            assert list(factorize(n).items()) == list(trial_division_factorize(n).items())
            assert is_prime(n) == trial_division_is_prime(n)

    def test_seeded_n_below_2_34(self):
        rng = random.Random(7919)
        for _ in range(3000):
            n = rng.randrange(1, 1 << 34)
            expected = trial_division_factorize(n)
            assert list(factorize(n).items()) == list(expected.items())
            assert is_prime(n) == (expected == {n: 1})

    @pytest.mark.parametrize(
        "n",
        # the largest small prime divides n down to 1 after the trial loop
        # has run through every small prime
        [1021**2, 6 * 1021**3, 2**40 * 1021**2, 1021**2 * 1031, 1019**2 * 1021**2],
    )
    def test_last_small_prime_squared(self, n):
        expected = trial_division_factorize(n)
        assert list(factorize(n).items()) == list(expected.items())
        assert not is_prime(n)

    def test_seeded_smooth_n(self):
        # every prime factor at most 1021, so trial division alone finishes
        rng = random.Random(1021)
        primes = [p for p in range(2, _TRIAL_LIMIT) if trial_division_is_prime(p)]
        for _ in range(500):
            # half the draws from the largest primes, whose squares end the loop
            pool = primes[-8:] if rng.random() < 0.5 else primes
            n = prod(rng.choice(pool) ** rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
            assert list(factorize(n).items()) == list(trial_division_factorize(n).items())

    def test_nonpositive_rejected(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                factorize(n)
        assert not is_prime(0) and not is_prime(-7)


class TestMillerRabin:
    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael
            41041,  # Carmichael
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # ... to every base up to 23
            318665857834031151167461,  # ... to every base up to 37
        ],
    )
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)
        primes = factorize(n)
        assert len(primes) > 1 and prod(p**e for p, e in primes.items()) == n

    def test_mersenne_primes(self):
        for e in (31, 61):
            assert is_prime(2**e - 1)
            assert factorize(2**e - 1) == {2**e - 1: 1}

    def test_limit_raises(self):
        # _MR_LIMIT itself is a strong pseudoprime to all thirteen bases
        for n in (_MR_LIMIT, 2**89 - 1):
            with pytest.raises(ValueError, match="no deterministic primality test"):
                is_prime(n)

    def test_small_factor_decides_beyond_limit(self):
        assert not is_prime(3 * _MR_LIMIT)


class TestPollardRho:
    @pytest.mark.parametrize("k", [2, 3])
    def test_prime_powers_above_2_20(self, k):
        for start in (1 << 20, 1 << 23):
            p = _next_prime(start + 1)
            assert factorize(p**k) == {p: k}
            assert factorize(12 * p**k) == {2: 2, 3: 1, p: k}

    def test_product_of_several_large_primes(self):
        ps = [_next_prime(n) for n in (1 << 11, 1 << 17, 1 << 25, 1 << 40)]
        n = prod(ps) * ps[1]
        assert list(factorize(n).items()) == [(ps[0], 1), (ps[1], 2), (ps[2], 1), (ps[3], 1)]

    def test_powers_of_primes_beyond_the_budget(self):
        # rho alone needs about sqrt(p) steps on p^k, far past the budget
        p, q = 2**61 - 1, _next_prime(1 << 50)
        assert factorize(p**2) == {p: 2}
        assert factorize(4 * q**3) == {2: 2, q: 3}
        assert factorize(q**6) == {q: 6}  # a square root that is a cube
        # the root p*r splits by rho, through its 25-bit prime r
        r = _next_prime(1 << 24)
        assert factorize(1031 * (p * r) ** 6) == {1031: 1, r: 6, p: 6}

    def test_agrees_with_sympy_on_semiprimes(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2718281)
        for bits in range(64, 81, 4):
            for _ in range(3):
                # the smaller prime has 20-32 bits, within the rho budget
                small = rng.randint(20, 32)
                p = sympy.randprime(2 ** (small - 1), 2**small)
                q = sympy.randprime(2 ** (bits - small - 1), 2 ** (bits - small))
                assert factorize(p * q) == sympy.factorint(p * q)


def _unfactored(n):
    # a ValueError, so the CLI exits 1 on it
    with pytest.raises(ValueError) as info:
        factorize(n)
    assert isinstance(info.value, UnfactoredError)
    primes, rest = info.value.primes, info.value.rest
    assert str(info.value) == f"could not factor a {rest.bit_length()}-bit cofactor"
    assert rest * prod(p**e for p, e in primes.items()) == n
    return primes, rest


class TestUnfactoredRest:
    def test_balanced_semiprime_beyond_budget(self):
        # two 48-bit primes: rho needs ~2^24 steps, far past the budget
        p, q = _next_prime(1 << 47), _next_prime(3 << 46)
        assert _unfactored(720 * p * q) == ({2: 4, 3: 2, 5: 1}, p * q)

    def test_large_probable_prime_is_not_reported_prime(self):
        p = 2**89 - 1
        assert _unfactored(4 * p) == ({2: 2}, p)

    def test_power_of_a_large_probable_prime(self):
        p = 2**89 - 1
        assert _unfactored(3 * p**2) == ({3: 1}, p**2)

    def test_rest_has_no_small_factor(self):
        p = _next_prime(1 << 30)
        primes, rest = _unfactored(1021 * p * (2**127 - 1))
        assert primes == {1021: 1, p: 1} and rest == 2**127 - 1
        assert all(rest % d for d in range(2, _TRIAL_LIMIT))
