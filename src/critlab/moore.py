"""Constraint analysis for critical groups of strongly regular graphs.

For an SRG with parameters (v, k, lam, mu), the defining relation of the
adjacency matrix turns into a quadratic identity for the Laplacian,
(L - c*I) L = -w*I + mu*J with c = 2k - lam + mu and w = mu*v.  Restricted
to the sublattice of zero-sum vectors the J term vanishes, so every
elementary divisor of the restricted map divides w; the same bound holds
for the critical group.  Primes whose square does not divide w therefore
have forced multiplicities (the valuation of the group order), while for
higher prime powers the admissible multiplicity vectors form a small number
of one-parameter families cut out by eigenvalue rank inequalities.  This
module mechanizes that pipeline for feasible parameters with mu >= 1 and
any prime, which is what lets the same code be validated on the real Moore
graphs of valency 2, 3 and 7 and then applied to the hypothetical valency-57
parameter set (v, k, lam, mu) = (3250, 57, 0, 1).

The module also owns the spectral order.  The Laplacian eigenvalues
k - theta and k - tau, the roots of x^2 - c*x + w, are formed in one helper
(``_laplacian_eigenvalues``) that ``predicted_order_from_spectrum`` and the
eigenvalue rank inequalities both read.

Every family comes out of one path, whatever the bound exponent J of the
prime: a case's linear equations are solved exactly in integers
(``_solve_affine``), and the solution is range-restricted by nonnegativity
and the rank inequalities (``_family_from_solution``).  J >= 4, and J = 3
without a complementary pair of rank inequalities, raise ValueError.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import factorize, is_prime, prime_power_divisors, valuation
from .graphs import InfeasibleParametersError, SrgParams, SrgSpectrum, srg_spectrum


class ContradictionError(Exception):
    """The constraint system admits no nonnegative solution.

    For a parameter set that is supposed to describe an actual graph this
    outcome would disprove existence, so it is raised loudly instead of
    being returned as an empty list.
    """


class LaplacianIdentity(namedtuple("LaplacianIdentity", "shift w j_coeff")):
    """Quadratic identity (L - shift*I) L = -w*I + j_coeff*J.

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()


def derive_laplacian_identity(params: SrgParams) -> LaplacianIdentity:
    """Expand (k*I - L)^2 = k*I + lam*(k*I - L) + mu*(J - (k*I - L) - I).

    Collecting terms gives shift c = 2k - lam + mu and constant
    w = k(k - 1 - lam) + mu(k + 1), which the SRG counting identity reduces
    to w = mu*v.  Requires mu >= 1 (connected, diameter-2 case); mu = 0
    describes a disjoint union of complete graphs, a real graph that the
    analysis does not cover, so that is a ValueError, not an infeasibility.
    """
    v, k, lam, mu = params
    if mu < 1:
        raise ValueError(
            "the SRG analysis needs mu >= 1; mu = 0 is a disjoint union "
            f"of complete graphs K{k + 1}"
        )
    c = 2 * k - lam + mu
    w = k * (k - 1 - lam) + mu * (k + 1)
    assert w == mu * v, "SRG counting identity should force w = mu*v"
    return LaplacianIdentity(shift=c, w=w, j_coeff=mu)


def _laplacian_eigenvalues(spectrum: SrgSpectrum) -> tuple[tuple[int, int], ...]:
    """The restricted Laplacian eigenvalues as (value, multiplicity) pairs.

    For an integral spectrum these are k - theta and k - tau, the roots of
    x^2 - c*x + w; an eigenvalue of multiplicity 0 (complete graphs) is kept.
    A conference spectrum has irrational conjugates of equal multiplicity m,
    and gives the one pair (norm, m) with the rational norm
    (k - theta)(k - tau), which is w for the spectrum of an SRG.  Raises
    InfeasibleParametersError when such a spectrum has unequal
    multiplicities or a non-integral norm.
    """
    k, theta, tau, m_theta, m_tau = spectrum
    if theta.is_integral:
        return (k - theta.to_int(), m_theta), (k - tau.to_int(), m_tau)
    if m_theta != m_tau:
        raise InfeasibleParametersError(
            "irrational eigenvalues with unequal multiplicities"
        )
    # (k - theta)(k - tau) is rational: use the norm, once per conjugate pair
    norm4 = (2 * k - theta.a) ** 2 - theta.disc
    if norm4 % 4:
        raise InfeasibleParametersError("eigenvalue norm is not an integer")
    return ((norm4 // 4, m_theta),)


def predicted_order_from_spectrum(spectrum: SrgSpectrum) -> dict[int, int]:
    """Factored critical-group order of a connected SRG from its spectrum.

    The Laplacian eigenvalues are k minus the adjacency eigenvalues; the
    order is their product over the nonzero ones, divided by v (which is
    ``spectrum.v``).  Everything stays factored, so the result is exact; a
    non-integral quotient raises InfeasibleParametersError.
    """
    acc: dict[int, int] = {}
    for eig, times in _laplacian_eigenvalues(spectrum):
        if not times:
            continue  # not an eigenvalue; its primes must not enter the order
        if eig <= 0:
            raise InfeasibleParametersError(
                "nonpositive Laplacian eigenvalue for a connected graph"
            )
        for p, e in factorize(eig).items():
            acc[p] = acc.get(p, 0) + e * times
    v = spectrum.v
    for p, e in factorize(v).items():
        acc[p] = acc.get(p, 0) - e
        if acc[p] < 0:
            raise InfeasibleParametersError(f"spectrum order is not divisible by v={v}")
    return {p: e for p, e in sorted(acc.items()) if e}


class AffineExpr(namedtuple("AffineExpr", "const coeff var", defaults=("t",))):
    """Integer affine expression const + coeff * var, var "t" by default.

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def __call__(self, value: int) -> int:
        return self.const + self.coeff * value

    def __str__(self) -> str:
        c0, c1 = self.const, self.coeff
        if c1 == 0:
            return str(c0)
        if c1 == 1:
            if c0 == 0:
                return self.var
            if c0 < 0:
                return f"{self.var} - {-c0}"
            return f"{c0} + {self.var}"
        if c1 == -1:
            return f"{c0} - {self.var}"
        if c1 > 0:
            return f"{c0} + {c1}*{self.var}"
        return f"{c0} - {-c1}*{self.var}"


class SolutionFamily(
    namedtuple("SolutionFamily", "case_label prime t_range exprs rank_exprs")
):
    """One-parameter family of admissible multiplicity vectors.

    exprs[i] gives the multiplicity of q^i as a function of the free
    parameter t over the inclusive range t_range; rank_exprs rewrites the
    multiplicities for i >= 1 as functions of the q-rank e_0 (empty when
    that rewrite is not integral).  Both are tuples of AffineExpr.  A named
    tuple, so it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def contains(self, multiplicities) -> int | None:
        """Parameter value matching the given (e_0, e_1, ...) or None."""
        top = len(self.exprs)
        vec = list(multiplicities)
        if any(vec[top:]):
            return None
        vec = vec[:top] + [0] * (top - len(vec))
        pivot = next((ex for ex in self.exprs if ex.coeff != 0), None)
        if pivot is None:
            t = self.t_range[0]
        else:
            i = self.exprs.index(pivot)
            num = vec[i] - pivot.const
            if num % pivot.coeff:
                return None
            t = num // pivot.coeff
        if not (self.t_range[0] <= t <= self.t_range[1]):
            return None
        if all(ex(t) == vec[i] for i, ex in enumerate(self.exprs)):
            return t
        return None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_label,
            "prime": self.prime,
            "param": "t",
            "t_range": list(self.t_range),
            "e": [str(ex) for ex in self.exprs],
            "e_of_rank": [str(ex) for ex in self.rank_exprs],
        }


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _solve_affine(eqs, n: int):
    """Solve a linear system in e_0..e_{n-1} exactly, with t = e_{n-1}.

    eqs is a list of (coefficients, rhs).  Fraction-free Gauss-Jordan
    elimination runs on e_0..e_{n-2}; rows left without a pivot read
    0 = c0 + c1*t and either fix t (then it is substituted, so every coeff
    is 0) or must vanish.  Returns per-unknown integer (const, coeff) pairs
    meaning const + coeff*t, or None when the system is inconsistent, leaves
    an unknown other than t free, or has a solution that is not integral.
    """
    m = n - 1
    # augmented rows: coefficients of e_0..e_{m-1}, then the affine
    # right-hand side (constant part, t part)
    rows = [[*coeffs[:m], rhs, -coeffs[m]] for coeffs, rhs in eqs]
    for col in range(m):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        d = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                rows[r] = [d * x - f * y for x, y in zip(row, prow)]
    t = None
    for row in rows[m:]:
        c0, c1 = row[m], row[m + 1]
        if c1 and t is None:
            t = -c0 // c1  # if c1 does not divide c0, the check below fails
        if c0 + c1 * (t or 0):
            return None
    solution = []
    for col in range(m):
        d, c0, c1 = rows[col][col], rows[col][m], rows[col][m + 1]
        if t is not None:
            c0, c1 = c0 + c1 * t, 0
        if c0 % d or c1 % d:
            return None
        solution.append((c0 // d, c1 // d))
    solution.append((0, 1) if t is None else (t, 0))
    return solution


def _family_from_solution(label, q, solution, cons, z):
    """Range-restrict an affine solution by nonnegativity and rank bounds.

    cons entries are (mult, j): mult bounds from below both the prefix sum
    e_0 + ... + e_j (codomain chain) and z + e_j + ... + e_top (domain
    chain).  Returns a SolutionFamily, or None when the range is empty.
    """
    top = len(solution) - 1
    lo, hi = None, None
    feasible = True

    def require_at_least(c0, c1, bound):
        # constrain c0 + c1*t >= bound
        nonlocal lo, hi, feasible
        if c1 == 0:
            if c0 < bound:
                feasible = False
        elif c1 > 0:
            need = _ceil_div(bound - c0, c1)
            lo = need if lo is None else max(lo, need)
        else:
            cap = (c0 - bound) // (-c1)
            hi = cap if hi is None else min(hi, cap)

    for c0, c1 in solution:
        require_at_least(c0, c1, 0)
    for mult, j in cons:
        for base, idxs in ((0, range(0, j + 1)), (z, range(j, top + 1))):
            c0 = base + sum(solution[i][0] for i in idxs)
            c1 = sum(solution[i][1] for i in idxs)
            require_at_least(c0, c1, mult)
    if not feasible:
        return None
    if all(c1 == 0 for _, c1 in solution):
        lo, hi = 0, 0  # fully determined solution; degenerate parameter
    if lo is None or hi is None:
        raise AssertionError("parameter range should be bounded")
    if lo > hi:
        return None

    exprs = tuple(AffineExpr(c0, c1) for c0, c1 in solution)
    e0_const, e0_coeff = solution[0]
    rank_exprs: tuple[AffineExpr, ...] = ()
    if e0_coeff in (1, -1):
        # t = e0_coeff * (e0 - e0_const); substitute into each expression
        rank_exprs = tuple(
            AffineExpr(
                c0 - c1 * e0_coeff * e0_const, c1 * e0_coeff, "e0"
            )
            for c0, c1 in solution[1:]
        )
    elif e0_coeff == 0:
        rank_exprs = tuple(AffineExpr(c0, 0, "e0") for c0, _ in solution[1:])
    return SolutionFamily(label, q, (lo, hi), exprs, rank_exprs)


def _eigenvalue_constraints(spectrum, q: int, bound_exp: int):
    """Rank inequalities contributed by Laplacian eigenvalues.

    An eigenvalue with q-valuation j >= 1 and multiplicity m pins its
    saturated eigenvector lattice inside both chains at level j, giving
    m <= e_0 + ... + e_j (codomain chain) and m <= z + e_j + ... (domain
    chain); the pair is (m, j).  Irrational (conference) eigenvalues
    contribute nothing.
    """
    cons = []
    if spectrum.theta.is_integral:
        for eig, mult in _laplacian_eigenvalues(spectrum):
            j = valuation(eig, q)
            if j >= 1:
                if j > bound_exp:
                    raise AssertionError(
                        "eigenvalue valuation exceeds the divisor bound"
                    )
                cons.append((mult, j))
    return cons


def enumerate_families(params: SrgParams, q: int) -> list[SolutionFamily]:
    """All maximal families of admissible q-multiplicity vectors.

    Unknowns are e_0..e_J with J the q-valuation of w, and t = e_J.  Two
    equations always hold: the multiplicities count every nonzero invariant
    factor (sum e_i = v - 1 for a connected graph) and carry the full
    q-valuation of the group order (sum i*e_i = v_q(order)).  For J <= 2
    that is the one case, fixing every e_i in terms of t.  For J = 3 the
    eigenvalue inequalities include a complementary prefix/suffix pair
    whose total slack is v - m_a - m_b; each split s of the slack adds the
    equation e_0 + ... + e_{j_a} = m_a + s and is case s + 1.  Every case
    is solved by ``_solve_affine`` and range-restricted by
    ``_family_from_solution`` (nonnegativity and the rank inequalities).
    Raises ContradictionError when no case leaves a family, and ValueError,
    before any solving, for J >= 4 and for J = 3 without such a pair.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    ident = derive_laplacian_identity(params)
    bound_exp = valuation(ident.w, q)
    spectrum = srg_spectrum(params)
    val = predicted_order_from_spectrum(spectrum).get(q, 0)
    if bound_exp > 3:
        raise ValueError(
            f"divisor bound allows exponent {bound_exp} for q={q}; only "
            "exponents up to 3 reduce to one-parameter families here"
        )
    z = 1  # kernel dimension: connected since mu >= 1
    # empty when J = 0: an integral eigenvalue lam has lam*(c - lam) = w
    cons = _eigenvalue_constraints(spectrum, q, bound_exp)
    n = bound_exp + 1
    base = [([1] * n, params.v - z), (list(range(n)), val)]
    cases = [(1, base)]
    if bound_exp == 3:
        pair = next(
            ((ma, ja, mb) for ma, ja in cons for mb, jb in cons if jb == ja + 1),
            None,
        )
        if pair is None:
            raise ValueError(
                "no complementary pair of rank inequalities; cannot reduce "
                "to one-parameter families"
            )
        ma, ja, mb = pair
        prefix = [int(i <= ja) for i in range(n)]
        slack = params.v - ma - mb
        cases = [(s + 1, base + [(prefix, ma + s)]) for s in range(slack + 1)]
    fams = []
    for label, eqs in cases:
        solution = _solve_affine(eqs, n)
        fam = solution and _family_from_solution(label, q, solution, cons, z)
        if fam:
            fams.append(fam)
    if not fams:
        raise ContradictionError(
            f"no nonnegative multiplicity vector for q={q} ({params})"
        )
    return fams


def family_membership(profile, families) -> tuple[int, int] | None:
    """Which family (case label, parameter value) a measured profile fits.

    ``profile`` may be an ElemDivisorProfile or a bare multiplicity
    sequence.  Returns None when no family matches.
    """
    mults = tuple(getattr(profile, "multiplicities", profile))
    for fam in families:
        t = fam.contains(mults)
        if t is not None:
            return fam.case_label, t
    return None


def analyze(params: SrgParams, primes=()) -> dict:
    """Full constraint report for a parameter set, as a JSON-ready dict.

    Always contains the Laplacian identity, the divisor bound, the factored
    group order, and the forced multiplicities of every order prime whose
    bound exponent is 1.  Families are enumerated for each prime in
    ``primes``.
    """
    ident = derive_laplacian_identity(params)
    order = predicted_order_from_spectrum(srg_spectrum(params))
    forced = {}
    for qq in sorted(order):
        if valuation(ident.w, qq) == 1:
            forced[str(qq)] = order[qq]
    families = {}
    for qq in primes:
        families[str(qq)] = [
            fam.to_json_dict() for fam in enumerate_families(params, qq)
        ]
    v, k, lam, mu = params
    return {
        "schema": 1,
        "params": {"v": v, "k": k, "lambda": lam, "mu": mu},
        "identity": {
            "c": ident.shift,
            "w": ident.w,
            "j_coeff": ident.j_coeff,
            "w_factored": {str(p): e for p, e in sorted(factorize(ident.w).items())},
        },
        "divisor_bound": prime_power_divisors(ident.w),
        "order_factored": {str(p): e for p, e in order.items()},
        "forced": forced,
        "families": families,
    }
