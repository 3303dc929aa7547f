"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines
and per-criterion timings.
"""

import json
import random
import time

from critlab import (
    SrgParams,
    analyze,
    bicycle_dimension,
    check_srg,
    critical_group,
    derive_laplacian_identity,
    elem_divisor_profile,
    enumerate_families,
    family_membership,
    hoffman_singleton_graph,
    laplacian_matrix,
    moore_graph,
    petersen_graph,
    recurrent_count,
    sandpile_group_structure,
    snf,
    srg_spectrum,
    verify_filtration_dims,
)
from critlab.cli import main as cli_main
from oracles import (
    brute_force_spanning_trees,
    f2_bicycle_dimension,
    integer_snf,
    laplacian_identity_holds,
    profile_from_snf,
    random_int_matrix,
    snf_from_determinantal_divisors,
)
from test_critical import SMALL_CONNECTED

MOORE57 = SrgParams(3250, 57, 0, 1)


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {num}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_divisor_bound_and_forced_parts(capsys):
    start = time.monotonic()
    code = cli_main(["moore", "analyze", "--params", "3250,57,0,1", "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = (
        code == 0
        and set(report["divisor_bound"]) == {2, 5, 25, 125, 13}
        and report["forced"] == {"2": 1728, "13": 1519}
        and report["order_factored"] == {"2": 1728, "5": 4975, "13": 1519}
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            1,
            ok,
            "allowed divisors {2,5,25,125,13}, forced 2->1728 / 13->1519, "
            "order 2^1728 * 5^4975 * 13^1519",
            elapsed,
            1.0,
        )


def test_criterion_2_two_admissible_families(capsys):
    start = time.monotonic()
    code = cli_main(
        ["moore", "analyze", "--params", "3250,57,0,1", "--prime", "5", "--format", "json"]
    )
    out = capsys.readouterr().out
    fams = json.loads(out)["families"]["5"]
    ok = (
        code == 0
        and len(fams) == 2
        and fams[0]["e_of_rank"] == ["1520 - e0", "1732 - e0", "e0 - 3"]
        and fams[1]["e_of_rank"] == ["1521 - e0", "1730 - e0", "e0 - 2"]
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            2,
            ok,
            "two families: (1520-e0, 1732-e0, e0-3) and (1521-e0, 1730-e0, e0-2)",
            elapsed,
            1.0,
        )


def test_criterion_3_filtration_identities_random(capsys):
    start = time.monotonic()
    rng = random.Random(1_000_003)
    checked = 0
    ok = True
    for _ in range(200):
        m = random_int_matrix(rng, max_dim=8, lo=-20, hi=20)
        factors = integer_snf(m)  # independent oracle route
        for p in (2, 3, 5):
            rep = verify_filtration_dims(m, p)
            mult, _ = profile_from_snf(factors, p)
            kern = m.cols - sum(1 for d in factors if d)
            depth = len(rep.dims_M) - 1
            e = list(mult) + [0] * (depth + 2 - len(mult))
            expect_m = tuple(kern + sum(e[i:]) for i in range(depth + 1))
            expect_n = tuple(sum(e[: i + 1]) for i in range(depth + 1))
            if not (rep.passed and rep.dims_M == expect_m and rep.dims_N == expect_n):
                ok = False
            checked += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            3,
            ok and checked == 600,
            f"{checked} filtration verifications against full-SNF oracle",
            elapsed,
            10.0,
        )


def test_criterion_4_moore_cross_validation(capsys):
    start = time.monotonic()
    expected = {2: 5, 3: 2000}
    ok = True
    for k, want in expected.items():
        g = moore_graph(k)
        cg = critical_group(g)
        # the subset count, recurrent_count and the expected numbers share
        # no code with critical_group
        trees = brute_force_spanning_trees(g)
        recurrents = recurrent_count(g)
        structure = sandpile_group_structure(g)
        if not (cg.order == trees == recurrents == want):
            ok = False
        if structure != cg.invariant_factors:
            ok = False
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            4,
            ok,
            "valency 2 and 3: order = trees = recurrents (5, 2000), "
            "sandpile group = Smith form",
            elapsed,
            30.0,
        )


def test_criterion_5_hoffman_singleton(capsys):
    start = time.monotonic()
    g = hoffman_singleton_graph()
    params = SrgParams(50, 7, 0, 1)
    ok = check_srg(g, params)

    ident = derive_laplacian_identity(params)
    ok = ok and (ident.shift, ident.w) == (15, 50) and laplacian_identity_holds(ident, g)

    cg = critical_group(g)
    from critlab import predicted_order_from_spectrum

    spectral = predicted_order_from_spectrum(srg_spectrum(params), 50)
    ok = ok and cg.order == 2**20 * 5**47
    ok = ok and spectral == {2: 20, 5: 47} == cg.order_factored()

    lap = laplacian_matrix(g)
    prof2 = elem_divisor_profile(lap, 2)
    prof5 = elem_divisor_profile(lap, 5)
    ok = ok and prof2.total_valuation == 20 and prof5.total_valuation == 47

    fams = enumerate_families(params, 5)
    ok = ok and family_membership(prof5, fams) is not None

    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            5,
            ok,
            "SRG check, identity (c=15, w=50), order 2^20 * 5^47 by spectrum "
            "and profiles, measured 5-profile inside the enumerated family",
            elapsed,
            60.0,
        )


def test_criterion_6_snf_against_determinantal_divisors(capsys):
    start = time.monotonic()
    rng = random.Random(8_675_309)
    ok = True
    for _ in range(500):
        m = random_int_matrix(rng, max_dim=6, lo=-20, hi=20)
        if snf(m).invariant_factors != snf_from_determinantal_divisors(m):
            ok = False
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(6, ok, "500 random matrices up to 6x6", elapsed, 30.0)


def test_criterion_7_bicycles(capsys):
    start = time.monotonic()
    small = [g for g in SMALL_CONNECTED if g.n <= 7]
    ok = len(small) >= 8
    for g in small:
        if bicycle_dimension(g) != f2_bicycle_dimension(g):
            ok = False
    pg = petersen_graph()
    ok = ok and bicycle_dimension(pg) == f2_bicycle_dimension(pg) == 4
    # the even invariant factors of the hypothetical valency-57 graph are
    # exactly the forced prime-2 multiplicity
    ok = ok and analyze(MOORE57)["forced"]["2"] == 1728
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            7,
            ok,
            f"{len(small)} small graphs + Petersen vs F2 oracle; "
            "1728 even invariant factors for the valency-57 parameters",
            elapsed,
            30.0,
        )
