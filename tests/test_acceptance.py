"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every identity is checked with exact rational arithmetic - tolerance zero
throughout. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines alongside pytest's own verdicts.
"""

import random
import time
from fractions import Fraction
from math import floor, lcm

import pytest

from cepskit.approx import build_s_prime, approximate_periodic, distance_profile
from cepskit.errors import NotAperiodicAtHorizon, NotConditionallyErgodic
from cepskit.generators import (
    RandomSpec,
    direct_product,
    random_component,
    random_system,
    single_cycle,
    swap_example,
    truncated_counterexample,
    with_single_block,
)
from cepskit.lattice import band_project, elem
from cepskit.oracles import (all_components, n_aperiodic_definitional,
                             partial_cesaro_sum, scan_components)
from cepskit.recurrence import disjointness_witnesses, kac_certificate
from cepskit.suites import run_suite
from cepskit.tower import build_tower, build_tower_eps, build_tower_eps_ls, \
    n_aperiodic
from cepskit.demos import paper_examples_report

F = Fraction


def report_line(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_kac_identity():
    started = time.perf_counter()
    result = run_suite("kac", trials=1000, seed=20_260_811)
    elapsed = time.perf_counter() - started
    ok = result["outcome"] == "pass" and result["passed"] == 1000
    report_line(1, ok and elapsed < 60,
                f"Kac identity exact on {result['passed']}/1000 random "
                f"ergodic systems ({elapsed:.1f}s)")


def test_criterion_2_poincare_decomposition():
    started = time.perf_counter()
    result = run_suite("poincare", trials=1000, seed=20_260_811)
    elapsed = time.perf_counter() - started
    ok = result["outcome"] == "pass" and result["passed"] == 1000
    report_line(2, ok,
                f"Poincare decomposition + trajectory-oracle agreement on "
                f"{result['passed']}/1000 trials ({elapsed:.1f}s)")


def test_criterion_3_iterate_disjointness():
    rng = random.Random(314159)
    bad = 0
    for seed in range(200):
        sys = random_system(RandomSpec(seed=seed * 31 + 7, ergodic=True))
        p = random_component(rng, sys.size, nonempty=True)
        if disjointness_witnesses(sys, p):
            bad += 1
    report_line(3, bad == 0,
                f"S^i q(p,m) ^ S^j q(p,n) = 0 exhaustively on 200 instances, "
                f"{bad} violations")


def test_criterion_4_eps_free_tower():
    started = time.perf_counter()
    result = run_suite("tower", trials=500, seed=20_260_811)
    elapsed = time.perf_counter() - started
    ok = result["outcome"] == "pass" and result["passed"] == 500
    report_line(4, ok,
                f"tower disjointness, mass bound and proof-chain identity on "
                f"{result['passed']}/500 trials ({elapsed:.1f}s)")


def test_criterion_5_paper_example_regression():
    swap = swap_example()
    e = swap.unit
    p = frozenset([0])
    tp = swap.expectation(swap.indicator(p))
    checks = [tp == elem(["1/2", "1/2"])]

    p_tp_e = band_project(tp.support(), e)
    expected_rhs = {1: e, 2: elem(["1/2", "1/2"]), 3: elem([0, 0]),
                    4: elem([0, 0])}
    expected_mass = {1: e, 2: e, 3: elem([0, 0]), 4: elem([0, 0])}
    for n, want in expected_rhs.items():
        checks.append((p_tp_e - (n - 1) * tp).pos_part() == want)
        t = build_tower(swap, p, n)
        checks.append(swap.expectation(swap.indicator(t.covered()))
                      == expected_mass[n])
        checks.append(t.bound_certificate.holds)
    demo = paper_examples_report()
    checks.append(demo["outcome"] == "pass")
    report_line(5, all(checks),
                "two-point worked example reproduced exactly "
                f"({sum(checks)}/{len(checks)} values)")


def test_criterion_6_eps_bounded_tower():
    grid_ok = True
    for n in range(1, 7):
        for eps in (F(1, 2), F(1, 5), F(1, 10)):
            horizon = floor(F(n - 1) / eps) + 1
            for m in (horizon + 1, horizon + 3):
                sys = single_cycle(m)
                t = build_tower_eps(sys, n, eps)
                if not sys.expectation(sys.indicator(t.residual)) <= eps * sys.unit:
                    grid_ok = False

    refusals_ok = True
    product = truncated_counterexample(6)
    for n in range(2, 6):
        for eps in (F(1, n + 1), F(1, 2 * n), F(999, 1000 * n)):
            try:
                build_tower_eps(product, n, eps)
                refusals_ok = False
            except NotAperiodicAtHorizon:
                pass
    report_line(6, grid_ok and refusals_ok,
                "T(residual) <= eps*e exact on the (n, eps) grid; truncated "
                "product refused with NotAperiodicAtHorizon")


def test_criterion_7_aperiodicity_equivalence():
    started = time.perf_counter()
    mismatches = 0
    systems = 0
    seed = 0
    while systems < 50:
        sys = random_system(RandomSpec(seed=seed, num_blocks=(1, 2),
                                       cycle_lengths=(1, 5),
                                       ergodic=seed % 2 == 0))
        seed += 1
        if sys.size > 10:
            continue
        systems += 1
        v = sys.ground_set()
        for horizon in (1, 2, 3, 4, 6):
            if n_aperiodic_definitional(sys, v, horizon) != n_aperiodic(sys, v, horizon):
                mismatches += 1
    elapsed = time.perf_counter() - started
    report_line(7, mismatches == 0 and elapsed < 120,
                f"definitional == criterion on 50 systems x 5 horizons, "
                f"exhaustive over components ({elapsed:.1f}s)")


def test_criterion_8_periodic_approximation():
    # (a) the manual 7-cycle fixture
    seven = single_cycle(7)
    approx = build_s_prime(seven, [0], 3)
    a_ok = (
        approx.tau_prime == (5, 1, 2, 3, 4, 6, 0)
        and all(approx.tau_prime[i] == i for i in (1, 2, 3, 4))
        and max(approx.cycle_length_histogram()) <= 3
        and all(
            (seven.tau[x] in approx.tower_minus_top) + (x in approx.base)
            + (x in seven.ground_set() - approx.tower) == 1
            for x in range(7)
        )
        and all(
            seven.expectation(
                elem([1 if approx.tau_prime[y] == m else 0 for y in range(7)])
            ) == seven.expectation(seven.indicator([m]))
            for m in range(7)
        )
    )

    # (b) auto mode on the 100-cycle at eps = 1/2
    hundred = single_cycle(100)
    auto = approximate_periodic(hundred, F(1, 2))
    majorant = auto.certificate.majorant
    b_ok = (majorant.lhs == F(6, 25) * hundred.unit
            and majorant.holds and auto.certificate.holds)

    # (c) closed form = the exhaustive 2^16 scan at |Omega| = 16
    started = time.perf_counter()
    sixteen = single_cycle(16)
    manual16 = build_s_prime(sixteen, [0, 4, 8, 12], 3, eps=F(1))
    cert = manual16.certificate
    worst, checked, all_ok = scan_components(sixteen, manual16.tau_prime, F(1),
                                             range(1 << 16))
    elapsed = time.perf_counter() - started
    edges = sum(t != tp for t, tp in zip(sixteen.tau, manual16.tau_prime))
    c_ok = (cert.mode == "closed-form" and checked == 2**16
            and cert.worst_observed == worst and cert.holds == all_ok
            and cert.holds and cert.components_checked == edges
            and elapsed < 300)

    report_line(8, a_ok and b_ok and c_ok,
                f"tau'=(0 5 6) fixture, 100-cycle majorant 6/25 <= 1/2, "
                f"closed form = 2^16 exhaustive scan ({elapsed:.1f}s)")


def test_criterion_9_cesaro_convergence():
    failures = 0
    for seed in range(200):
        sys = random_system(RandomSpec(seed=seed * 13 + 1, num_blocks=(1, 3),
                                       cycle_lengths=(1, 6),
                                       ergodic=seed % 2 == 0))
        rng = random.Random(seed)
        f = elem([F(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(sys.size)])
        if partial_cesaro_sum(sys, f, lcm(*map(len, sys.cycles))) != sys.cesaro_mean(f):
            failures += 1
        extensional = all(
            sys.cesaro_mean(sys.indicator([m])) == sys.expectation(sys.indicator([m]))
            for m in range(sys.size)
        )
        if extensional != sys.is_conditionally_ergodic():
            failures += 1
    report_line(9, failures == 0,
                f"partial Cesaro sum at lcm equals L_S exactly; ergodicity "
                f"matches the extensional test on 200 systems, {failures} failures")


def test_criterion_10_ls_corollary_path():
    merged = with_single_block(
        direct_product([single_cycle(12), single_cycle(12)])
    )
    refused = False
    try:
        build_tower_eps(merged, 2, F(1, 5))
    except NotConditionallyErgodic:
        refused = True
    tower = build_tower_eps_ls(merged, range(24), 2, F(1, 5))
    succeeded = (tower.bound_certificate.name == "ls-residual-mass-bound"
                 and tower.bound_certificate.holds)
    report_line(10, refused and succeeded,
                "non-ergodic two-cycle system: tower-eps refuses, tower-ls "
                "certifies under L_S")
