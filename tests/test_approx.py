import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from cepskit import approx as approx_mod
from cepskit.approx import (
    approximate_periodic,
    build_s_prime,
    distance_profile,
    s_prime_apply,
    surjectivity_preimage,
)
from cepskit.errors import DimensionError, DomainError, NotAperiodicAtHorizon
from cepskit.generators import single_cycle, swap_example
from cepskit.lattice import elem
from cepskit.oracles import all_components, s_prime_operator, scan_components
from cepskit.system import GroundSystem, permutation_cycles

F = Fraction


def seven_fixture():
    sys = single_cycle(7)
    return sys, build_s_prime(sys, [0], 3)


def test_seven_cycle_fixture():
    sys, approx = seven_fixture()
    assert approx.tower == frozenset([0, 5, 6])
    assert approx.tower_minus_top == frozenset([0, 6])
    assert approx.tau_prime == (5, 1, 2, 3, 4, 6, 0)  # the cycle (0 5 6)
    assert approx.cycle_length_histogram == {1: 4, 3: 1}


def test_partition_of_unity_explicit():
    sys, approx = seven_fixture()
    q, p = approx.tower_minus_top, approx.base
    off = sys.ground_set - approx.tower
    for x in range(sys.size):
        assert (sys.tau[x] in q) + (x in p) + (x in off) == 1


def test_ts_prime_equals_t():
    sys, approx = seven_fixture()
    for m in range(sys.size):
        chi = sys.indicator([m])
        assert sys.expectation(s_prime_apply(approx, chi)) == sys.expectation(chi)


def test_full_tower_means_pure_period_n():
    # h = whole space: every tau'-cycle has length exactly n
    sys = single_cycle(6)
    approx = build_s_prime(sys, [0, 3], 3)
    assert approx.tower == sys.ground_set
    assert approx.cycle_length_histogram == {3: 2}


def test_swap_height_two_recovers_s():
    swap = swap_example()
    approx = build_s_prime(swap, [0], 2)
    assert approx.tower == frozenset([0, 1])
    assert approx.tower_minus_top == frozenset([0])
    assert approx.tau_prime == (1, 0)  # S' = S


def test_operator_sum_matches_extracted_map():
    sys, approx = seven_fixture()
    rng = random.Random(3)
    for _ in range(50):
        f = elem([rng.randint(-5, 5) for _ in range(7)])
        assert s_prime_operator(sys, approx.base, 3, f) == s_prime_apply(approx, f)


def test_surjectivity_witness():
    sys, approx = seven_fixture()
    rng = random.Random(5)
    for _ in range(100):
        f = elem([F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(7)])
        hat = surjectivity_preimage(sys, approx, f)
        assert s_prime_apply(approx, hat) == f


def test_injectivity_and_permutation():
    sys, approx = seven_fixture()
    assert sorted(approx.tau_prime) == list(range(7))


def test_operator_periodicity():
    sys, approx = seven_fixture()
    n = approx.period_bound
    order = lcm(*(len(c) for c in permutation_cycles(approx.tau_prime)))
    assert factorial(n) % order == 0
    f = elem([1, 2, 3, 4, 5, 6, 7])
    powered = f
    for _ in range(factorial(n)):
        powered = s_prime_apply(approx, powered)
    assert powered == f


def test_pointwise_periodicity_exhaustive():
    sys, approx = seven_fixture()
    n = approx.period_bound
    for u in all_components(sys.size):
        chi = sys.indicator(u)
        powered = chi
        for _ in range(n):
            powered = s_prime_apply(approx, powered)
        assert powered.join(s_prime_apply(approx, chi)) >= chi


def test_distance_profile_values():
    sys, approx = seven_fixture()
    assert distance_profile(sys, approx, []) == 0 * sys.unit
    assert distance_profile(sys, approx, range(7)) == 0 * sys.unit
    assert distance_profile(sys, approx, [1]) == F(2, 7) * sys.unit


def test_exhaustive_certificate_small():
    sys, approx = seven_fixture()
    cert = approx.certificate
    assert cert.mode == "closed-form"
    # tau and tau' = (0 5 6) differ at 0..4: five sigma-edges examined
    assert cert.components_checked == 5
    assert cert.holds
    # worst observed really is the coordinatewise max of the dense
    # per-component profiles over all 2^7 components
    profiles = [distance_profile(sys, approx, u) for u in all_components(7)]
    worst = tuple(max(p[i] for p in profiles) for i in range(7))
    assert cert.worst_observed.values == worst
    assert cert.worst_observed == scan_components(
        sys, approx.tau_prime, cert.eps, range(1 << 7))[0]


def test_build_s_prime_rejections():
    sys = single_cycle(7)
    with pytest.raises(DomainError):
        build_s_prime(sys, [], 3)
    with pytest.raises(DomainError):
        build_s_prime(sys, [0], 1)
    with pytest.raises(DomainError):
        build_s_prime(sys, [0, 1], 3)  # iterates not disjoint
    with pytest.raises(DimensionError):
        build_s_prime(sys, [7], 3)


def test_s_prime_apply_refuses_an_element_of_the_wrong_length():
    _, approx = seven_fixture()
    with pytest.raises(DomainError,
                       match=r"^element of length 3 under a map on 7 points$"):
        s_prime_apply(approx, elem([1, 0, 0]))


def test_build_s_prime_refuses_period_above_size_before_any_level(monkeypatch):
    # The levels come from GroundSystem.iterates: none may be built first.
    levels_built = []
    real_iterates = GroundSystem.iterates

    def counting_iterates(self, p, n):
        levels_built.append(n)
        return real_iterates(self, p, n)

    monkeypatch.setattr(GroundSystem, "iterates", counting_iterates)
    with pytest.raises(DomainError, match="exceeds"):
        build_s_prime(single_cycle(12), [0], 13)
    assert levels_built == []
    assert build_s_prime(single_cycle(12), [0], 12).tau_prime == single_cycle(12).tau


def test_build_s_prime_builds_the_levels_once_after_the_refusals(monkeypatch):
    heights = []
    real_iterates = GroundSystem.iterates

    def counting_iterates(self, p, n):
        heights.append(n)
        return real_iterates(self, p, n)

    monkeypatch.setattr(GroundSystem, "iterates", counting_iterates)
    with pytest.raises(DomainError, match="exceeds"):
        build_s_prime(single_cycle(12), [0], 13)
    assert heights == []
    build_s_prime(single_cycle(12), [0], 12)
    assert heights == [12]


def test_manual_explicit_eps_can_fail_without_raising():
    sys = single_cycle(7)
    approx = build_s_prime(sys, [0], 3, eps=F(1, 100))
    assert not approx.certificate.holds
    assert max(approx.certificate.worst_observed) > F(1, 100)


def alternating_component(tau, tau_prime):
    """Every other point along each sigma-cycle, sigma = tau' o tau^{-1}.

    It splits every sigma-edge of an even cycle, so on a system whose
    sigma-cycles are all even it attains the distance supremum.
    """
    inverse = {t: x for x, t in enumerate(tau)}
    seen, u = set(), set()
    for start in range(len(tau)):
        y, parity = start, 0
        while y not in seen:
            seen.add(y)
            if parity:
                u.add(y)
            y, parity = tau_prime[inverse[y]], 1 - parity
    return frozenset(u)


def test_approximate_periodic_hundred_cycle():
    sys = single_cycle(100)
    approx = approximate_periodic(sys, F(1, 2))
    assert approx.period_bound == 9
    cert = approx.certificate
    assert cert.mode == "closed-form"
    assert cert.majorant.holds
    assert cert.majorant.lhs == F(6, 25) * sys.unit  # 2Tp + 2T(e-h), |p|=11
    # tau and tau' differ on p and on the one point off the tower: 12 edges
    assert cert.components_checked == 12
    assert cert.holds
    # The supremum cuts all 12 edges of weight 1/100, and a component attains it.
    assert cert.worst_observed == F(3, 25) * sys.unit
    u = alternating_component(sys.tau, approx.tau_prime)
    assert distance_profile(sys, approx, u) == cert.worst_observed
    # No sampled component exceeds it.
    rng = random.Random(0)
    masks = [rng.getrandbits(100) for _ in range(10_000)]
    sampled, checked, all_ok = scan_components(sys, approx.tau_prime, F(1, 2), masks)
    assert checked == 10_000 and all_ok
    assert all(s <= w for s, w in zip(sampled, cert.worst_observed))


def test_theorem_mode_builds_s_prime_once_through_the_public_name(monkeypatch):
    # Tools that wrap approx.build_s_prime (a tracer counting the components
    # its certificate checks) see every theorem-mode S' exactly once.
    calls = []
    real = approx_mod.build_s_prime

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(approx_mod, "build_s_prime", counting)
    for size in (66, 100):
        assert approximate_periodic(single_cycle(size), F(1, 2)).period_bound == 9
    assert calls == [9, 9]


def test_approximate_periodic_rejections():
    with pytest.raises(NotAperiodicAtHorizon):
        approximate_periodic(swap_example(), F(1, 4))
    with pytest.raises(DomainError):
        approximate_periodic(single_cycle(100), F(1))
    with pytest.raises(DomainError):
        approximate_periodic(single_cycle(100), F(3, 2))
