import random
from dataclasses import replace
from fractions import Fraction
from math import floor

import pytest

from cepskit.errors import (
    DimensionError,
    DomainError,
    InvalidSystem,
    NotAperiodicAtHorizon,
    NotConditionallyErgodic,
)
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
from cepskit.approx import build_s_prime
from cepskit.lattice import elem, zeros
from cepskit.oracles import n_aperiodic_definitional
from cepskit.recurrence import kac_certificate
from cepskit.system import Check, GroundSystem
from cepskit.tower import (
    BoundCertificate,
    build_tower,
    build_tower_eps,
    build_tower_eps_ls,
    find_base_component,
    n_aperiodic,
    proof_chain_identity,
)

F = Fraction


# -- epsilon-free tower --

def test_swap_tower_heights():
    swap = swap_example()
    e = swap.unit
    t1 = build_tower(swap, [0], 1)
    assert t1.base == frozenset([0, 1])
    assert swap.expectation(swap.indicator(t1.covered())) == e
    assert t1.bound_certificate.rhs == e

    t2 = build_tower(swap, [0], 2)
    assert t2.base == frozenset([0])
    assert swap.expectation(swap.indicator(t2.covered())) == e
    assert t2.bound_certificate.rhs == elem(["1/2", "1/2"])

    t3 = build_tower(swap, [0], 3)
    assert t3.base == frozenset()
    assert t3.bound_certificate.rhs == elem([0, 0])
    assert t3.bound_certificate.holds


def test_seven_cycle_tower_hand_values():
    c7 = single_cycle(7)
    t = build_tower(c7, [0], 3)
    assert t.base == frozenset([0, 4])
    assert t.levels == (frozenset([0, 4]), frozenset([3, 6]), frozenset([2, 5]))
    assert t.bound_certificate.lhs == F(6, 7) * c7.unit
    assert t.bound_certificate.rhs == F(5, 7) * c7.unit
    assert t.residual == frozenset([1])


def test_tower_rejects_non_ergodic_and_bad_height():
    merged = with_single_block(direct_product([single_cycle(2), single_cycle(3)]))
    with pytest.raises(NotConditionallyErgodic):
        build_tower(merged, [0], 2)
    with pytest.raises(DomainError):
        build_tower(swap_example(), [0], 0)
    with pytest.raises(DimensionError):
        build_tower(swap_example(), [5], 1)


def test_empty_base_gives_degenerate_tower():
    c5 = single_cycle(5)
    t = build_tower(c5, [], 3)
    assert t.degenerate
    assert t.base == frozenset()
    assert t.residual == c5.ground_set()
    assert t.bound_certificate.holds


def test_tower_invariants_randomized():
    rng = random.Random(31)
    for seed in range(50):
        sys = random_system(RandomSpec(seed=seed))
        p = random_component(rng, sys.size, nonempty=True)
        n = rng.randint(1, 8)
        t = build_tower(sys, p, n)
        assert t.verify_against(sys) == []
        for k in range(1, n):
            assert not t.base & sys.component_image(k, t.base)


def test_proof_chain_identity():
    c7 = single_cycle(7)
    lhs, rhs, ok = proof_chain_identity(c7, [0], build_tower(c7, [0], 3))
    assert ok and lhs == F(6, 7) * c7.unit
    rng = random.Random(37)
    for seed in range(30):
        sys = random_system(RandomSpec(seed=seed))
        p = random_component(rng, sys.size, nonempty=True)
        t = build_tower(sys, p, rng.randint(1, 6))
        assert proof_chain_identity(sys, p, t)[2]


# -- aperiodicity surrogate --

def test_n_aperiodic_criterion_cases():
    sys = direct_product([single_cycle(3), single_cycle(5)])
    v = sys.ground_set()
    assert n_aperiodic(sys, v, 3)
    assert not n_aperiodic(sys, v, 4)
    # v inside a fixed point
    fixed = truncated_counterexample(2)  # cycles of lengths 1 and 2
    assert not n_aperiodic(fixed, [0], 2)
    # a single M-cycle is N-aperiodic for every N <= M
    c6 = single_cycle(6)
    for horizon in range(1, 7):
        assert n_aperiodic(c6, c6.ground_set(), horizon)


def test_n_aperiodic_modes_agree_and_guard():
    sys = direct_product([single_cycle(3), single_cycle(5)])
    v = sys.ground_set()
    for horizon in (1, 2, 3, 4, 5, 6):
        assert n_aperiodic_definitional(sys, v, horizon) == n_aperiodic(sys, v, horizon)
    with pytest.raises(DomainError):
        n_aperiodic(sys, [], 2)
    with pytest.raises(DomainError):
        n_aperiodic_definitional(single_cycle(13), range(13), 2)


def test_n_aperiodic_on_sub_component():
    sys = direct_product([single_cycle(2), single_cycle(5)])
    inside_long = frozenset([3, 4])
    assert n_aperiodic(sys, inside_long, 4)
    assert n_aperiodic_definitional(sys, inside_long, 4)
    assert not n_aperiodic(sys, sys.ground_set(), 3)
    assert not n_aperiodic_definitional(sys, sys.ground_set(), 3)


# -- base component at a horizon --

def test_find_base_component_two_cycles():
    sys = direct_product([single_cycle(7), single_cycle(9)])
    assert find_base_component(sys, 3) == frozenset([0, 7])


def test_find_base_component_boundary():
    c5 = single_cycle(5)
    assert find_base_component(c5, 4) == frozenset([0])
    with pytest.raises(NotAperiodicAtHorizon) as info:
        find_base_component(c5, 5)
    assert info.value.length == 5 and info.value.required == 6


# -- epsilon-bounded tower --

def test_tower_eps_twelve_cycle():
    c12 = single_cycle(12)
    t = build_tower_eps(c12, 2, F(1, 5))
    assert t.base == frozenset([0, 2, 4, 6, 8, 10])
    assert t.residual == frozenset()
    assert t.bound_certificate.lhs == 0 * c12.unit
    assert t.bound_certificate.holds
    names = {c.name for c in t.extra_certificates}
    assert {"tower-mass-lower-bound", "base-mass-times-horizon",
            "base-mass-bound"} <= names


def test_tower_eps_height_one_covers_everything():
    c4 = single_cycle(4)
    t = build_tower_eps(c4, 1, F(1, 3))
    assert t.residual == frozenset()
    assert t.bound_certificate.holds


def test_tower_eps_rejections():
    with pytest.raises(NotAperiodicAtHorizon):
        build_tower_eps(swap_example(), 3, F(1, 4))
    with pytest.raises(DomainError):
        build_tower_eps(single_cycle(8), 2, F(0))
    merged = with_single_block(direct_product([single_cycle(12), single_cycle(12)]))
    with pytest.raises(NotConditionallyErgodic):
        build_tower_eps(merged, 2, F(1, 5))


def test_tower_eps_exact_bound_grid():
    for n in range(1, 5):
        for eps in (F(1, 2), F(1, 5)):
            horizon = floor(F(n - 1) / eps) + 1
            sys = single_cycle(horizon + 1)
            t = build_tower_eps(sys, n, eps)
            t_resid = sys.expectation(sys.indicator(t.residual))
            assert t_resid <= eps * sys.unit


def test_counterexample_truncation_refused():
    product = truncated_counterexample(5)
    for n in (2, 3, 4):
        eps = F(1, n + 1)  # any eps < 1/n
        with pytest.raises(NotAperiodicAtHorizon):
            build_tower_eps(product, n, eps)


# -- the L_S variant --

def test_tower_eps_ls_reduces_to_eps_on_ergodic():
    c12 = single_cycle(12)
    t_ls = build_tower_eps_ls(c12, range(12), 2, F(1, 5))
    t = build_tower_eps(c12, 2, F(1, 5))
    assert t_ls.base == t.base
    assert t_ls.levels == t.levels


def test_tower_eps_ls_on_non_ergodic():
    merged = with_single_block(direct_product([single_cycle(12), single_cycle(12)]))
    t = build_tower_eps_ls(merged, range(24), 2, F(1, 5))
    assert t.bound_certificate.name == "ls-residual-mass-bound"
    assert t.bound_certificate.holds
    assert t.base == frozenset(range(0, 24, 2))
    # restriction to one orbit also works
    half = build_tower_eps_ls(merged, range(12), 2, F(1, 5))
    assert half.base == frozenset(range(0, 12, 2))
    assert half.bound_certificate.holds


def test_tower_eps_ls_certificates_cover_omega_and_hold():
    # v is the 12- and 9-cycles; every certificate, the extra ones too, has
    # one entry per point of the whole system.
    sys = with_single_block(direct_product([single_cycle(12), single_cycle(9),
                                            single_cycle(3)]))
    report = build_tower_eps_ls(sys, range(21), 2, F(1, 5)).as_dict()
    certificates = [report["certificate"], *report["extra_certificates"]]
    assert len(certificates) == 4
    for cert in certificates:
        assert len(cert["lhs"]) == len(cert["rhs"]) == 24
        assert cert["holds"]


def test_tower_eps_ls_rejects_non_invariant_v():
    c12 = single_cycle(12)
    with pytest.raises(DomainError):
        build_tower_eps_ls(c12, [0, 1, 2], 2, F(1, 5))
    merged = with_single_block(direct_product([single_cycle(3), single_cycle(12)]))
    with pytest.raises(NotAperiodicAtHorizon):
        build_tower_eps_ls(merged, range(3), 2, F(1, 5))


def test_tower_eps_ls_names_short_cycle_in_callers_indices():
    # The orbit refinement keeps the system's indices, so the short cycle is
    # named in the caller's, not renumbered from 0.
    merged = with_single_block(direct_product([single_cycle(12), single_cycle(3)]))
    with pytest.raises(NotAperiodicAtHorizon) as info:
        build_tower_eps_ls(merged, range(12, 15), 2, F(1, 5))
    assert info.value.cycle == (12, 13, 14)


def test_tower_eps_ls_names_the_first_short_cycle_of_v():
    # v is the 2-cycle (60, 61) and the 3-cycle (162, 163, 164); both are
    # below the horizon 6 + 1, and the first in index order is named.
    sys = with_single_block(direct_product(
        [single_cycle(m) for m in (20, 20, 20, 2, 20, 20, 20, 20, 20, 3)]))
    v = [60, 61, 162, 163, 164]
    with pytest.raises(NotAperiodicAtHorizon) as info:
        build_tower_eps_ls(sys, v, 2, F(1, 5))
    assert info.value.cycle == (60, 61)


def test_tower_eps_ls_refuses_a_broken_weight_before_a_short_cycle():
    # The 3-cycle in v is too short and breaks tau-invariance at 13.
    pieces = direct_product([single_cycle(12), single_cycle(3)])
    weights = list(pieces.weights)
    weights[13] += 1
    forced = GroundSystem(pieces.size, weights, pieces.blocks, pieces.tau,
                          check_axioms=False)
    with pytest.raises(InvalidSystem) as info:
        build_tower_eps_ls(forced, range(12, 15), 2, F(1, 5))
    assert info.value.report.checks == (Check("weights-tau-invariant", False, 12),)


def test_tower_eps_ls_refuses_weights_that_are_not_invariant():
    # A force-admitted system: refused with the one failed check, witnessed
    # in the caller's indices, not in the subsystem's.
    pieces = direct_product([single_cycle(12), single_cycle(12)])
    weights = list(pieces.weights)
    weights[13] += 1
    forced = GroundSystem(pieces.size, weights, pieces.blocks, pieces.tau,
                          check_axioms=False)
    with pytest.raises(InvalidSystem) as info:
        build_tower_eps_ls(forced, range(12, 24), 2, F(1, 5))
    assert info.value.report.checks == (Check("weights-tau-invariant", False, 12),)


def test_callers_component_is_checked_once(monkeypatch):
    # The caller's p is checked by return_decomposition; the parts, the base
    # and the levels built from it go to the T kernel unchecked.
    sys = direct_product([single_cycle(5), single_cycle(7)])
    p = [0, 2, 5, 9]
    tower = build_tower(sys, p, 2)
    check, calls = GroundSystem.component, []
    monkeypatch.setattr(GroundSystem, "component",
                        lambda self, c: calls.append(c) or check(self, c))
    for call in (lambda: kac_certificate(sys, p), lambda: build_tower(sys, p, 2),
                 lambda: proof_chain_identity(sys, p, tower)):
        calls.clear()
        assert call()
        assert calls == [p]


@pytest.mark.parametrize("call", [
    lambda: n_aperiodic(swap_example(), {5}, 1),
    lambda: n_aperiodic(swap_example(), {-1}, 1),
    lambda: build_tower_eps_ls(single_cycle(12), {5, 99}, 2, "1/5"),
    lambda: build_tower(swap_example(), {0, 5}, 1),
    lambda: proof_chain_identity(swap_example(), {-1},
                                 build_tower(swap_example(), {0}, 1)),
    lambda: build_s_prime(single_cycle(12), {0, 12}, 2),
    lambda: single_cycle(3).component_image(1, {3}),
    lambda: single_cycle(3).iterates({-1}, 2),
], ids=["aperiodic-too-large", "aperiodic-negative", "tower-ls-v", "tower",
        "proof-chain", "s-prime", "component-image", "iterates"])
def test_components_off_omega_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call()


def test_tower_refusals():
    sys = single_cycle(12)
    with pytest.raises(DomainError, match=r"^eps must be positive, got 0$"):
        build_tower_eps_ls(sys, range(12), 2, 0)
    with pytest.raises(DomainError,
                       match=r"^v must be a nonzero orbit-invariant component$"):
        build_tower_eps_ls(sys, [], 2, "1/5")
    with pytest.raises(DomainError, match=r"^horizon must be >= 1, got 0$"):
        find_base_component(sys, 0)


def test_verify_against_names_every_broken_invariant():
    sys = single_cycle(6)
    tower = build_tower(sys, [0], 3)  # levels {0, 3}, {2, 5}, {1, 4}
    assert tower.verify_against(sys) == []
    failing = BoundCertificate("made-up", lhs=sys.unit, rhs=zeros(6), relation="<=")
    tampered = {
        "level-count": replace(tower, levels=tower.levels[:-1],
                               residual=tower.levels[-1]),
        "level-1-not-koopman-image": replace(
            tower, levels=(tower.levels[0], frozenset([5]), tower.levels[2]),
            residual=frozenset([2])),
        "levels-not-disjoint": replace(tower, height=4,
                                       levels=sys.iterates(tower.base, 4)),
        "residual-mismatch": replace(tower, residual=frozenset([0])),
        "certificate-made-up": replace(tower, extra_certificates=(failing,)),
    }
    for problem, broken in tampered.items():
        assert broken.verify_against(sys) == [problem]
    assert replace(tower, bound_certificate=failing, extra_certificates=(failing,)) \
        .verify_against(sys) == ["certificate-made-up", "certificate-made-up"]
