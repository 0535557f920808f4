"""First-return machinery, cross-checked against the trajectory oracle.

The lattice formula q(p,k) = p ^ S^{-k}p ^ (e - join_{j<k} S^{-j}p), with
S^i acting on components as tau^{-i}, tracks returns under the inverse
point flow; the oracle in oracles.py walks tau backwards for exactly this
reason, and every derived value below was computed with it.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from cepskit.errors import DimensionError, DomainError, NotConditionallyErgodic
from cepskit.generators import (
    RandomSpec,
    direct_product,
    random_component,
    random_system,
    single_cycle,
    swap_example,
    with_single_block,
)
from cepskit.lattice import elem
from cepskit.oracles import first_return_sets, forward_image_union
from cepskit.recurrence import (
    check_recurrent,
    disjointness_witnesses,
    first_return_time,
    kac_certificate,
    max_cycle_length_meeting,
    q_component,
    return_decomposition,
)


def test_q_component_swap():
    swap = swap_example()
    assert q_component(swap, [0], 1) == frozenset()
    assert q_component(swap, [0], 2) == frozenset([0])


def test_q_component_full_ground_set():
    c5 = single_cycle(5)
    assert q_component(c5, range(5), 1) == frozenset(range(5))
    for k in (2, 3, 7):
        assert q_component(c5, range(5), k) == frozenset()


def test_q_component_seven_cycle_singleton():
    c7 = single_cycle(7)
    assert q_component(c7, [0], 7) == frozenset([0])
    for k in range(1, 7):
        assert q_component(c7, [0], k) == frozenset()


def test_q_component_rejects_bad_k():
    with pytest.raises(DomainError):
        q_component(swap_example(), [0], 0)


def test_return_decomposition_five_cycle():
    # oracle-computed: inverse flow from 2 hits {0,2} in 2 steps, from 0 in 3
    c5 = single_cycle(5)
    decomp = return_decomposition(c5, [0, 2])
    assert decomp.parts == {2: frozenset([2]), 3: frozenset([0])}
    assert decomp.horizon == 3
    assert first_return_time(c5, [0, 2]) == elem([3, 0, 2, 0, 0])


def test_return_decomposition_trivial_cases():
    c5 = single_cycle(5)
    assert return_decomposition(c5, []).parts == {}
    assert return_decomposition(c5, []).horizon == 0
    full = return_decomposition(c5, range(5))
    assert full.parts == {1: frozenset(range(5))}
    assert first_return_time(c5, range(5)) == c5.unit


def test_first_return_time_swap():
    assert first_return_time(swap_example(), [0]) == elem([2, 0])


def test_formula_equals_trajectory_oracle_randomized():
    rng = random.Random(7)
    for seed in range(60):
        sys = random_system(RandomSpec(seed=seed, ergodic=seed % 3 > 0))
        p = random_component(rng, sys.size, nonempty=True)
        assert return_decomposition(sys, p).parts == first_return_sets(sys, p)


def test_horizon_bounded_by_cycles():
    rng = random.Random(11)
    for seed in range(30):
        sys = random_system(RandomSpec(seed=seed))
        p = random_component(rng, sys.size, nonempty=True)
        decomp = return_decomposition(sys, p)
        assert decomp.horizon <= max_cycle_length_meeting(sys, p)


def test_iterate_disjointness_lemma():
    rng = random.Random(13)
    for seed in range(40):
        sys = random_system(RandomSpec(seed=seed))
        p = random_component(rng, sys.size, nonempty=True)
        assert disjointness_witnesses(sys, p) == []


def test_shifted_returns_land_in_p():
    """S^k q(p,k) <= p, at the component level."""
    rng = random.Random(17)
    for seed in range(30):
        sys = random_system(RandomSpec(seed=seed))
        p = random_component(rng, sys.size, nonempty=True)
        for k, qk in return_decomposition(sys, p).parts.items():
            assert sys.component_image(k, qk) <= p


def test_check_recurrent():
    c5 = single_cycle(5)
    assert check_recurrent(c5, [0, 3], [1])  # single cycle: everything returns
    assert check_recurrent(c5, [], [2])  # vacuous
    two = direct_product([single_cycle(3), single_cycle(4)])
    assert not check_recurrent(two, [0], [4])  # orbits never meet
    assert check_recurrent(two, [0], [0, 4])


def test_recurrent_union_stabilizes_at_max_cycle_length():
    """The infinite join needs only max-cycle-length many terms."""
    for sys in (direct_product([single_cycle(3), single_cycle(5)]),
                direct_product([single_cycle(2), single_cycle(6)])):
        maxlen = max(len(c) for c in sys.cycles)
        q = frozenset([0, sys.size - 1])
        at_max = forward_image_union(sys, q, maxlen)
        at_lcm = forward_image_union(sys, q, lcm(*map(len, sys.cycles)))
        assert at_max == at_lcm
        cycles_met = frozenset().union(
            *(sys.cycles[sys.cycle_of[x]] for x in q)
        )
        assert at_max == cycles_met


def test_kac_certificate_examples():
    swap = swap_example()
    lhs, rhs, ok = kac_certificate(swap, [0])
    assert (lhs, rhs, ok) == (elem([1, 1]), elem([1, 1]), True)

    c5 = single_cycle(5)
    lhs, rhs, ok = kac_certificate(c5, [0, 2])
    assert ok and lhs == c5.unit and rhs == c5.unit

    lhs, rhs, ok = kac_certificate(c5, range(5))
    assert ok and lhs == c5.unit


def test_kac_supported_only_on_blocks_meeting_p():
    sys = direct_product([single_cycle(3), single_cycle(4)])
    lhs, rhs, ok = kac_certificate(sys, [0])
    assert ok
    assert lhs == elem([1, 1, 1, 0, 0, 0, 0])


def test_kac_refuses_non_ergodic_with_diagnostic():
    merged = with_single_block(direct_product([single_cycle(2), single_cycle(2)]))
    with pytest.raises(NotConditionallyErgodic) as info:
        kac_certificate(merged, [0])
    assert "splits" in str(info.value)


def test_kac_randomized_exact():
    rng = random.Random(23)
    for seed in range(80):
        sys = random_system(RandomSpec(seed=seed, ergodic=True))
        p = random_component(rng, sys.size, nonempty=True)
        _, _, ok = kac_certificate(sys, p)
        assert ok


def test_kac_scalar_shadow_on_single_cycles():
    """sum_k k |q(p,k)| equals the cycle length when p is inside one cycle."""
    c9 = single_cycle(9)
    decomp = return_decomposition(c9, [0, 4, 7])
    assert sum(k * len(qk) for k, qk in decomp.parts.items()) == 9


@pytest.mark.parametrize("call", [
    lambda sys: kac_certificate(sys, {5}),
    lambda sys: return_decomposition(sys, {-1}),
    lambda sys: check_recurrent(sys, {2}, {0}),
    lambda sys: check_recurrent(sys, {0}, {-1}),
    lambda sys: q_component(sys, {5}, 1),
    # A negative index would otherwise wrap to the last point of Omega.
    lambda sys: q_component(sys, {-1}, 1),
    lambda sys: first_return_time(sys, {-1}),
    lambda sys: disjointness_witnesses(sys, {0, 5}),
], ids=["kac", "decomposition", "recurrent-p", "recurrent-q", "q-component-too-large",
        "q-component-negative", "first-return-time-negative", "disjointness"])
def test_components_off_omega_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call(swap_example())
