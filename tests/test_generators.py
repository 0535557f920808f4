from fractions import Fraction

import pytest

from cepskit.errors import DomainError
from cepskit.generators import (
    RandomSpec,
    direct_product,
    random_system,
    single_cycle,
    swap_example,
    truncated_counterexample,
    with_single_block,
)
from cepskit.system import validate_ceps


def test_single_cycle_basics():
    one = single_cycle(1)
    assert one.tau == (0,)
    c7 = single_cycle(7)
    assert c7.tau == (1, 2, 3, 4, 5, 6, 0)
    assert c7.weights[0] == Fraction(1, 7)
    assert c7.is_conditionally_ergodic()


def test_single_cycle_weight_rules():
    assert single_cycle(3, Fraction(2, 5)).weights == (Fraction(2, 5),) * 3
    with pytest.raises(DomainError):
        single_cycle(3, [Fraction(1), Fraction(2), Fraction(1)])
    with pytest.raises(DomainError):
        single_cycle(0)


def test_single_cycle_takes_one_weight():
    assert single_cycle(4, "1/3").weights == (Fraction(1, 3),) * 4
    # A list of weights is refused even when its entries are equal.
    with pytest.raises(DomainError, match="^not a rational: "):
        single_cycle(3, [Fraction(1, 3)] * 3)


def test_swap_example_is_two_cycle():
    swap = swap_example()
    assert swap == single_cycle(2)
    assert swap.weights == (Fraction(1, 2), Fraction(1, 2))


def test_direct_product():
    sys = direct_product([single_cycle(7), single_cycle(9)])
    assert sys.size == 16
    assert sys.tau[6] == 0 and sys.tau[7] == 8 and sys.tau[15] == 7
    assert validate_ceps(sys.as_dict()).ok
    assert sys.is_conditionally_ergodic()
    # singleton product is an isomorphic copy
    assert direct_product([single_cycle(5)]) == single_cycle(5)
    with pytest.raises(DomainError):
        direct_product([])


def test_product_ergodicity():
    ergodic = direct_product([single_cycle(3), single_cycle(5)])
    assert ergodic.is_conditionally_ergodic()
    merged = with_single_block(ergodic)
    non_ergodic = direct_product([ergodic, merged])
    assert not non_ergodic.is_conditionally_ergodic()


def test_truncated_counterexample_shape():
    sys = truncated_counterexample(4)
    assert sys.size == 1 + 2 + 3 + 4
    assert sorted(len(c) for c in sys.cycles) == [1, 2, 3, 4]
    assert sys.is_conditionally_ergodic()
    assert validate_ceps(sys.as_dict()).ok


def test_random_system_validity_and_determinism():
    spec = RandomSpec(seed=123, num_blocks=(2, 4), cycle_lengths=(1, 9),
                      weight_denominator_bound=7, ergodic=True)
    first = random_system(spec)
    again = random_system(spec)
    assert first == again
    assert validate_ceps(first.as_dict()).ok
    assert first.is_conditionally_ergodic()


def test_random_system_non_ergodic_by_construction():
    for seed in range(5):
        spec = RandomSpec(seed=seed, ergodic=False)
        assert not random_system(spec).is_conditionally_ergodic()


def test_random_spec_rejects_impossible_ranges():
    with pytest.raises(DomainError):
        RandomSpec(seed=0, num_blocks=(3, 2))
    with pytest.raises(DomainError):
        RandomSpec(seed=0, cycle_lengths=(0, 4))
    with pytest.raises(DomainError):
        RandomSpec(seed=0, weight_denominator_bound=0)


def test_random_system_many_seeds_all_valid():
    for seed in range(40):
        sys = random_system(RandomSpec(seed=seed, ergodic=seed % 2 == 0))
        assert validate_ceps(sys.as_dict()).ok
