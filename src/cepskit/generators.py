"""System builders: canonical cycles, worked examples, products, random instances.

Every builder returns a system that passes ``validate_ceps``; deliberately
invalid fixtures are not produced here (use ``from_raw(..., force=True)``
for those).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .rationals import as_rational
from .system import GroundSystem


def single_cycle(m: int, weights=None) -> GroundSystem:
    """The cyclic shift on {0,...,m-1}: tau(i) = i+1 mod m, one block.

    Conditionally ergodic by construction. ``weights`` is one rational (an
    int, Fraction or string) put on every point, since tau-invariance of
    the weights forces them equal along the cycle; it defaults to 1/m.
    """
    if m < 1:
        raise DomainError(f"cycle length must be >= 1, got {m}")
    w = Fraction(1, m) if weights is None else as_rational(weights)
    return GroundSystem(
        size=m,
        weights=(w,) * m,
        blocks=(frozenset(range(m)),),
        tau=tuple((i + 1) % m for i in range(m)),
    )


def swap_example() -> GroundSystem:
    """The two-point swap: E = Q x Q, S(x,y) = (y,x), T(x,y) = ((x+y)/2)(1,1).

    The fixture behind the worked-example regression tests.
    """
    return single_cycle(2)


def direct_product(systems: Sequence[GroundSystem]) -> GroundSystem:
    """Disjoint union of ground sets with index offsets.

    Blocks, weights and tau carry over unchanged; per-block conditioning
    makes global weight normalization unnecessary.
    """
    if not systems:
        raise DomainError("direct_product needs at least one system")
    size = sum(s.size for s in systems)
    weights: list[Fraction] = []
    blocks: list[frozenset[int]] = []
    tau: list[int] = []
    offset = 0
    for s in systems:
        weights.extend(s.weights)
        blocks.extend(frozenset(i + offset for i in b) for b in s.blocks)
        tau.extend(t + offset for t in s.tau)
        offset += s.size
    return GroundSystem(size, tuple(weights), tuple(blocks), tuple(tau))


def truncated_counterexample(m_max: int) -> GroundSystem:
    """Product of the single cycles of lengths 1..m_max.

    The finite truncation of the direct-product system that is neither
    periodic nor aperiodic: it stays conditionally ergodic blockwise but
    contains arbitrarily short cycles up to the truncation, so every
    epsilon-bounded tower construction with n >= 2 is refused.
    """
    return direct_product([single_cycle(m) for m in range(1, m_max + 1)])


def with_single_block(sys: GroundSystem) -> GroundSystem:
    """Coarsen the partition to one block covering the whole ground set.

    Valid whenever the input is valid (the union of tau-invariant blocks is
    tau-invariant); not conditionally ergodic as soon as tau has >= 2 cycles.
    """
    return replace(sys, blocks=(range(sys.size),))


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for a random system: same spec, same system."""

    seed: int
    num_blocks: tuple[int, int] = (1, 3)
    cycle_lengths: tuple[int, int] = (1, 8)
    weight_denominator_bound: int = 12
    ergodic: bool = True

    def __post_init__(self):
        for name, (lo, hi) in (
            ("num_blocks", self.num_blocks),
            ("cycle_lengths", self.cycle_lengths),
        ):
            if lo < 1 or hi < lo:
                raise DomainError(f"impossible {name} range ({lo}, {hi})")
        if self.weight_denominator_bound < 1:
            raise DomainError(
                f"weight denominator bound must be >= 1, got "
                f"{self.weight_denominator_bound}"
            )


def random_system(spec: RandomSpec) -> GroundSystem:
    """Generate a CEPS instance from the spec, deterministically.

    Cycles get lengths drawn from the spec's range and per-cycle constant
    positive rational weights with bounded denominator. With
    ``ergodic=True`` each block is exactly one cycle; otherwise every
    block contains at least two cycles, so the result is never
    conditionally ergodic.
    """
    rng = random.Random(spec.seed)
    n_blocks = rng.randint(*spec.num_blocks)
    lo, hi = spec.cycle_lengths

    blocks_of_lengths: list[list[int]] = []
    for _ in range(n_blocks):
        if spec.ergodic:
            blocks_of_lengths.append([rng.randint(lo, hi)])
        else:
            blocks_of_lengths.append(
                [rng.randint(lo, hi) for _ in range(rng.randint(2, 3))]
            )

    weights: list[Fraction] = []
    blocks: list[frozenset[int]] = []
    tau: list[int] = []
    offset = 0
    for lengths in blocks_of_lengths:
        block: list[int] = []
        for m in lengths:
            den = rng.randint(1, spec.weight_denominator_bound)
            num = rng.randint(1, den)
            w = Fraction(num, den)
            weights.extend([w] * m)
            tau.extend(offset + (i + 1) % m for i in range(m))
            block.extend(range(offset, offset + m))
            offset += m
        blocks.append(frozenset(block))
    return GroundSystem(offset, tuple(weights), tuple(blocks), tuple(tau))


def random_component(rng: random.Random, size: int, nonempty: bool = False):
    """A uniformly random subset of {0,...,size-1} from the given rng."""
    while True:
        bits = rng.getrandbits(size)
        members = frozenset(i for i in range(size) if bits >> i & 1)
        if members or not nonempty:
            return members
