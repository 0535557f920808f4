"""First-return machinery: q(p,k), the Poincare decomposition, n(p), Kac.

For a component p of e and k >= 1, the component of p recurrent at
exactly k steps is

    q(p,k) = p ^ S^{-k}p ^ (e - join_{j=1}^{k-1} S^{-j}p),

with the empty join at k = 1 taken as 0. ``q_component`` evaluates this
lattice formula via ``component_image`` and is kept as the reference. The
production routes read the same sets off the cycle decomposition: S^j
acts on components as tau^{-j}, so x lies in q(p,k) exactly when the
previous point of p on the tau-cycle of x sits k positions back (a lone
point of p on its cycle returns after the whole cycle). The trajectory
simulation lives in oracles.py and is used only to cross-check.

The sums are finite here: q(p,k) = 0 once k exceeds the longest tau-cycle
meeting p, because a point returns to p no later than its cycle closes.

A caller's p is checked once, by ``return_decomposition``; its callers read
the checked p as its ``base``. T n(p) = sum_k k T q(p,k) is one pass of the
T kernel ``GroundSystem._t_sum`` over the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .lattice import ONE, Component, LatticeElement, elem
from .system import GroundSystem


def max_cycle_length_meeting(sys: GroundSystem, p: Component) -> int:
    """The horizon bound: longest tau-cycle intersecting p (0 for empty p)."""
    return max((len(sys.cycles[sys.cycle_of[x]]) for x in p), default=0)


def q_component(sys: GroundSystem, p: Iterable[int], k: int) -> Component:
    """The maximal component of p recurrent at exactly k iterates of S."""
    if k < 1:
        raise DomainError(f"recurrence index must be >= 1, got {k}")
    p = sys.component(p)
    result = p & sys.component_image(-k, p)
    for j in range(1, k):
        if not result:
            break
        result -= sys.component_image(-j, p)
    return frozenset(result)


@dataclass(frozen=True)
class ReturnDecomposition:
    """p as the disjoint sum of its first-return components q(p,k)."""

    base: Component
    parts: dict[int, Component]  # k -> q(p,k), nonzero entries only

    @property
    def horizon(self) -> int:
        """Largest k with q(p,k) nonzero; 0 for an empty base."""
        return max(self.parts, default=0)

    def as_dict(self) -> dict:
        return {
            "p": sorted(self.base),
            "parts": {str(k): sorted(v) for k, v in sorted(self.parts.items())},
            "horizon": self.horizon,
        }


def return_decomposition(sys: GroundSystem, p: Iterable[int]) -> ReturnDecomposition:
    """All nonzero q(p,k); their disjoint union is exactly p (Poincare).

    Reads each point's k off the cycle positions of p: the backward gap to
    the previous point of p on its cycle, or the cycle length for a lone
    point. O(|p| log |p|); parts are ordered by ascending k.
    """
    p = sys.component(p)
    on_cycle: dict[int, list[int]] = {}
    for x in p:
        on_cycle.setdefault(sys.cycle_of[x], []).append(sys.position_in_cycle[x])
    parts: dict[int, set[int]] = {}
    for c, positions in on_cycle.items():
        cyc = sys.cycles[c]
        positions.sort()
        previous = positions[-1] - len(cyc)
        for pos in positions:
            parts.setdefault(pos - previous, set()).add(cyc[pos])
            previous = pos
    return ReturnDecomposition(
        base=p, parts={k: frozenset(parts[k]) for k in sorted(parts)}
    )


def first_return_time(sys: GroundSystem, p: Iterable[int]) -> LatticeElement:
    """n(p) = sum_k k q(p,k): the return time at each point of p, 0 off p."""
    values = [0] * sys.size
    for k, qk in return_decomposition(sys, p).parts.items():
        for x in qk:
            values[x] = k
    return elem(values)


def check_recurrent(sys: GroundSystem, p: Iterable[int], q: Iterable[int]) -> bool:
    """Is p recurrent with respect to q, i.e. p <= join_{n>=1} S^{-n} q?

    S^{-n} q = tau^n(q), and the union of tau^n(q) over n = 1..L sweeps out
    the whole tau-cycle of length L through each point of q. So the join
    is the union of the cycles meeting q, and p is recurrent exactly when
    every cycle meeting p also meets q. O(|p| + |q|).
    """
    p = sys.component(p)
    q = sys.component(q)
    meets_q = {sys.cycle_of[x] for x in q}
    return all(sys.cycle_of[x] in meets_q for x in p)


def disjointness_witnesses(
    sys: GroundSystem, p: Iterable[int]
) -> list[tuple[int, int, int, int]]:
    """Violations of S^i q(p,m) ^ S^j q(p,n) = 0, exhaustively up to the horizon.

    Admissible indices: 0 <= i <= m-1, 0 <= j <= n-1, (i,m) != (j,n), over
    the nonzero parts of the decomposition, read off a point -> (i, m) owner
    map in O(|Omega| + violations). Returns the violating (i, m, j, n)
    tuples in sorted order; the lemma says there are none.
    """
    owners: dict[int, list[tuple[int, int]]] = {}
    for m, qm in return_decomposition(sys, p).parts.items():
        for i, level in enumerate(sys.iterates(qm, m)):
            for x in level:
                owners.setdefault(x, []).append((i, m))
    return sorted({a + b for keys in owners.values() for a in keys for b in keys if a < b})


def kac_certificate(
    sys: GroundSystem, p: Iterable[int]
) -> tuple[LatticeElement, LatticeElement, bool]:
    """The Kac identity T n(p) = P_{Tp} e, both sides computed independently.

    Requires conditional ergodicity (the theorem's hypothesis); non-ergodic
    systems are refused with a diagnostic rather than reported as a failed
    identity. For valid input the returned flag is always True - False
    would be a build-breaking defect, not a data condition.
    """
    sys.require_conditionally_ergodic()
    decomp = return_decomposition(sys, p)
    # T n(p) = sum_k k T q(p,k), in one integer pass over the parts.
    lhs = sys.block_element(sys._t_sum(decomp.parts.items()))
    # P_{Tp} e is e on the blocks p meets (weights are positive), 0 elsewhere.
    rhs = sys.block_element({sys.block_of[x]: ONE for x in decomp.base})
    return lhs, rhs, lhs == rhs
