"""Independent reference computations for cross-checking.

Everything here recomputes a quantity by brute force - explicit point
trajectories, stepwise operator application, exhaustive enumeration -
without touching the lattice formulas or the cycle-position kernels used
by the constructions: ``return_decomposition`` (first returns as backward
gaps between points of p on a tau-cycle), ``check_recurrent`` (cycles
meeting q), the ``build_tower`` base, ``tau_power``, the per-block T of
``component_expectation`` and the closed-form distance supremum of
``approx``. Only ``tau``, its inverse, the weights and the blocks (and a
caller's tau') are read here, save by ``s_prime_operator``: the operator sum
S' applied densely through ``koopman``, against the point map that
``build_s_prime`` reads off it. The readers are the tests, ``suites`` and the
CLI's ``aperiodic --mode definitional|both``; nothing in the construction
modules imports this one.

Direction of the point flow: the first-return formula
q(p,k) = p ^ S^{-k}p ^ (e - join_{j<k} S^{-j}p), with S^i acting on
components as tau^{-i}, picks out the points of p whose first return
happens under the *inverse* point flow x -> tau^{-1}(x). The walkers
below therefore iterate tau backwards; agreement with the lattice
formula is exactly the cross-check the suites run.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .errors import DomainError
from .lattice import Component, LatticeElement, as_component, band_project
from .system import GroundSystem


def first_return_sets(sys: GroundSystem, p: Iterable[int]) -> dict[int, Component]:
    """The trajectory-simulation first-return decomposition of p.

    Each x in p goes to the set of the first k >= 1 with tau^{-k}(x) in p,
    found by walking.
    """
    p = as_component(p)
    inv = sys.tau_inverse
    sets: dict[int, set[int]] = {}
    for x in p:
        y = inv[x]
        k = 1
        while y not in p:
            y = inv[y]
            k += 1
            if k > sys.size:  # unreachable for a bijection; guards the walk
                raise AssertionError("first-return walk failed to terminate")
        sets.setdefault(k, set()).add(x)
    return {k: frozenset(v) for k, v in sorted(sets.items())}


def brute_koopman(sys: GroundSystem, j: int, f: LatticeElement) -> LatticeElement:
    """S^j f by composing tau (or its inverse) one step at a time."""
    step = sys.tau if j >= 0 else sys.tau_inverse
    values = list(f.values)
    for _ in range(abs(j)):
        values = [values[step[i]] for i in range(sys.size)]
    return LatticeElement(tuple(values))


def brute_component_image(sys: GroundSystem, j: int, p: Iterable[int]) -> Component:
    """S^j on the indicator of p, read off from brute_koopman's support."""
    return brute_koopman(sys, j, sys.indicator(p)).support()


def forward_image_union(sys: GroundSystem, q: Iterable[int], steps: int) -> Component:
    """union_{n=1}^{steps} tau^n(q), by walking each point of q forward.

    A walk stops after ``steps`` steps or on reaching another point of q,
    whose own walk covers the rest; so each point of Omega is stepped over
    at most once.
    """
    q = as_component(q)
    union: set[int] = set()
    for x in q:
        y = x
        for _ in range(steps):
            y = sys.tau[y]
            union.add(y)
            if y in q:
                break
    return frozenset(union)


def block_average(sys: GroundSystem, f: LatticeElement) -> LatticeElement:
    """T f recomputed with explicit per-block weighted sums, one per block."""
    out: list[Fraction] = [Fraction(0)] * sys.size
    for block in sys.blocks:
        num = sum((sys.weights[j] * f[j] for j in block), Fraction(0))
        average = num / sum((sys.weights[j] for j in block), Fraction(0))
        for j in block:
            out[j] = average
    return LatticeElement(tuple(out))


def all_components(size: int) -> Iterator[Component]:
    """Every subset of {0,...,size-1}, empty set first (2^size of them)."""
    for mask in range(1 << size):
        yield frozenset(i for i in range(size) if mask >> i & 1)


def n_aperiodic_definitional(sys: GroundSystem, v: Iterable[int], horizon: int) -> bool:
    """Every nonzero component c <= v has a nonzero u <= c and k >= N with
    q(u,k) nonzero, the k being the keys of ``first_return_sets``.

    Doubly exhaustive, hence refused for |Omega| > 12. ``tower.n_aperiodic``
    is the criterion, and it refuses an empty v and N < 1; this does not.
    """
    v = sys.component(v)
    if sys.size > 12:
        raise DomainError(f"definitional mode is exhaustive and refused for |Omega| = "
                          f"{sys.size} > 12; use criterion mode")
    members = sorted(v)
    subsets = [frozenset(map(members.__getitem__, s))
               for s in all_components(len(members)) if s]
    return all(any(max(first_return_sets(sys, u)) >= horizon for u in subsets if u <= c)
               for c in subsets)


def s_prime_operator(
    sys: GroundSystem, p: Component, n: int, f: LatticeElement
) -> LatticeElement:
    """Apply the operator sum S P_q + S^{1-n} P_{S^{n-1}p} + P_{e-h} to f."""
    levels = [sys.component_image(i, p) for i in range(n)]
    h = frozenset().union(*levels)
    q = frozenset().union(*levels[: n - 1])
    top = levels[n - 1]
    term1 = sys.koopman(1, band_project(q, f))
    term2 = sys.koopman(1 - n, band_project(top, f))
    term3 = band_project(sys.ground_set() - h, f)
    return term1 + term2 + term3


def partial_cesaro_sum(sys: GroundSystem, f: LatticeElement, n: int) -> LatticeElement:
    """(1/n) sum_{k=0}^{n-1} S^k f, computed exactly by walking tau.

    At n = lcm of the cycle lengths this equals ``cesaro_mean`` exactly.
    """
    sys._check_element(f)
    if n < 1:
        raise DomainError(f"partial Cesaro sum needs n >= 1, got {n}")
    totals = [Fraction(0)] * sys.size
    current = list(range(sys.size))  # current[i] = tau^k(i)
    for _ in range(n):
        for i in range(sys.size):
            totals[i] += f[current[i]]
        current = [sys.tau[c] for c in current]
    return LatticeElement(tuple(t / n for t in totals))


def scan_components(sys: GroundSystem, tau_prime, eps, masks):
    """Max of T|(S-S')chi_u| over the given component bitmasks, vs eps.

    (S-S')chi_u is chi_u(tau x) - chi_u(tau' x) at x, so only the points
    where tau and tau' differ contribute: each adds its weight to its block
    when exactly one of tau x, tau' x lies in u. Weights are scaled by the
    lcm of their denominators, so the block sums are integers; the value
    acc_b / mass_b is compared with eps by cross-multiplication. Returns the
    coordinatewise worst profile, the number of masks scanned and whether
    every value was <= eps. Over ``range(1 << size)`` this is the exact
    supremum by exhaustion.
    """
    scale = lcm(*(w.denominator for w in sys.weights))
    weight = [w.numerator * (scale // w.denominator) for w in sys.weights]
    owner = {x: b for b, block in enumerate(sys.blocks) for x in block}
    mass = [sum(weight[x] for x in block) for block in sys.blocks]
    diff = [
        (sys.tau[x], tau_prime[x], owner[x], weight[x])
        for x in range(sys.size)
        if sys.tau[x] != tau_prime[x]
    ]
    limit = [eps.numerator * m for m in mass]
    n_blocks = len(sys.blocks)
    worst = [0] * n_blocks
    all_ok = True
    checked = 0
    for mask in masks:
        checked += 1
        acc = [0] * n_blocks
        for tx, tpx, b, w in diff:
            if (mask >> tx & 1) != (mask >> tpx & 1):
                acc[b] += w
        for b in range(n_blocks):
            value = acc[b]
            if value > worst[b]:
                worst[b] = value
            if value * eps.denominator > limit[b]:
                all_ok = False
    per_block = [Fraction(worst[b], mass[b]) for b in range(n_blocks)]
    profile = LatticeElement(tuple(per_block[owner[x]] for x in range(sys.size)))
    return profile, checked, all_ok
