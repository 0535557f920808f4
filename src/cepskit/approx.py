"""Periodic approximation of the Koopman homomorphism.

Given a tower base p with disjoint iterates p, Sp, ..., S^{n-1}p, the
approximating homomorphism is the operator sum

    S' = S P_q + S^{1-n} P_{S^{n-1}p} + P_{e-h},

with h the whole tower and q the tower minus its top level. S' cycles
the tower with period n and is the identity off it. Its point map tau'
and the inverse of tau' are read off the three terms in one pass over
the points, on the levels built once by ``GroundSystem.iterates``: at
each x exactly one term applies (S'e = e, pointwise), and its point is
tau'(x); no point is the image of two (S' chi_m is a coordinate
indicator); and TS' = T holds on every coordinate indicator, checked
through the inverse. The dense operator sum itself is the cross-check
oracle ``oracles.s_prime_operator``. The conditional distance to S is
certified per component u:

    T |(S - S')u| <= eps e,

by its exact supremum over all 2^N components, in closed form and O(N).
The term of x in (S - S')chi_u is chi_u(tau x) - chi_u(tau' x), so it
joins the points tau x and tau' x = sigma(tau x) with sigma = tau' o
tau^{-1}; each point has at most one such edge out and one in, and the
edges of a block are paths and cycles of sigma. Maximising over u is
max-cut on them: every edge is cut except the lightest one of each odd
sigma-cycle whose edges all lie in the block (a 2-cycle is cut whole),
and each block is maximised on its own. The analytic majorant
2Tp + 2T(e-h) is reported alongside as a second exact certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from typing import ClassVar, Iterable

from .errors import DomainError, TheoremViolation
from .lattice import (BlockValues, Component, LatticeElement, _element, as_component,
                      band_project)
from .rationals import as_rational, format_rational
from .system import GroundSystem, permutation_cycles
from .tower import BoundCertificate, build_tower_eps


@dataclass(frozen=True)
class DistanceCertificate:
    """T|(S-S')u| <= eps e for every component u, by its exact supremum."""

    mode: ClassVar[str] = "closed-form"
    eps: Fraction
    majorant: BoundCertificate  # 2Tp + 2T(e-h) <= eps e, exact
    worst_observed: BlockValues  # sup over all u of T|(S-S')u|, per block
    components_checked: int  # sigma-edges examined: the points where tau != tau'
    holds: bool  # worst_observed <= eps e

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "eps": format_rational(self.eps),
            "majorant": self.majorant.as_dict(),
            "worst_observed": self.worst_observed.formatted(),
            "components_checked": self.components_checked,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class PeriodicApproximation:
    tau_prime: tuple[int, ...]
    period_bound: int  # n; every tau'-cycle has length <= n
    base: Component  # p, the tower base
    tower: Component  # h = join_{i<n} S^i p
    tower_minus_top: Component  # q = join_{i<=n-2} S^i p
    eps: Fraction
    certificate: DistanceCertificate
    cycle_lengths: dict[int, int] = field(repr=False, compare=False)  # by length

    def cycle_length_histogram(self) -> dict[int, int]:
        return dict(self.cycle_lengths)

    def as_dict(self) -> dict:
        return {
            "tau_prime": list(self.tau_prime),
            "period_bound": self.period_bound,
            "p": sorted(self.base),
            "h": sorted(self.tower),
            "q": sorted(self.tower_minus_top),
            "eps": format_rational(self.eps),
            "cycle_length_histogram": {
                str(k): v for k, v in self.cycle_length_histogram().items()
            },
            "certificate": self.certificate.as_dict(),
        }


def s_prime_apply(approx: PeriodicApproximation, f: LatticeElement) -> LatticeElement:
    """S' f via the extracted point map: (S'f)(x) = f(tau'(x))."""
    if len(f) != len(approx.tau_prime):
        raise DomainError(
            f"element of length {len(f)} under a map on {len(approx.tau_prime)} points"
        )
    return _element(tuple(map(f.values.__getitem__, approx.tau_prime)))


def build_s_prime(
    sys: GroundSystem,
    p: Iterable[int],
    n: int,
    eps=None,
) -> PeriodicApproximation:
    """Assemble S' over the tower base p with period bound n.

    One pass over the points reads tau' and its inverse off the three
    terms of S' and checks S'e = e, that every S' chi_m is a coordinate
    indicator, and TS' = T; a failure is a ``TheoremViolation``.

    When eps is omitted it defaults to the largest coordinate of the
    analytic majorant 2Tp + 2T(e-h), which the construction always
    satisfies; pass an explicit eps to certify a tighter target.
    """
    p = sys.component(p)
    if n < 2:
        raise DomainError(f"period bound must be >= 2, got {n}")
    if n > sys.size:
        # n nonempty levels cannot be disjoint in fewer than n points.
        raise DomainError(f"period bound {n} exceeds |Omega| = {sys.size}")
    if not p:
        raise DomainError("tower base p must be nonzero")
    levels = sys.iterates(p, n)
    h = frozenset().union(*levels)
    if sum(len(l) for l in levels) != len(h):
        raise DomainError(
            f"iterates S^0..S^{n-1} of {sorted(p)} are not pairwise disjoint"
        )
    q = frozenset().union(*levels[: n - 1])
    complement = sys.ground_set() - h

    # tau' and its inverse in one pass over the three terms of S'. At x the
    # term S P_q applies when tau x is in q, S^{1-n} P_{S^{n-1}p} when x is
    # in p, and P_{e-h} when x is off h; their count is the S'e = e
    # computation at x, and the point of the one that applies is tau'(x).
    # Then S' chi_m = chi_x for the x with tau'(x) = m: a second such x
    # means S' chi_m is not a coordinate indicator.
    tau = sys.tau
    tau_prime, preimage = [0] * sys.size, [-1] * sys.size
    for x in range(sys.size):
        terms = (tau[x] in q) + (x in p) + (x in complement)
        if terms != 1:
            raise TheoremViolation(
                f"indicator terms fail to partition unity at point {x} "
                f"(sum = {terms})"
            )
        m = tau[x] if tau[x] in q else sys.tau_power(1 - n, x) if x in p else x
        if preimage[m] != -1:
            raise TheoremViolation(
                f"S' chi_{m} is not a coordinate indicator: it is 1 at {preimage[m]} "
                f"and at {x}"
            )
        tau_prime[x], preimage[m] = m, x
    tau_prime = tuple(tau_prime)

    m = sys._ts_equals_t_witness(preimage)
    if m is not None:
        raise TheoremViolation(f"TS' = T fails on indicator of {m}")

    cycle_lengths = dict(sorted(Counter(map(len, permutation_cycles(tau_prime))).items()))
    if max(cycle_lengths) > n:
        raise TheoremViolation(
            f"tau' has a cycle of length {max(cycle_lengths)} > period bound {n}"
        )

    # 2Tp + 2T(e-h) in one kernel pass.
    majorant_element = sys.block_element(sys._t_sum(((2, p), (2, complement))))
    if eps is None:
        eps = max(majorant_element.per_block)
    eps = as_rational(eps)

    certificate = _certify_distance(sys, tau_prime, majorant_element, eps)
    return PeriodicApproximation(
        tau_prime=tau_prime,
        period_bound=n,
        base=p,
        tower=h,
        tower_minus_top=q,
        eps=eps,
        certificate=certificate,
        cycle_lengths=cycle_lengths,
    )


def distance_profile(
    sys: GroundSystem, approx: PeriodicApproximation, u: Iterable[int]
) -> LatticeElement:
    """T |(S - S')chi_u|: the conditional distance of the two maps on u."""
    chi = sys.indicator(as_component(u))
    via_tau = sys.koopman(1, chi)
    via_tau_prime = s_prime_apply(approx, chi)
    return sys.expectation(abs(via_tau - via_tau_prime))


def _certify_distance(
    sys: GroundSystem,
    tau_prime: tuple[int, ...],
    majorant_element: LatticeElement,
    eps: Fraction,
) -> DistanceCertificate:
    """The exact supremum of T|(S-S')chi_u| over all u, compared with eps e.

    Per block b the supremum is (sum of w_x over x in b with tau x != tau' x,
    minus the lightest w_x of each odd sigma-cycle of length >= 3 whose
    edges all lie in b) / mass_b, where the edge of x starts at tau x. The
    sigma-cycles come from ``permutation_cycles`` of x -> tau^{-1} tau' x:
    each of its cycles is the set of x whose edges form one sigma-cycle,
    and its fixed points are the x with tau x = tau' x, which carry no
    edge. The sums are over the integer ``scaled_weights``; eps is compared
    by cross-multiplication, and the value per block becomes a Fraction
    only on the way out.
    """
    weight, mass = sys.scaled_weights
    inverse, block_of = sys.tau_inverse, sys.block_of
    cut = [0] * len(sys.blocks)
    edges = 0
    for terms in permutation_cycles([inverse[m] for m in tau_prime]):
        if len(terms) < 2:
            continue
        edges += len(terms)
        for x in terms:
            cut[block_of[x]] += weight[x]
        if len(terms) % 2:
            blocks = {block_of[x] for x in terms}
            if len(blocks) == 1:
                cut[blocks.pop()] -= min(weight[x] for x in terms)
    return DistanceCertificate(
        eps=eps,
        majorant=BoundCertificate(
            name="distance-majorant",
            lhs=majorant_element,
            rhs=sys.block_constant(eps),
            relation="<=",
        ),
        worst_observed=BlockValues((Fraction(c, m) for c, m in zip(cut, mass)),
                                   block_of),
        components_checked=edges,
        holds=all(c * eps.denominator <= eps.numerator * m for c, m in zip(cut, mass)),
    )


def surjectivity_preimage(
    sys: GroundSystem, approx: PeriodicApproximation, f: LatticeElement
) -> LatticeElement:
    """The explicit preimage: S' applied to it returns f exactly.

    hat f = P_{e-h} f + P_q S^{-1} f + P_{S^{n-1}p} S^{n-1} f.
    """
    top = approx.tower - approx.tower_minus_top
    off_tower = sys.ground_set() - approx.tower
    return (
        band_project(off_tower, f)
        + band_project(approx.tower_minus_top, sys.koopman(-1, f))
        + band_project(top, sys.koopman(approx.period_bound - 1, f))
    )


def approximate_periodic(sys: GroundSystem, eps) -> PeriodicApproximation:
    """The theorem-driven construction: within conditional distance eps of S.

    Takes n > 4/eps, builds the eps/4-bounded tower (which demands every
    cycle length >= floor(4(n-1)/eps) + 2), and assembles S' over its
    base. The distance certificate must come back clean; anything else is
    a build-breaking defect rather than a data condition.
    """
    eps = as_rational(eps)
    if not 0 < eps < 1:
        raise DomainError(
            f"eps must lie in (0,1), got {format_rational(eps)}"
        )
    n = floor(Fraction(4) / eps) + 1
    tower = build_tower_eps(sys, n, eps / Fraction(4))
    approx = build_s_prime(sys, tower.base, n, eps=eps)
    if not approx.certificate.holds:
        raise TheoremViolation(
            f"distance certificate failed at eps = {format_rational(eps)}: "
            f"worst observed {approx.certificate.worst_observed!r}"
        )
    return approx
