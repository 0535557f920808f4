"""Kakutani-Rokhlin towers over a finite conditional expectation system.

Two constructions are provided. The epsilon-free tower exists for every
conditionally ergodic system: from the first-return decomposition of a
component p, the base

    q = sum_{j>=0} S^{nj} R_{n(j+1)},   R_k = sum_{i>=k} q(p,i)

has n pairwise disjoint iterates q, Sq, ..., S^{n-1}q and satisfies

    T(join_{j<n} S^j q) >= (P_{Tp}e - (n-1) Tp)^+.

The epsilon-bounded tower additionally needs room: true aperiodicity is
unattainable on a finite set, so the construction states its horizon
requirement explicitly ("N-aperiodic": every cycle length >= N, here with
N = floor((n-1)/eps) + 1 and base cycles of length >= N+1). When a cycle
is too short the construction refuses with NotAperiodicAtHorizon - which
is precisely how the direct-product counterexample manifests at finite
truncation; ``n_aperiodic`` is that criterion, proved equal to the
definition in its docstring. The L_S variant for non-ergodic systems is the
same construction on the orbit refinement, whose conditional expectation is
L_S, over the tau-cycles of a component v.

All inequalities are certified with both sides stored verbatim as exact
rationals. The base is read off cycle positions (S^j moves a point j
places back along its tau-cycle), the levels come from
``GroundSystem.iterates``, and T of a component is taken block by block by
the T kernel ``GroundSystem._t_sum``. A caller's p or v is checked once, at
the entry or by ``return_decomposition``; what is built from it is not.
Every side is T of something or a multiple of e, so it is constant on
blocks: it is stored as ``BlockValues`` (per tau-cycle for the L_S tower,
whose blocks are the orbits) and compared in O(#blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import floor
from typing import Iterable, Sequence

from .errors import DomainError, InvalidSystem, NotAperiodicAtHorizon, TheoremViolation
from .lattice import ONE, ZERO, Component, LatticeElement
from .rationals import as_rational, format_rational
from .recurrence import return_decomposition
from .system import Check, GroundSystem, ValidationReport


@dataclass(frozen=True)
class BoundCertificate:
    """An audited inequality: both sides verbatim, plus the direction.

    ``holds`` is decided once, when the certificate is made; sides held
    per block on the same blocks are compared block by block.
    """

    name: str
    lhs: LatticeElement
    rhs: LatticeElement
    relation: str  # "<=" or ">="
    holds: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        holds = self.lhs <= self.rhs if self.relation == "<=" else self.rhs <= self.lhs
        object.__setattr__(self, "holds", holds)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs.formatted(),
            "relation": self.relation,
            "rhs": self.rhs.formatted(),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Tower:
    """Base, its disjoint Koopman iterates, what they miss, and the receipts."""

    base: Component
    height: int
    levels: tuple[Component, ...]  # levels[i] = S^i base as a set
    residual: Component
    bound_certificate: BoundCertificate
    extra_certificates: tuple[BoundCertificate, ...] = ()
    degenerate: bool = False  # empty base requested; theorem vacuously true

    def covered(self) -> Component:
        return frozenset().union(*self.levels) if self.levels else frozenset()

    def verify_against(self, sys: GroundSystem) -> list[str]:
        """Re-check every structural invariant; empty list means all hold."""
        problems = []
        if len(self.levels) != self.height:
            problems.append("level-count")
        for i, level in enumerate(self.levels):
            if level != sys.component_image(i, self.base):
                problems.append(f"level-{i}-not-koopman-image")
        covered = self.covered()
        if sum(len(l) for l in self.levels) != len(covered):
            problems.append("levels-not-disjoint")
        if self.residual != sys.ground_set() - covered:
            problems.append("residual-mismatch")
        for cert in (self.bound_certificate, *self.extra_certificates):
            if not cert.holds:
                problems.append(f"certificate-{cert.name}")
        return problems

    def as_dict(self) -> dict:
        return {
            "base": sorted(self.base),
            "height": self.height,
            "levels": [sorted(l) for l in self.levels],
            "residual": sorted(self.residual),
            "certificate": self.bound_certificate.as_dict(),
            "extra_certificates": [c.as_dict() for c in self.extra_certificates],
            "degenerate": self.degenerate,
        }


def build_tower(sys: GroundSystem, p: Iterable[int], n: int) -> Tower:
    """The epsilon-free tower of height n over the returns of p.

    An empty p yields a degenerate tower (base 0, everything residual)
    flagged as such instead of an error: the theorem is vacuously true and
    callers probing random components should not crash.
    """
    if n < 1:
        raise DomainError(f"tower height must be >= 1, got {n}")
    sys.require_conditionally_ergodic()
    decomp = return_decomposition(sys, p)
    p = decomp.base

    # x in q(p,k) lies in R_{n(j+1)} exactly for 0 <= j < k // n, and
    # S^{nj} moves it n*j places back along its cycle.
    base: set[int] = set()
    for k, qk in decomp.parts.items():
        for x in qk:
            cyc = sys.cycles[sys.cycle_of[x]]
            pos = sys.position_in_cycle[x]
            base.update(cyc[(pos - n * j) % len(cyc)] for j in range(k // n))
    base = frozenset(base)

    levels = sys.iterates(base, n)
    covered = frozenset().union(*levels)
    if sum(len(l) for l in levels) != len(covered):
        raise TheoremViolation(
            f"tower levels over base {sorted(base)} are not pairwise disjoint"
        )
    residual = sys.ground_set() - covered

    # (P_{Tp}e - (n-1)Tp)^+ is max(1 - (n-1) Tp, 0) on the blocks p meets.
    tp = sys._t_sum(((1, p),))
    certificate = BoundCertificate(
        name="tower-mass-lower-bound",
        lhs=sys.block_element(sys._t_sum(((1, covered),))),
        rhs=sys.block_element({b: max(ONE - (n - 1) * t, ZERO) for b, t in tp.items()}),
        relation=">=",
    )
    if not certificate.holds:
        raise TheoremViolation(
            f"tower mass bound failed: T(levels) = {certificate.lhs!r} is not >= "
            f"{certificate.rhs!r}"
        )
    return Tower(
        base=base,
        height=n,
        levels=levels,
        residual=residual,
        bound_certificate=certificate,
        degenerate=not p,
    )


def proof_chain_identity(
    sys: GroundSystem, p: Iterable[int], tower: Tower
) -> tuple[LatticeElement, LatticeElement, bool]:
    """T(join_{k<n} S^k q) against sum_i n*floor(i/n)*T q(p,i), exactly.

    ``tower`` is the caller's ``build_tower(sys, p, n)``; n is its height.
    """
    n = tower.height
    parts = return_decomposition(sys, p).parts
    lhs = sys.block_element(sys._t_sum(((1, tower.covered()),)))
    rhs = sys.block_element(sys._t_sum((n * (i // n), qi) for i, qi in parts.items()))
    return lhs, rhs, lhs == rhs


def n_aperiodic(sys: GroundSystem, v: Iterable[int], horizon: int) -> bool:
    """The finite aperiodicity surrogate at a single horizon N: every
    tau-cycle meeting v has length >= N.

    This criterion is the definition (every nonzero component c <= v has a
    nonzero u <= c and k >= N with q(u,k) nonzero), whose exhaustive form is
    ``oracles.n_aperiodic_definitional``. Take x in v on a cycle of length
    L; then q({x}, L) = {x}. If every cycle meeting v has L >= N, then every
    nonzero c <= v holds such an x, and u = {x}, k = L witness the
    definition for c. If some x in v has L < N, take c = {x}: its only
    nonzero u is {x}, and q({x}, k) is nonzero only at k = L < N, so the
    definition fails.
    """
    v = sys.component(v)
    if not v:
        raise DomainError("n_aperiodic needs a nonzero component v")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    return all(len(sys.cycles[c]) >= horizon for c in {sys.cycle_of[x] for x in v})


def find_base_component(sys: GroundSystem, horizon: int) -> Component:
    """The deterministic c_N: one point (the minimum index) per tau-cycle.

    Requires every cycle length >= N+1; then S^0 c_N, ..., S^N c_N are
    pairwise disjoint and T c_N has full support - the two conclusions the
    maximality argument promises, checked here rather than assumed.
    """
    return _base_component(sys, horizon, sys.cycles)


def _base_component(sys: GroundSystem, horizon: int,
                    cycles: Sequence[tuple[int, ...]]) -> Component:
    """``find_base_component`` over the given tau-cycles only.

    c_N is the minimum point of each given cycle, only those cycles must be
    longer than the horizon, and full support means T c_N is nonzero on
    their blocks.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    sys.require_conditionally_ergodic()
    for cyc in cycles:
        if len(cyc) <= horizon:
            raise NotAperiodicAtHorizon(cyc, len(cyc), horizon + 1)
    c_n = frozenset(cyc[0] for cyc in cycles)

    images = sys.iterates(c_n, horizon + 1)
    if sum(len(im) for im in images) != len(frozenset().union(*images)):
        raise TheoremViolation(
            f"iterates of base component {sorted(c_n)} are not disjoint up to "
            f"horizon {horizon}"
        )
    if len(sys._t_sum(((1, c_n),))) != len(cycles):
        raise TheoremViolation(
            f"T applied to base component {sorted(c_n)} lacks full support"
        )
    return c_n


def build_tower_eps(sys: GroundSystem, n: int, eps) -> Tower:
    """The epsilon-bounded tower: T(residual) <= eps*e, exactly.

    Picks N = floor((n-1)/eps) + 1 (so N > (n-1)/eps), takes the base
    component at that horizon and builds the height-n tower over it. The
    intermediate bounds of the argument - N*Tp <= e, and
    Tp <= eps/(n-1)*e when n >= 2 - are re-verified and attached to the
    tower as extra certificates.
    """
    return _eps_tower(sys, n, eps, sys.cycles, "residual-mass-bound")


def _eps_tower(sys: GroundSystem, n: int, eps, cycles: Sequence[tuple[int, ...]],
               name: str) -> Tower:
    """``build_tower_eps`` over the given tau-cycles, its bound named ``name``.

    The base is ``_base_component`` of the cycles, and the residual bound
    holds T(residual) <= eps on their blocks; over every cycle that is
    T(residual) <= eps*e.
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {format_rational(eps)}")
    if n < 1:
        raise DomainError(f"tower height must be >= 1, got {n}")
    horizon = floor(Fraction(n - 1) / eps) + 1
    p = _base_component(sys, horizon, cycles)
    tower = build_tower(sys, p, n)

    # sys is conditionally ergodic, so each cycle is one block.
    blocks = [sys.block_of[cyc[0]] for cyc in cycles]
    t_residual = sys._t_sum(((1, tower.residual),))
    residual_bound = BoundCertificate(
        name=name,
        lhs=sys.block_element({b: t_residual[b] for b in blocks if b in t_residual}),
        rhs=sys.block_element(dict.fromkeys(blocks, eps)),
        relation="<=",
    )
    if not residual_bound.holds:
        raise TheoremViolation(
            f"residual mass bound failed at eps = {format_rational(eps)}: "
            f"T(residual) = {residual_bound.lhs!r}"
        )
    tp = sys._t_sum(((1, p),))
    extras = [tower.bound_certificate]
    extras.append(
        BoundCertificate(
            name="base-mass-times-horizon",
            lhs=sys.block_element({b: horizon * t for b, t in tp.items()}),
            rhs=sys.block_constant(ONE),
            relation="<=",
        )
    )
    if n >= 2:
        extras.append(
            BoundCertificate(
                name="base-mass-bound",
                lhs=sys.block_element(tp),
                rhs=sys.block_constant(eps / (n - 1)),
                relation="<=",
            )
        )
    for cert in extras:
        if not cert.holds:
            raise TheoremViolation(f"intermediate bound {cert.name} failed")
    return replace(
        tower,
        bound_certificate=residual_bound,
        extra_certificates=tuple(extras),
    )


def build_tower_eps_ls(sys: GroundSystem, v: Iterable[int], n: int, eps) -> Tower:
    """The epsilon-bounded tower under L_S, on an orbit-invariant component v.

    Conditional ergodicity of the ambient system is not required: it is the
    epsilon-bounded tower of the orbit refinement, whose T is L_S, over the
    tau-cycles in v. Its certificate bounds L_S(v - levels) by eps*v, and it
    and the extra certificates cover all of Omega. The refinement needs
    tau-invariant weights on v only, which a forced system may break.
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {format_rational(eps)}")
    v = sys.component(v)
    if not v:
        raise DomainError("v must be a nonzero orbit-invariant component")
    if sys.component_image(1, v) != v:
        raise DomainError(f"{sorted(v)} is not a union of tau-orbits")
    # As tuples first: shared weight objects match by identity, in C.
    weights, tau = sys.weights, sys.tau
    if (tuple(map(weights.__getitem__, map(tau.__getitem__, v)))
            != tuple(map(weights.__getitem__, v))):
        broken = next(x for x in sorted(v) if weights[tau[x]] != weights[x])
        raise InvalidSystem(ValidationReport(
            (Check("weights-tau-invariant", False, broken),)))
    cycles = [cyc for cyc in sys.cycles if cyc[0] in v]
    return _eps_tower(sys.orbit_refinement, n, eps, cycles, "ls-residual-mass-bound")
