"""Exception hierarchy.

The CLI maps these onto its exit-code taxonomy: a TheoremViolation is a
build-breaking defect (exit 1), hypothesis-rejection errors such as
NotConditionallyErgodic and NotAperiodicAtHorizon are expected refusals
(exit 2), and malformed input is exit 3.
"""

from __future__ import annotations


class CepsError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(CepsError):
    """Operands live on ground sets of different sizes."""


class DomainError(CepsError):
    """A parameter is outside the operation's domain (k < 1, eps <= 0, ...)."""


class MalformedInput(CepsError):
    """Input that cannot be read at all: a system file that is missing or
    not a JSON object, or a bad command-line argument."""


class InvalidSystem(CepsError):
    """A raw system description failed validation.

    Carries the full ValidationReport so callers can itemize failures.
    """

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"invalid system: failed checks: {failed}")


class NotConditionallyErgodic(CepsError):
    """The operation requires L_S = T; some block is not exactly one orbit.

    Either the block splits into several orbits, or (on a force-admitted
    system whose blocks are not tau-invariant) it is a proper part of one.
    """

    def __init__(self, block, orbits):
        self.block = frozenset(block)
        self.orbits = tuple(frozenset(o) for o in orbits)
        if len(self.orbits) > 1:
            how = (f"splits into {len(self.orbits)} orbits "
                   f"{[sorted(o) for o in self.orbits]}")
        else:
            how = f"is a proper part of the orbit {sorted(self.orbits[0])}"
        super().__init__(
            f"system is not conditionally ergodic: block {sorted(self.block)} {how}"
        )


class NotAperiodicAtHorizon(CepsError):
    """A cycle is too short for the requested horizon.

    The finite surrogate of aperiodicity: the construction needed every
    cycle length >= `required`, but `cycle` has length `length`.
    """

    def __init__(self, cycle, length, required):
        self.cycle = tuple(cycle)
        self.length = length
        self.required = required
        super().__init__(
            f"not aperiodic at this horizon: cycle {list(self.cycle)} has "
            f"length {length}, construction requires every cycle length >= {required}"
        )


class TheoremViolation(CepsError):
    """An identity the theory guarantees failed exactly; build-breaking."""
