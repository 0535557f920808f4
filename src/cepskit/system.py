"""The concrete conditional expectation preserving system on a finite set.

A GroundSystem is (Omega, mu, Pi, tau): a ground set {0,...,N-1}, strictly
positive rational weights, a partition into blocks, and a bijection tau.
It realizes the 4-tuple (E, T, S, e):

* E is the space of rational-valued functions on Omega (lattice.py),
  e the all-ones element;
* T is the partition-conditional expectation: on each block, the
  mu-weighted average (weights need only be positive, no global
  normalization - T uses within-block ratios only);
* S is the Koopman homomorphism S^j f = f o tau^j. On indicator
  elements S^j acts as the set map p -> tau^{-j}(p) = {x : tau^j(x) in p};
  this single sign convention is fixed here and used verbatim by every
  downstream construction.

The CEPS axioms (Te = e, Se = e, TS = T, T strictly positive, S a
surjective Riesz homomorphism) hold exactly when tau is a permutation
fixing every block setwise and the weights are tau-invariant pointwise.
``validate_ceps`` checks this both structurally and extensionally.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, InitVar, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (DimensionError, DomainError, InvalidSystem, MalformedInput,
                     NotConditionallyErgodic)
from .jsontext import dumps_indented
from .lattice import (_INT, ZERO, BlockValues, Component, LatticeElement, _element,
                      checked_component, indicator, jsonable, ones)
from .rationals import as_rational, format_rational


@dataclass(frozen=True)
class Check:
    """One validation item: an axiom name, a verdict, and a witness on failure."""

    name: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]
    # The system the checks ran on (axioms not enforced); None when the
    # pieces were too malformed to build one.
    system: GroundSystem | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "valid": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": jsonable(c.witness)}
                for c in self.checks
            ],
        }


def _distinct(values: Sequence) -> tuple[list[int], dict[int, object]]:
    """The ids of values by index, and each distinct object once by its id.

    Loaded weights share one Fraction per distinct string and generated ones
    one per cycle, so work done per entry of the dict is done once per
    distinct weight; ``map(results.__getitem__, ids)`` spreads it back.
    """
    ids = list(map(id, values))
    return ids, dict(zip(ids, values))


def permutation_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation as forward orbits, each starting at its minimum."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return tuple(out)


@dataclass(frozen=True)
class GroundSystem:
    """(Omega, weights, blocks, tau); immutable after construction.

    Construction enforces well-formedness (tau a permutation, blocks a
    partition, weights positive) unconditionally - the operators are not
    even definable otherwise. The dynamical CEPS axioms (block and weight
    invariance under tau) are enforced too unless ``check_axioms=False``,
    the escape hatch the loader uses for counterexample demos. Either way
    ``structure`` keeps the full ``validate_parts`` report (a refusal's
    InvalidSystem carries it too), and derived facts (cycles, the
    ergodicity defect, the orbit refinement, Omega, e) are computed once and cached.
    """

    size: int
    weights: tuple[Fraction, ...]
    blocks: tuple[Component, ...]
    tau: tuple[int, ...]
    check_axioms: InitVar[bool] = True
    structure: ValidationReport = field(init=False, compare=False, repr=False)

    def __post_init__(self, check_axioms: bool):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "blocks",
                           tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "tau", tuple(self.tau))
        report = validate_parts(self.size, self.weights, self.blocks, self.tau)
        if any(check_axioms or c.name in _WELLFORMED for c in report.failures()):
            raise InvalidSystem(report)
        object.__setattr__(self, "structure", report)

    # -- derived structure (computed once, cached on the instance) --

    @cached_property
    def tau_inverse(self) -> tuple[int, ...]:
        inv = [0] * self.size
        for i, j in enumerate(self.tau):
            inv[j] = i
        return tuple(inv)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        owner = [0] * self.size
        for b, block in enumerate(self.blocks):
            for i in block:
                owner[i] = b
        return tuple(owner)

    @cached_property
    def scaled_weights(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Weights and block masses times the lcm of the weight denominators.

        Both are integers, so block sums of weights need no Fraction
        arithmetic; a ratio of two of them is the ratio of the rationals.
        """
        ids, distinct = _distinct(self.weights)
        scale = lcm(*(w.denominator for w in distinct.values()))
        scaled = {k: w.numerator * (scale // w.denominator) for k, w in distinct.items()}
        weight = tuple(map(scaled.__getitem__, ids))
        mass = tuple(sum(map(weight.__getitem__, block)) for block in self.blocks)
        return weight, mass

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """tau-cycles as forward orbits, each starting at its minimum index."""
        return permutation_cycles(self.tau)

    @cached_property
    def cycle_of(self) -> tuple[int, ...]:
        owner = [0] * self.size
        for c, cyc in enumerate(self.cycles):
            for i in cyc:
                owner[i] = c
        return tuple(owner)

    @cached_property
    def position_in_cycle(self) -> tuple[int, ...]:
        pos = [0] * self.size
        for cyc in self.cycles:
            for k, i in enumerate(cyc):
                pos[i] = k
        return tuple(pos)

    @cached_property
    def unit(self) -> LatticeElement:
        return ones(self.size)

    @cached_property
    def ground_set(self) -> Component:
        return frozenset(range(self.size))

    def component(self, indices: Iterable[int]) -> Component:
        """indices as a component of e; DimensionError for a non-int or off Omega."""
        return checked_component(self.size, indices)

    # -- point maps --

    def tau_power(self, j: int, i: int) -> int:
        """tau^j(i) for any integer j, via the cycle decomposition."""
        cyc = self.cycles[self.cycle_of[i]]
        return cyc[(self.position_in_cycle[i] + j) % len(cyc)]

    # -- the operators --

    def expectation(self, f: LatticeElement) -> LatticeElement:
        """T f: the weighted average of f over each block, constant on blocks."""
        self._check_element(f)
        weight, mass = self.scaled_weights
        averages = [sum((f[i] * weight[i] for i in block), Fraction(0)) / m
                    for block, m in zip(self.blocks, mass)]
        return LatticeElement(tuple(averages[self.block_of[i]] for i in range(self.size)))

    def component_expectation(self, c: Iterable[int]) -> dict[int, Fraction]:
        """T chi_c, sparsely: {block index: mass of c in the block / block mass}.

        Blocks that c misses are omitted (their entry is 0), so two
        components have equal T exactly when their dicts are equal. Checks the
        members, then runs ``_t_sum``: O(|c|) integer additions, against O(N)
        Fraction operations for the dense ``expectation``.
        """
        return self._t_sum(((1, self.component(c)),))

    def _t_sum(self, terms: Iterable[tuple[int, Component]]) -> dict[int, Fraction]:
        """The one T kernel: T(sum k chi_c) over (k, c) terms, sparsely as above.

        Integer ``scaled_weights`` are summed per block, then one Fraction per
        block. Members are unchecked: callers pass components already checked.
        """
        weight, mass = self.scaled_weights
        sums: dict[int, int] = {}
        for k, c in terms:
            for x in c:
                b = self.block_of[x]
                sums[b] = sums.get(b, 0) + k * weight[x]
        return {b: Fraction(total, mass[b]) for b, total in sums.items()}

    def _ts_equals_t_witness(self, preimage: Sequence[int]) -> int | None:
        """The first m with TS chi_m != T chi_m, or None; S chi_m = chi_{preimage[m]}.

        T chi_x is w_x / mass_b on the block b of x and 0 elsewhere, and
        weights are positive, so T chi_x = T chi_m exactly when x and m
        share their block and their scaled weight. Whole tuples are
        compared first, in C; the index scan runs only on a failure.
        """
        weight, block_of = self.scaled_weights[0], self.block_of
        if (tuple(map(block_of.__getitem__, preimage)) == block_of
                and tuple(map(weight.__getitem__, preimage)) == weight):
            return None
        return next(m for m, x in enumerate(preimage)
                    if block_of[x] != block_of[m] or weight[x] != weight[m])

    def block_element(self, values: Mapping[int, Fraction]) -> BlockValues:
        """The element equal to values[b] on block b, 0 on blocks not listed.

        Holds a block-constant result such as ``component_expectation`` as
        one value per block, the form a certificate side stores; its dense
        ``values`` are built only when read.
        """
        return BlockValues((values.get(b, ZERO) for b in range(len(self.blocks))),
                           self.block_of)

    def block_constant(self, c: Fraction) -> BlockValues:
        """c e, held as the one value c on every block."""
        return BlockValues((c,) * len(self.blocks), self.block_of)

    def koopman(self, j: int, f: LatticeElement) -> LatticeElement:
        """S^j f, i.e. f o tau^j; j may be any integer since tau is a bijection."""
        self._check_element(f)
        if j == 1 or j == -1:
            points = self.tau if j == 1 else self.tau_inverse
            return _element(tuple(map(f.values.__getitem__, points)))
        return _element(tuple(f[self.tau_power(j, i)] for i in range(self.size)))

    def component_image(self, j: int, p: Iterable[int]) -> Component:
        """S^j on the indicator of p, as a set: tau^{-j}(p) = {x : tau^j(x) in p}."""
        p = checked_component(self.size, p)
        return frozenset(self.tau_power(-j, x) for x in p)

    def iterates(self, p: Iterable[int], n: int) -> tuple[Component, ...]:
        """(S^0 p, ..., S^{n-1} p) as sets, each level tau^{-1} of the one before;
        p is checked, the levels built from it are not."""
        levels = [checked_component(self.size, p)]
        for _ in range(n - 1):
            levels.append(frozenset(map(self.tau_inverse.__getitem__, levels[-1])))
        return tuple(levels[:n])

    def cesaro_mean(self, f: LatticeElement) -> LatticeElement:
        """L_S f: the exact order limit of the Cesaro sums of S^k f.

        On a finite system this is the unweighted average of f over each
        tau-orbit (tau-invariance of the weights makes the weighted and
        unweighted orbit averages coincide). L_S is itself a conditional
        expectation, the one whose blocks are the orbits.
        """
        self._check_element(f)
        averages = []
        for cyc in self.cycles:
            averages.append(sum((f[i] for i in cyc), Fraction(0)) / len(cyc))
        return LatticeElement(
            tuple(averages[self.cycle_of[i]] for i in range(self.size))
        )

    @cached_property
    def ergodic_defect(self) -> tuple[Component, tuple[Component, ...]] | None:
        """The first block that is not one whole tau-cycle, with the cycles it
        meets; None iff L_S = T. Built once per system, on first read."""
        for block in self.blocks:
            pieces = sorted({self.cycle_of[i] for i in block})
            if len(pieces) > 1 or len(self.cycles[pieces[0]]) != len(block):
                return block, tuple(frozenset(self.cycles[c]) for c in pieces)
        return None

    def is_conditionally_ergodic(self) -> bool:
        """True iff L_S = T, i.e. every block is a single tau-orbit."""
        return self.ergodic_defect is None

    def require_conditionally_ergodic(self) -> None:
        defect = self.ergodic_defect
        if defect is not None:
            raise NotConditionallyErgodic(*defect)

    @cached_property
    def orbit_refinement(self) -> "GroundSystem":
        """Same (Omega, mu, tau) with blocks replaced by the tau-orbits.

        Built once per system, on first read. The result is conditionally
        ergodic and its conditional expectation is the L_S of this system.
        The axioms are not enforced: the refinement of a valid system is
        valid anyway, and that of a force-admitted one is admitted too, its
        ``structure`` report naming a weight that breaks tau-invariance.
        """
        return replace(self, blocks=self.cycles, check_axioms=False)

    # -- helpers --

    def _check_element(self, f: LatticeElement) -> None:
        if len(f) != self.size:
            raise DimensionError(
                f"element of length {len(f)} on ground set of size {self.size}"
            )

    def indicator(self, members: Iterable[int]) -> LatticeElement:
        return indicator(self.size, members)

    # -- serialization --

    def as_dict(self) -> dict:
        ids, distinct = _distinct(self.weights)
        text = {k: format_rational(w) for k, w in distinct.items()}
        return {
            "size": self.size,
            "weights": list(map(text.__getitem__, ids)),
            "blocks": [sorted(b) for b in self.blocks],
            "tau": list(self.tau),
        }

    def to_json(self) -> str:
        return dumps_indented(self.as_dict())

    def digest(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- validation --

_WELLFORMED = frozenset(
    ["size-positive", "weights-wellformed", "weights-strictly-positive",
     "blocks-partition", "tau-permutation"]
)


def validate_parts(size, weights, blocks, tau) -> ValidationReport:
    """Structural checks on already-parsed pieces; never raises."""
    checks: list[Check] = []

    ok_size = type(size) is int and size >= 1
    checks.append(Check("size-positive", ok_size, None if ok_size else size))
    if not ok_size:
        return ValidationReport(tuple(checks))

    # Each weight check runs once per distinct object. The first bad object
    # in first-occurrence order holds the first bad index.
    ids, distinct = _distinct(weights)
    ok_w = (
        len(weights) == size
        and all(isinstance(w, Fraction) for w in distinct.values())
    )
    checks.append(
        Check("weights-wellformed", ok_w,
              None if ok_w else f"expected {size} rationals, got {len(weights)}")
    )
    # A Fraction's sign is its numerator's; int comparisons are much cheaper.
    bad = [k for k, w in distinct.items() if w.numerator <= 0] if ok_w else []
    ok_pos = ok_w and not bad
    witness = ids.index(bad[0]) if bad else None
    checks.append(Check("weights-strictly-positive", ok_pos, witness))

    covered: set[int] = set()
    ok_blocks = len(blocks) > 0
    witness = None if ok_blocks else "no blocks"
    for block in blocks:
        if not block or not all(type(i) is int and 0 <= i < size for i in block):
            try:
                witness = sorted(block)
            except TypeError:  # members that do not compare, such as 0 and "a"
                witness = sorted(map(repr, block))
            ok_blocks = False
            break
        if covered & set(block):
            ok_blocks, witness = False, sorted(covered & set(block))
            break
        covered |= set(block)
    # Members are in range and disjoint, so a short count means a gap.
    if ok_blocks and len(covered) != size:
        ok_blocks, witness = False, next(i for i in range(size) if i not in covered)
    checks.append(Check("blocks-partition", ok_blocks, witness))

    ok_tau = (len(tau) == size and set(map(type, tau)) <= _INT
              and sorted(tau) == list(range(size)))
    checks.append(
        Check("tau-permutation", ok_tau, None if ok_tau else list(tau))
    )

    wellformed = ok_w and ok_pos and ok_blocks and ok_tau
    if not wellformed:
        return ValidationReport(tuple(checks))

    witness = None
    for block in blocks:
        image = frozenset(tau[i] for i in block)
        if image != block:
            witness = sorted(block)
            break
    checks.append(Check("blocks-tau-invariant", witness is None, witness))

    # As tuples first: shared weight objects match by identity, in C.
    witness = None
    if tuple(map(weights.__getitem__, tau)) != tuple(weights):
        witness = next(i for i in range(size) if weights[tau[i]] != weights[i])
    checks.append(Check("weights-tau-invariant", witness is None, witness))

    return ValidationReport(tuple(checks))


def validate_ceps(candidate: Mapping) -> ValidationReport:
    """Validate a raw system description; itemizes failures, never raises.

    The structural checks (permutation, partition, positivity, block and
    weight invariance under tau) are the ``structure`` report of the system
    built from the parsed pieces with the axioms off; pieces too malformed
    to build one are itemized by the full report the refusal carries. A
    built system is also checked extensionally in O(N), without the dense
    operators:

    * Te = e as T chi_Omega = 1 on every block: the scaled weight of every
      point is added to the total of the block ``block_of`` gives it, and
      each total must equal the block's scaled mass. Omega is the ground
      set the library built, so its members are not checked again as a
      caller's component would be.
    * Se = e as tau^{-1}(Omega) = Omega, read off the ``tau_inverse`` table.
    * TS chi_m = T chi_m for every m, comparing block and scaled weight of
      tau^{-1}(m) and m as integers (``GroundSystem._ts_equals_t_witness``).

    The structural and extensional verdicts for TS = T must agree; a
    mismatch is its own failed check. The report carries the system the
    checks ran on, so a loader need not build it again.
    """
    try:
        size, weights, blocks, tau = _parse_parts(candidate)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        # args[0] is the missing key, the offending value or a message.
        return ValidationReport((Check("parseable", False, exc.args[0]),))
    try:
        sys = GroundSystem(size, weights, blocks, tau, check_axioms=False)
    except InvalidSystem as exc:
        return exc.report

    checks = list(sys.structure.checks)
    (weight, mass), block_of = sys.scaled_weights, sys.block_of
    totals = [0] * len(mass)
    for x in range(sys.size):
        totals[block_of[x]] += weight[x]
    checks.append(Check("Te-equals-e", totals == list(mass)))
    checks.append(Check("Se-equals-e", frozenset(sys.tau_inverse) == sys.ground_set))

    witness = sys._ts_equals_t_witness(sys.tau_inverse)
    checks.append(Check("TS-equals-T-extensional", witness is None, witness))

    # The pieces are well formed, so only the two invariance checks can fail.
    checks.append(Check("TS-structural-extensional-agreement",
                        sys.structure.ok == (witness is None)))
    return ValidationReport(tuple(checks), sys)


def _array(value) -> list:
    """weights, blocks, a block or tau: a JSON array, never a string or object."""
    if isinstance(value, list):
        return value
    raise ValueError(value)


def _indices(value) -> list[int]:
    """A block or tau: a JSON array of integers, checked with one type test.

    An array that fails it raises ValueError on its first entry that is not
    an int: a bool, a float, a string, null, an array or an object.
    """
    value = _array(value)
    if set(map(type, value)) <= _INT:
        return value
    raise ValueError(next(i for i in value if type(i) is not int))


def _parse_weights(raw) -> tuple[Fraction, ...]:
    """The weights array, each distinct string parsed once and its Fraction shared.

    Only strings are memoised: anything else (an int, a bool, a float, a list)
    goes through ``as_rational`` on its own, as does the first occurrence of
    each string, so the first bad weight raises the same DomainError.
    """
    parsed: dict[str, Fraction] = {}
    weights = []
    for w in _array(raw):
        if isinstance(w, str):
            value = parsed.get(w)
            if value is None:
                value = parsed[w] = as_rational(w)
        else:
            value = as_rational(w)
        weights.append(value)
    return tuple(weights)


def _parse_parts(candidate: Mapping):
    size = candidate["size"]
    if not isinstance(size, int) or isinstance(size, bool):
        raise DomainError(f"size must be an integer, got {size!r}")
    weights = _parse_weights(candidate["weights"])
    blocks = tuple(frozenset(_indices(block)) for block in _array(candidate["blocks"]))
    tau = tuple(_indices(candidate["tau"]))
    return size, weights, blocks, tau


def from_raw(candidate: Mapping, force: bool = False) -> GroundSystem:
    """Build a GroundSystem from a raw description, validating it once.

    The description is parsed once and put through every check of
    ``validate_ceps`` once; the system returned is the one those checks
    ran on. Invalid systems are refused with InvalidSystem unless ``force``
    is set. ``force`` admits well-formed systems that violate the dynamical
    axioms (for counterexample demos), but never malformed pieces - an
    unparseable entry, a non-permutation tau, blocks that do not partition
    the ground set, nonpositive weights - since the operators are undefined
    there.
    """
    report = validate_ceps(candidate)
    if report.ok or (force and report.system is not None):
        return report.system
    raise InvalidSystem(report)


def read_raw(path) -> dict:
    """Open and decode a system file; the one place a system file is read.

    A path that cannot be read, bytes that are not UTF-8, invalid JSON and
    a top level that is not an object all raise MalformedInput.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            candidate = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise MalformedInput(f"{path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(candidate, dict):
        raise MalformedInput(f"{path} does not hold a system object")
    return candidate


def load(path, force: bool = False) -> GroundSystem:
    """Load a system file (JSON with rationals as "a/b" strings).

    Read once by ``read_raw``, validated once by ``from_raw`` (see there for ``force``).
    """
    return from_raw(read_raw(path), force=force)


def save(sys: GroundSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sys.to_json())
        fh.write("\n")
