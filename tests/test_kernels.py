"""The component-native kernels against the dense operator oracles.

Each sparse or integer kernel on the production path is compared with the
dense route it replaced: T and S' applied to every coordinate indicator,
the exhaustive scan of the conditional distance over all 2^N components
(itself checked against a Fraction scan), the lattice formula for q(p,k),
the forward-image sweep for recurrence, stepwise images for the iterates
S^i p, the pairwise scan for the disjointness witnesses, the suffix-union
formula for the tower base, stepwise S^j and the per-point reads that the
table-driven point maps replaced, dense T of indicators for every
certificate side, and the definition of N-aperiodicity, by exhaustion over
components, for its cycle-length criterion. The sides are held one value per block
(``BlockValues``): their dense ``values``, their ``holds`` and the Kac
flag must equal the dense formulas and comparisons they replaced.
Systems are drawn from ``random_system`` and from force-admitted
candidates that break the CEPS axioms, all with at most 64 points (16
where the reference is exhaustive over components, 10 where it is doubly
so). A last test reads the imports: the oracles stay independent of the
constructions they check.
"""

import ast
import inspect
import sys as _sys
from fractions import Fraction
from importlib import import_module
from math import floor
from unittest import mock

from hypothesis import Phase, assume, given, settings, strategies as st

from cepskit import recurrence, system
from cepskit.approx import (
    PeriodicApproximation,
    _certify_distance,
    build_s_prime,
    s_prime_apply,
)
from cepskit.errors import (CepsError, DomainError, NotConditionallyErgodic,
                            TheoremViolation)
from cepskit.generators import RandomSpec, random_system, single_cycle
from cepskit.lattice import BlockValues, LatticeElement, band_project, elem, indicator
from cepskit.oracles import (
    block_average,
    brute_component_image,
    brute_koopman,
    first_return_sets,
    forward_image_union,
    n_aperiodic_definitional,
    q_component,
    s_prime_operator,
    scan_components,
)
from cepskit.recurrence import (
    ReturnDecomposition,
    check_recurrent,
    disjointness_witnesses,
    kac_certificate,
    max_cycle_length_meeting,
    return_decomposition,
)
from cepskit.rationals import format_rational
from cepskit.system import (Check, GroundSystem, permutation_cycles, validate_ceps,
                            validate_parts)
from cepskit.tower import (
    BoundCertificate,
    Tower,
    build_tower,
    build_tower_eps,
    build_tower_eps_ls,
    n_aperiodic,
    proof_chain_identity,
)

# Without the explain phase, which only annotates a failure already found:
# a failing property is reported without a slow extra pass over its example.
PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)
SETTINGS = settings(max_examples=150, deadline=None, phases=PHASES)


@st.composite
def generated_systems(draw) -> GroundSystem:
    ergodic = draw(st.booleans())
    # At most 3 blocks of 1 cycle (ergodic) or 3 cycles: never above 64 points.
    spec = RandomSpec(
        seed=draw(st.integers(0, 2**32)),
        num_blocks=(1, 3),
        cycle_lengths=(1, 16) if ergodic else (1, 7),
        ergodic=ergodic,
    )
    return random_system(spec)


@st.composite
def raw_candidates(draw, wellformed: bool = False) -> dict:
    """A generated system's description, often with one piece changed.

    With ``wellformed`` set, the changes keep tau a permutation, the blocks
    a partition and the weights positive; otherwise they may also
    duplicate a tau entry or zero a weight.
    """
    raw = draw(generated_systems()).as_dict()
    size = raw["size"]
    kinds = ["none", "weight", "tau", "blocks", "arbitrary"]
    if not wellformed:
        kinds += ["tau-duplicate", "zero-weight"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, size - 1))
    j = draw(st.integers(0, size - 1))
    if kind == "weight":
        raw["weights"][i] = f"{draw(st.integers(1, 9))}/{draw(st.integers(1, 9))}"
    elif kind == "tau":
        raw["tau"][i], raw["tau"][j] = raw["tau"][j], raw["tau"][i]
    elif kind == "blocks":
        # Move point i into a new block of its own, or into the block of j.
        blocks = [[x for x in b if x != i] for b in raw["blocks"]]
        blocks = [b for b in blocks if b]
        target = next((b for b in blocks if j in b), None)
        if target is None or i == j:
            blocks.append([i])
        else:
            target.append(i)
        raw["blocks"] = blocks
    elif kind == "arbitrary":
        raw["tau"] = draw(st.permutations(range(size)))
        labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        raw["blocks"] = [[x for x in range(size) if labels[x] == b]
                         for b in sorted(set(labels))]
        raw["weights"] = [f"{draw(st.integers(1, 6))}/{draw(st.integers(1, 6))}"
                          for _ in range(size)]
    elif kind == "tau-duplicate" and size > 1:
        raw["tau"][i] = raw["tau"][(i + 1) % size]
    elif kind == "zero-weight":
        raw["weights"][i] = "0"
    return raw


# Generated systems and force-admitted ones that may break the axioms.
systems = st.one_of(
    generated_systems(),
    raw_candidates(wellformed=True).map(lambda raw: validate_ceps(raw).system),
)


@st.composite
def small_systems(draw) -> GroundSystem:
    """At most 16 points: generated ergodic and non-ergodic systems, and
    force-admitted ones with tau swapped across two blocks or weights changed."""
    kind = draw(st.sampled_from(["ergodic", "non-ergodic", "tau-swap", "weight"]))
    ergodic = kind != "non-ergodic"
    sys = random_system(RandomSpec(
        seed=draw(st.integers(0, 2**32)),
        num_blocks=(1, 3) if ergodic else (1, 2),
        cycle_lengths=(1, 8) if ergodic else (1, 2),
        ergodic=ergodic,
    ))
    assume(sys.size <= 16)
    raw = sys.as_dict()
    if kind == "tau-swap":
        i = draw(st.integers(0, sys.size - 1))
        others = [j for j in range(sys.size) if sys.block_of[j] != sys.block_of[i]]
        if others:
            j = draw(st.sampled_from(others))
            raw["tau"][i], raw["tau"][j] = raw["tau"][j], raw["tau"][i]
    elif kind == "weight":
        # Some weights or all, so that w_x and w_{tau x} differ on cycles.
        changed = st.sets(st.integers(0, sys.size - 1), min_size=1)
        for i in draw(st.one_of(changed, st.just(range(sys.size)))):
            raw["weights"][i] = f"{draw(st.integers(1, 9))}/{draw(st.integers(1, 9))}"
    return validate_ceps(raw).system


@st.composite
def tau_primes(draw, sys: GroundSystem) -> tuple[int, ...]:
    """The point map of S' over a base with disjoint iterates, sigma o tau for
    an odd cycle sigma inside one block, or any permutation."""
    kind = draw(st.sampled_from(["real", "odd-cycle", "random"]))
    large = [sorted(b) for b in sys.blocks if len(b) >= 3]
    if kind == "odd-cycle" and large:
        block = draw(st.sampled_from(large))
        length = draw(st.sampled_from(range(3, len(block) + 1, 2)))
        points = draw(st.permutations(block))[:length]
        sigma = dict(zip(points, points[1:] + points[:1]))
        return tuple(sigma.get(t, t) for t in sys.tau)
    if kind == "real":
        n = draw(st.integers(2, max(2, max(len(c) for c in sys.cycles))))
        # Points n apart on the cycles of length >= n: n disjoint levels.
        spaced = [cyc[i] for cyc in sys.cycles if len(cyc) >= n
                  for i in range(0, len(cyc) - n + 1, n)]
        p = frozenset(x for x in spaced if draw(st.booleans()))
        if p:
            # A force-admitted system may fail TS' = T; its tau' is the dense one.
            approx = result_or_error(build_s_prime, sys, p, n)
            if isinstance(approx, PeriodicApproximation):
                return approx.tau_prime
            return dense_point_map(sys, p, n)
    return tuple(draw(st.permutations(range(sys.size))))


def subsets(size: int):
    return st.sets(st.integers(0, size - 1), max_size=size)


def components(sys: GroundSystem):
    """Random subsets, and the edge cases: empty, singletons, fixed points, Omega."""
    fixed = frozenset(x for x in range(sys.size) if sys.tau[x] == x)
    return st.one_of(
        subsets(sys.size).map(frozenset),
        st.just(frozenset()),
        st.integers(0, sys.size - 1).map(lambda x: frozenset([x])),
        st.just(fixed),
        st.just(sys.ground_set),
    )


# -- references: the dense loops the kernels replaced --

def dense_validate(candidate) -> tuple[Check, ...]:
    """validate_ceps with TS = T checked by dense T and S on every indicator."""
    try:
        size, weights, blocks, tau = system._parse_parts(candidate)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        return (Check("parseable", False, exc.args[0]),)
    checks = list(validate_parts(size, weights, blocks, tau).checks)
    by_name = {c.name: c for c in checks}
    if not all(n in by_name and by_name[n].passed for n in system._WELLFORMED):
        return tuple(checks)
    sys = GroundSystem(size, weights, blocks, tau, check_axioms=False)
    e = sys.unit
    checks.append(Check("Te-equals-e", sys.expectation(e) == e))
    checks.append(Check("Se-equals-e", sys.koopman(1, e) == e))
    witness = None
    for m in range(size):
        chi = sys.indicator([m])
        if sys.expectation(sys.koopman(1, chi)) != sys.expectation(chi):
            witness = m
            break
    checks.append(Check("TS-equals-T-extensional", witness is None, witness))
    structural = (by_name["blocks-tau-invariant"].passed
                  and by_name["weights-tau-invariant"].passed)
    checks.append(Check("TS-structural-extensional-agreement",
                        structural == (witness is None)))
    return tuple(checks)


def dense_point_map(sys: GroundSystem, p, n: int) -> tuple[int, ...]:
    """tau' read off the operator sum applied to every coordinate indicator."""
    tau_prime = [-1] * sys.size
    for m in range(sys.size):
        image = s_prime_operator(sys, p, n, sys.indicator([m]))
        preimage = sorted(image.support())
        if len(preimage) != 1 or image[preimage[0]] != 1:
            raise TheoremViolation(
                f"S' chi_{m} is not a coordinate indicator: {image!r}"
            )
        x = preimage[0]
        if tau_prime[x] != -1:
            raise TheoremViolation(f"extracted point map not injective at {x}")
        tau_prime[x] = m
    return tuple(tau_prime)


def dense_ts_prime_equals_t(sys: GroundSystem, tau_prime) -> None:
    for m in range(sys.size):
        chi = sys.indicator([m])
        image = LatticeElement(tuple(chi[tau_prime[x]] for x in range(sys.size)))
        if sys.expectation(image) != sys.expectation(chi):
            raise TheoremViolation(f"TS' = T fails on indicator of {m}")


def fraction_scan(sys: GroundSystem, tau_prime, eps, masks):
    """The distance scan with per-block Fraction sums."""
    diff_points = [x for x in range(sys.size) if sys.tau[x] != tau_prime[x]]
    mass = [sum((sys.weights[i] for i in block), Fraction(0)) for block in sys.blocks]
    n_blocks = len(sys.blocks)
    worst = [Fraction(0)] * n_blocks
    all_ok = True
    checked = 0
    for mask in masks:
        checked += 1
        acc = [Fraction(0)] * n_blocks
        for x in diff_points:
            if (mask >> sys.tau[x] & 1) != (mask >> tau_prime[x] & 1):
                acc[sys.block_of[x]] += sys.weights[x]
        for b in range(n_blocks):
            value = acc[b] / mass[b]
            if value > worst[b]:
                worst[b] = value
            if value > eps:
                all_ok = False
    profile = LatticeElement(tuple(worst[sys.block_of[i]] for i in range(sys.size)))
    return profile, checked, all_ok


def reference_parts(sys: GroundSystem, p) -> dict[int, frozenset]:
    """Every nonzero q(p,k) by the lattice formula, k = 1..longest cycle."""
    parts = {}
    for k in range(1, max_cycle_length_meeting(sys, frozenset(p)) + 1):
        qk = q_component(sys, p, k)
        if qk:
            parts[k] = qk
    return parts


def pairwise_witnesses(sys: GroundSystem, parts) -> list[tuple[int, int, int, int]]:
    """disjointness_witnesses by intersecting every pair of iterates S^i q(p,m)."""
    iterates = {}
    for m, qm in parts.items():
        for i in range(m):
            iterates[(i, m)] = sys.component_image(i, qm)
    bad = []
    keys = sorted(iterates)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            (i, m), (j, n) = keys[a], keys[b]
            if iterates[keys[a]] & iterates[keys[b]]:
                bad.append((i, m, j, n))
    return bad


def dense_t(sys: GroundSystem, c) -> LatticeElement:
    return sys.expectation(sys.indicator(c))


def reference_kac(sys: GroundSystem, p):
    """T n(p) and P_{Tp}e with n(p) from the lattice formula and dense T."""
    sys.require_conditionally_ergodic()
    values = [0] * sys.size
    for k, qk in reference_parts(sys, p).items():
        for x in qk:
            values[x] = k
    lhs = sys.expectation(elem(values))
    rhs = band_project(dense_t(sys, p).support(), sys.unit)
    return lhs, rhs, lhs == rhs


def reference_tower(sys: GroundSystem, p, n: int) -> Tower:
    """build_tower by the suffix unions R_k = sum_{i>=k} q(p,i) and dense T."""
    if n < 1:
        raise DomainError(f"tower height must be >= 1, got {n}")
    sys.require_conditionally_ergodic()
    p = sys.component(p)
    parts = reference_parts(sys, p)
    horizon = max(parts, default=0)
    base = set()
    j = 0
    while n * (j + 1) <= horizon:
        r = frozenset().union(*(q for i, q in parts.items() if i >= n * (j + 1)))
        base |= sys.component_image(n * j, r)
        j += 1
    base = frozenset(base)
    levels = tuple(sys.component_image(i, base) for i in range(n))
    covered = frozenset().union(*levels)
    if sum(len(l) for l in levels) != len(covered):
        raise TheoremViolation(
            f"tower levels over base {sorted(base)} are not pairwise disjoint"
        )
    tp = dense_t(sys, p)
    certificate = BoundCertificate(
        name="tower-mass-lower-bound",
        lhs=dense_t(sys, covered),
        rhs=(band_project(tp.support(), sys.unit) - (n - 1) * tp).pos_part(),
        relation=">=",
    )
    if not certificate.holds:
        raise TheoremViolation(
            f"tower mass bound failed: T(levels) = {certificate.lhs!r} is not >= "
            f"{certificate.rhs!r}"
        )
    return Tower(base=base, height=n, levels=levels,
                 residual=sys.ground_set - covered,
                 bound_certificate=certificate, degenerate=not p)


def dense_holds(lhs, rhs, relation: str) -> bool:
    """A certificate's inequality, coordinate by coordinate on the dense tuples."""
    small, large = (lhs, rhs) if relation == "<=" else (rhs, lhs)
    return all(a <= b for a, b in zip(small.values, large.values, strict=True))


def assert_sides(cert, lhs, rhs) -> None:
    """The certificate's sides expand to the dense lhs and rhs, and holds agrees."""
    assert cert.lhs.values == lhs.values
    assert cert.rhs.values == rhs.values
    assert cert.holds == dense_holds(lhs, rhs, cert.relation)


def outcome(fn, *args):
    """A result, or the class and message of the TheoremViolation raised."""
    try:
        return fn(*args)
    except TheoremViolation as exc:
        return TheoremViolation, str(exc)


def result_or_error(fn, *args):
    """A result, or the class and message of any toolkit error raised."""
    try:
        return fn(*args)
    except CepsError as exc:
        return type(exc), str(exc)


# -- the properties --

@SETTINGS
@given(systems, st.data())
def test_component_expectation_is_dense_t(sys, data):
    c = data.draw(subsets(sys.size))
    sparse = sys.component_expectation(c)
    assert set(sparse) == {sys.block_of[x] for x in c}
    dense = sys.expectation(sys.indicator(c))
    assert tuple(sparse.get(sys.block_of[i], 0) for i in range(sys.size)) \
        == dense.values
    # The kernel behind it, on integer-weighted disjoint terms: T of their sum.
    drawn = data.draw(st.lists(st.tuples(st.integers(-2, 6), subsets(sys.size)),
                               max_size=4))
    terms, taken = [], set()
    for k, members in drawn:
        terms.append((k, frozenset(members - taken)))
        taken |= members
    kernel = sys._t_sum(terms)
    assert set(kernel) == {sys.block_of[x] for x in taken}
    combination = elem([sum(k for k, part in terms if i in part) for i in range(sys.size)])
    assert tuple(kernel.get(sys.block_of[i], 0) for i in range(sys.size)) \
        == sys.expectation(combination).values


def block_values_on(owner):
    """One small rational per block of the partition ``owner``."""
    count = max(owner) + 1
    values = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    return st.lists(values, min_size=count, max_size=count)


@SETTINGS
@given(systems, st.data())
def test_block_values_are_their_dense_expansion(sys, data):
    """Per-block ==, <=, >= and holds agree with the dense tuples, on one
    partition and across the block and cycle partitions."""
    a = data.draw(block_values_on(sys.block_of))
    # b equals a on some blocks, so that < and <= differ
    steps = st.sampled_from([0, 0, Fraction(1, 3), Fraction(-1, 2)])
    b = [x + data.draw(steps) for x in a]
    c = data.draw(block_values_on(sys.cycle_of))
    # (block-valued, dense) for a and b on the blocks and c on the cycles
    elements = [(BlockValues(per, owner), LatticeElement(tuple(per[o] for o in owner)))
                for per, owner in ((a, sys.block_of), (b, sys.block_of),
                                   (c, sys.cycle_of))]
    for v, d in elements:
        assert v.values == d.values and list(v) == list(d) and len(v) == sys.size
        assert v.formatted() == [format_rational(t) for t in d]
        assert hash(v) == hash(d) and repr(v) == repr(d)
    for left, dl in elements:
        for right, dr in elements:
            for r in (right, dr):  # block by block, and against the dense form
                assert (left == r) == (r == left) == (dl.values == dr.values)
                assert (left <= r) == (r >= left) == dense_holds(dl, dr, "<=")
                assert (left >= r) == (r <= left) == dense_holds(dl, dr, ">=")
            for relation in ("<=", ">="):
                cert = BoundCertificate("sides", left, right, relation)
                assert cert.holds == dense_holds(dl, dr, relation)
    # The same values on renumbered blocks expand to their own dense view,
    # and the first element's cached view is still its own.
    order = data.draw(st.permutations(range(len(a))))
    renumbered = BlockValues(a, tuple(order[o] for o in sys.block_of))
    assert renumbered.values == tuple(a[order[o]] for o in sys.block_of)
    assert elements[0][0].values == elements[0][1].values


@SETTINGS
@given(systems, st.data())
def test_tau_prime_is_operator_sum_on_indicators(sys, data):
    """build_s_prime's tau' is S' applied to every coordinate indicator when
    the iterates are disjoint (or its refusal is the dense TS' = T refusal),
    and both refuse when they are not."""
    p = frozenset(data.draw(st.sets(st.integers(0, sys.size - 1), min_size=1)))
    n = data.draw(st.integers(2, sys.size + 1))
    levels = sys.iterates(p, n)
    result = result_or_error(build_s_prime, sys, p, n)
    dense = outcome(dense_point_map, sys, p, n)
    if sum(map(len, levels)) == len(frozenset().union(*levels)):
        refusal = outcome(dense_ts_prime_equals_t, sys, dense)
        if refusal is None:
            assert result.tau_prime == dense
        else:
            assert result == refusal
    else:
        assert result[0] is DomainError and dense[0] is TheoremViolation


@st.composite
def weight_changed_bases(draw):
    """A generated system, force-admitted with one weight changed or left
    valid, and a base of points n apart on its cycles of length >= n."""
    sys = draw(generated_systems())
    raw = sys.as_dict()
    changed = draw(st.booleans())
    if changed:
        i = draw(st.integers(0, sys.size - 1))
        raw["weights"][i] = f"{draw(st.integers(1, 9))}/{draw(st.integers(1, 9))}"
    sys = validate_ceps(raw).system
    longest = max(len(c) for c in sys.cycles)
    assume(longest >= 2)
    n = draw(st.integers(2, longest))
    spaced = [cyc[i] for cyc in sys.cycles if len(cyc) >= n
              for i in range(0, len(cyc) - n + 1, n)]
    p = frozenset(draw(st.sets(st.sampled_from(spaced), min_size=1)))
    return sys, p, n, changed


@SETTINGS
@given(weight_changed_bases())
def test_ts_prime_refusal_names_the_dense_first_m(case):
    sys, p, n, changed = case
    result = outcome(build_s_prime, sys, p, n)
    expected = outcome(dense_ts_prime_equals_t, sys, dense_point_map(sys, p, n))
    if expected is None:
        assert isinstance(result, PeriodicApproximation)
    else:
        assert changed and result == expected


@SETTINGS
@given(systems, st.data())
def test_integer_scan_is_fraction_scan(sys, data):
    tau_prime = tuple(data.draw(st.permutations(range(sys.size))))
    eps = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=50))
    masks = data.draw(st.lists(st.integers(0, 2**sys.size - 1), max_size=20))
    assert scan_components(sys, tau_prime, eps, masks) \
        == fraction_scan(sys, tau_prime, eps, masks)


@settings(max_examples=400, deadline=None, phases=PHASES)
@given(small_systems(), st.data())
def test_distance_closed_form_is_exhaustive_scan(sys, data):
    tau_prime = data.draw(tau_primes(sys))
    eps = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=20))
    cert = _certify_distance(sys, tau_prime, sys.unit, eps)
    worst, _, all_ok = scan_components(sys, tau_prime, eps, range(1 << sys.size))
    assert cert.worst_observed == worst  # constant on blocks: block by block
    assert cert.holds == all_ok
    assert cert.components_checked == sum(t != tp for t, tp in zip(sys.tau, tau_prime))
    assert cert.mode == "closed-form"


def test_closed_form_weighs_the_term_of_x():
    # A 5-cycle with weights 5, 3, 4, 6, 1 (admitted by force) and
    # sigma = (2 3 4): the sigma-edges are the terms of x = 1, 2, 3, so the
    # lightest weighs w_1 = 3, not w_4 = 1 of the point tau x = 4.
    raw = {"size": 5, "weights": ["5", "3", "4", "6", "1"], "blocks": [[0, 1, 2, 3, 4]],
           "tau": [1, 2, 3, 4, 0]}
    sys = validate_ceps(raw).system
    sigma = {2: 3, 3: 4, 4: 2}
    tau_prime = tuple(sigma.get(t, t) for t in sys.tau)
    cert = _certify_distance(sys, tau_prime, sys.unit, Fraction(1))
    assert cert.worst_observed == Fraction(3 + 4 + 6 - 3, 19) * sys.unit
    assert cert.worst_observed == scan_components(sys, tau_prime, Fraction(1),
                                                  range(1 << 5))[0]


@SETTINGS
@given(raw_candidates())
def test_validate_ceps_is_dense_reference(raw):
    assert validate_ceps(raw).checks == dense_validate(raw)


def test_ts_witness_is_first_failing_point():
    # Blocks {0, 1}, {2}, {3}; tau swaps 1 and 2, so m = 1 is the first
    # point whose TS chi_m leaves its block.
    raw = {"size": 4, "weights": ["1", "1", "1", "1"], "blocks": [[0, 1], [2], [3]],
           "tau": [0, 2, 1, 3]}
    checks = validate_ceps(raw).checks
    assert checks == dense_validate(raw)
    assert Check("TS-equals-T-extensional", False, 1) in checks


@SETTINGS
@given(systems, st.data())
def test_return_decomposition_is_lattice_formula_and_trajectories(sys, data):
    p = data.draw(components(sys))
    parts = return_decomposition(sys, p).parts
    assert parts == reference_parts(sys, p)
    assert parts == first_return_sets(sys, p)
    assert list(parts) == sorted(parts)


@SETTINGS
@given(systems, st.data())
def test_lattice_formula_is_cycle_positions(sys, data):
    """The oracle q(p,k) is the cycle-position part, past the longest cycle too."""
    p = data.draw(components(sys))
    parts = return_decomposition(sys, p).parts
    for k in range(1, max_cycle_length_meeting(sys, p) + 2):
        assert q_component(sys, p, k) == parts.get(k, frozenset())


@SETTINGS
@given(systems, st.data())
def test_check_recurrent_is_forward_image_sweep(sys, data):
    p = data.draw(components(sys))
    q = data.draw(components(sys))
    steps = max(len(c) for c in sys.cycles)
    assert check_recurrent(sys, p, q) == (p <= forward_image_union(sys, q, steps))


@SETTINGS
@given(systems, st.data())
def test_forward_image_union_is_stepwise_images(sys, data):
    q = data.draw(components(sys))
    steps = data.draw(st.integers(0, 2 * sys.size + 2))
    images = [brute_component_image(sys, -k, q) for k in range(1, steps + 1)]
    assert forward_image_union(sys, q, steps) == frozenset().union(*images)


@SETTINGS
@given(systems, st.data())
def test_iterates_are_stepwise_images(sys, data):
    p = data.draw(components(sys))
    n = data.draw(st.integers(0, max(len(c) for c in sys.cycles) + 2))
    assert sys.iterates(p, n) \
        == tuple(brute_component_image(sys, i, p) for i in range(n))


@SETTINGS
@given(systems, st.data())
def test_disjointness_witnesses_are_pairwise_scan(sys, data):
    """The owner map against the pairwise scan, on the real decomposition
    (no violations: the iterates of the parts tile each cycle) and on
    injected parts, which may overlap."""
    p = data.draw(components(sys))
    parts = return_decomposition(sys, p).parts
    assert disjointness_witnesses(sys, p) == pairwise_witnesses(sys, parts) == []
    longest = max(len(c) for c in sys.cycles)
    injected = data.draw(st.dictionaries(
        st.integers(1, longest + 1),
        st.sets(st.integers(0, sys.size - 1), min_size=1).map(frozenset),
        max_size=4))
    fake = ReturnDecomposition(base=frozenset().union(*injected.values()), parts=injected)
    with mock.patch.object(recurrence, "return_decomposition", lambda sys, p: fake):
        assert disjointness_witnesses(sys, p) == pairwise_witnesses(sys, injected)


def test_disjointness_witnesses_on_overlapping_parts():
    # On a 4-cycle, S^0 q(p,1) = S^0 q(p,2) = {0, 1} and S^1 q(p,2) = {3, 0}
    # all hold 0, and the first two share 1 as well: each pair once, in order.
    sys = single_cycle(4)
    parts = {1: frozenset({0, 1}), 2: frozenset({0, 1})}
    fake = ReturnDecomposition(base=frozenset({0, 1}), parts=parts)
    with mock.patch.object(recurrence, "return_decomposition", lambda sys, p: fake):
        assert disjointness_witnesses(sys, {0, 1}) \
            == [(0, 1, 0, 2), (0, 1, 1, 2), (0, 2, 1, 2)]
    assert pairwise_witnesses(sys, parts) == [(0, 1, 0, 2), (0, 1, 1, 2), (0, 2, 1, 2)]


@st.composite
def non_ergodic_multi_block(draw) -> GroundSystem:
    return random_system(RandomSpec(seed=draw(st.integers(0, 2**32)),
                                    num_blocks=(2, 3), cycle_lengths=(1, 7),
                                    ergodic=False))


@SETTINGS
@given(st.one_of(non_ergodic_multi_block(), systems), st.data())
def test_block_average_is_expectation(sys, data):
    values = data.draw(st.lists(st.fractions(max_denominator=9), min_size=sys.size,
                                max_size=sys.size))
    f = LatticeElement(tuple(values))
    assert block_average(sys, f) == sys.expectation(f)


@SETTINGS
@given(systems)
def test_ergodicity_is_one_fact(sys):
    """Ergodic iff no defect iff every block is one tau-cycle; computed once."""
    cycles = [frozenset(c) for c in permutation_cycles(sys.tau)]
    whole = [block in cycles for block in sys.blocks]
    defect = sys.ergodic_defect
    assert sys.is_conditionally_ergodic() == (defect is None) == all(whole)
    assert sys.ergodic_defect is defect
    if defect is not None:
        block, orbits = defect
        assert block == sys.blocks[whole.index(False)]
        assert set(orbits) == {c for c in cycles if c & block}
        error = NotConditionallyErgodic(*defect)
        assert ("splits into" in str(error)) == (len(orbits) > 1)


@SETTINGS
@given(st.one_of(non_ergodic_multi_block(), systems))
def test_orbit_refinement_is_built_once(sys):
    """The cached refinement is the system the constructor builds on the
    cycles, with the same structure report, forced systems included."""
    refined = sys.orbit_refinement
    assert sys.orbit_refinement is refined
    rebuilt = GroundSystem(sys.size, sys.weights, sys.cycles, sys.tau,
                           check_axioms=False)
    assert refined == rebuilt
    assert refined.structure == rebuilt.structure
    assert refined.is_conditionally_ergodic()
    assert sys.ergodic_defect is sys.ergodic_defect


@SETTINGS
@given(systems, st.data())
def test_build_tower_is_suffix_union_formula(sys, data):
    p = data.draw(components(sys))
    n = data.draw(st.integers(0, 9))
    assert result_or_error(build_tower, sys, p, n) \
        == result_or_error(reference_tower, sys, p, n)


@SETTINGS
@given(systems, st.data())
def test_kac_sides_are_dense_t(sys, data):
    p = data.draw(components(sys))
    assert result_or_error(kac_certificate, sys, p) \
        == result_or_error(reference_kac, sys, p)


@SETTINGS
@given(systems, st.data())
def test_proof_chain_sides_are_dense_t(sys, data):
    p = data.draw(components(sys))
    n = data.draw(st.integers(1, 9))

    def reference(sys, p, n):
        covered = reference_tower(sys, p, n).covered
        rhs = LatticeElement((Fraction(0),) * sys.size)
        for i, qi in reference_parts(sys, p).items():
            rhs = rhs + (n * (i // n)) * dense_t(sys, qi)
        lhs = dense_t(sys, covered)
        return lhs, rhs, lhs == rhs

    def chain(sys, p, n):
        return proof_chain_identity(sys, p, build_tower(sys, p, n))

    assert result_or_error(chain, sys, p, n) == result_or_error(reference, sys, p, n)


@SETTINGS
@given(systems, st.data())
def test_tower_eps_certificate_sides_are_dense_t(sys, data):
    n = data.draw(st.integers(1, 4))
    eps = data.draw(st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(1)]))
    tower = result_or_error(build_tower_eps, sys, n, eps)
    if isinstance(tower, tuple):  # refused, e.g. too short a cycle
        return
    horizon = floor((n - 1) / eps) + 1
    p = frozenset(cyc[0] for cyc in sys.cycles)  # the base component c_N
    inner = reference_tower(sys, p, n)
    assert (tower.base, tower.levels, tower.residual) \
        == (inner.base, inner.levels, inner.residual)
    residual, *extras = (tower.bound_certificate, *tower.extra_certificates)
    assert (residual.lhs, residual.rhs) == (dense_t(sys, tower.residual),
                                            eps * sys.unit)
    assert extras[0] == inner.bound_certificate
    assert (extras[1].lhs, extras[1].rhs) == (horizon * dense_t(sys, p), sys.unit)
    if n >= 2:
        assert (extras[2].lhs, extras[2].rhs) \
            == (dense_t(sys, p), (eps / (n - 1)) * sys.unit)
    assert len(extras) == (3 if n >= 2 else 2)


@SETTINGS
@given(systems, st.data())
def test_certificate_sides_expand_to_the_dense_formulas(sys, data):
    """Each block-valued side's values are dense T of the component (or the
    dense formula the side replaced); holds and the Kac flag are the dense
    comparisons."""
    p = data.draw(components(sys))
    n = data.draw(st.integers(1, 5))
    eps = data.draw(st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(1)]))
    kac = result_or_error(kac_certificate, sys, p)
    if isinstance(kac[0], LatticeElement):
        (lhs, rhs, ok), reference = kac, reference_kac(sys, p)
        assert (lhs.values, rhs.values) == (reference[0].values, reference[1].values)
        assert ok == (lhs.values == rhs.values)
    tower = result_or_error(build_tower, sys, p, n)
    if isinstance(tower, Tower):
        reference = reference_tower(sys, p, n).bound_certificate
        assert_sides(tower.bound_certificate, reference.lhs, reference.rhs)
    tower = result_or_error(build_tower_eps, sys, n, eps)
    if isinstance(tower, Tower):
        base = frozenset(cyc[0] for cyc in sys.cycles)  # the base component c_N
        residual, inner, times_horizon, *base_mass = (tower.bound_certificate,
                                                      *tower.extra_certificates)
        assert_sides(residual, dense_t(sys, tower.residual), eps * sys.unit)
        reference = reference_tower(sys, base, n).bound_certificate
        assert_sides(inner, reference.lhs, reference.rhs)
        horizon = floor((n - 1) / eps) + 1
        assert_sides(times_horizon, horizon * dense_t(sys, base), sys.unit)
        for cert in base_mass:
            assert_sides(cert, dense_t(sys, base), (eps / (n - 1)) * sys.unit)
    # A base of points n + 1 apart on cycles long enough has disjoint iterates.
    spaced = [cyc[i] for cyc in sys.cycles if len(cyc) > n
              for i in range(0, len(cyc) - n, n + 1)]
    chosen = frozenset(x for x in spaced if data.draw(st.booleans()))
    approx = result_or_error(build_s_prime, sys, chosen, n + 1)
    if not isinstance(approx, tuple):
        off_tower = sys.ground_set - approx.tower
        majorant = 2 * dense_t(sys, chosen) + 2 * dense_t(sys, off_tower)
        assert_sides(approx.certificate.majorant, majorant, approx.eps * sys.unit)


@SETTINGS
@given(systems, st.data())
def test_ls_bound_sides_are_dense_cesaro_mean(sys, data):
    """L_S(v - levels) <= eps v, held per tau-cycle, against the dense L_S."""
    chosen = data.draw(st.sets(st.sampled_from(sys.cycles), min_size=1))
    v = frozenset().union(*chosen)
    n = data.draw(st.integers(1, 3))
    eps = data.draw(st.sampled_from([Fraction(1, 5), Fraction(1, 2), Fraction(1),
                                     Fraction(3, 2)]))
    tower = result_or_error(build_tower_eps_ls, sys, v, n, eps)
    if isinstance(tower, tuple):  # refused: a short cycle, or an invalid L_S system
        return
    chi_v = sys.indicator(v)
    left = sys.cesaro_mean(chi_v - sys.indicator(tower.covered))
    assert_sides(tower.bound_certificate, left, eps * chi_v)
    # The extra certificates are the epsilon tower's, with L_S for T.
    base = frozenset(cyc[0] for cyc in sys.cycles if cyc[0] in v)
    ls_base = sys.cesaro_mean(sys.indicator(base))
    inner, times_horizon, *base_mass = tower.extra_certificates
    assert_sides(inner, sys.cesaro_mean(sys.indicator(tower.covered)),
                 (band_project(ls_base.support(), sys.unit) - (n - 1) * ls_base).pos_part())
    horizon = floor((n - 1) / eps) + 1
    assert_sides(times_horizon, horizon * ls_base, sys.unit)
    assert len(base_mass) == (n >= 2)
    for cert in base_mass:
        assert_sides(cert, ls_base, (eps / (n - 1)) * sys.unit)


@SETTINGS
@given(systems, st.data())
def test_approx_majorant_is_dense_t(sys, data):
    p = data.draw(components(sys))
    n = data.draw(st.integers(2, 5))
    result = result_or_error(build_s_prime, sys, p, n)
    if isinstance(result, tuple):  # refused or a theorem check failed
        return
    complement = sys.ground_set - result.tower
    majorant = 2 * dense_t(sys, p) + 2 * dense_t(sys, complement)
    assert result.certificate.majorant.lhs == majorant
    assert result.eps == max(majorant)


@SETTINGS
@given(st.one_of(non_ergodic_multi_block(), generated_systems()), st.data())
def test_point_maps_are_stepwise_and_per_point_reads(sys, data):
    """S^j off tau, tau^{-1} or tau_power against stepwise composition; S'
    off tau' against f(tau'x) point by point; P_u and the indicator of u
    against the comprehensions they replaced."""
    f = LatticeElement(tuple(data.draw(st.lists(
        st.fractions(max_denominator=9), min_size=sys.size, max_size=sys.size))))
    span = 2 * sys.size
    for j in (1, -1, data.draw(st.integers(-span, span))):
        assert sys.koopman(j, f) == brute_koopman(sys, j, f)
    n = data.draw(st.integers(2, max(2, max(map(len, sys.cycles)))))
    spaced = [cyc[i] for cyc in sys.cycles if len(cyc) >= n
              for i in range(0, len(cyc) - n + 1, n)]
    p = frozenset(x for x in spaced if data.draw(st.booleans()))
    if p:
        approx = build_s_prime(sys, p, n)
        assert s_prime_apply(approx, f) == LatticeElement(
            tuple(f[approx.tau_prime[x]] for x in range(sys.size)))
    u = data.draw(components(sys))
    zero, one = Fraction(0), Fraction(1)
    assert band_project(u, f) == LatticeElement(
        tuple(a if i in u else zero for i, a in enumerate(f.values)))
    assert indicator(sys.size, u) == LatticeElement(
        tuple(one if i in u else zero for i in range(sys.size)))


@st.composite
def aperiodicity_cases(draw):
    """A generated system of at most 10 points, ergodic or not, a nonzero
    component v (random, a singleton or Omega) and a horizon N in 1..7."""
    ergodic = draw(st.booleans())
    sys = random_system(RandomSpec(seed=draw(st.integers(0, 2**32)),
                                   num_blocks=(1, 2), cycle_lengths=(1, 5),
                                   ergodic=ergodic))
    assume(sys.size <= 10)
    v = draw(st.one_of(
        st.sets(st.integers(0, sys.size - 1), min_size=1).map(frozenset),
        st.integers(0, sys.size - 1).map(lambda x: frozenset([x])),
        st.just(sys.ground_set),
    ))
    return sys, v, draw(st.integers(1, 7))


@SETTINGS
@given(aperiodicity_cases())
def test_aperiodicity_criterion_is_the_definition(case):
    sys, v, horizon = case
    assert n_aperiodic(sys, v, horizon) == n_aperiodic_definitional(sys, v, horizon)


def module_tree(name: str) -> ast.Module:
    return ast.parse(inspect.getsource(import_module(f"cepskit.{name}")))


def imported_modules(name: str) -> set[str]:
    """The modules cepskit.<name>'s source imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(module_tree(name)):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_oracles_import_no_construction_module():
    """oracles.py reads only errors, lattice, system and the standard library,
    no module it cross-checks imports it, tower.py enumerates no subsets, and
    q(p,k) by the lattice formula is an oracle."""
    names = imported_modules("oracles")
    assert {n for n in names if n.startswith(".")} == {".errors", ".lattice", ".system"}
    assert all(n.split(".")[0] in _sys.stdlib_module_names
               for n in names if not n.startswith("."))
    for name in ("lattice", "system", "recurrence", "tower", "approx"):
        assert ".oracles" not in imported_modules(name)
    assert "itertools" not in imported_modules("tower")
    # The lattice formula lives in oracles.py only, and steps tau itself
    # rather than reading the kernels it checks.
    assert "q_component" not in {node.name for node in module_tree("recurrence").body
                                 if isinstance(node, ast.FunctionDef)}
    oracle = ast.parse(inspect.getsource(q_component))
    read = {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    assert "tau" in read and not read & {"component_image", "tau_power"}
