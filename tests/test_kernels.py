"""The component-native kernels against the dense operator oracles.

Each sparse or integer kernel on the production path is compared with the
dense route it replaced: T and S' applied to every coordinate indicator,
and a Fraction scan of the conditional distance. Systems are drawn from
``random_system`` and from force-admitted candidates that break the CEPS
axioms, all with at most 64 points.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cepskit import system
from cepskit.approx import (
    _check_ts_prime_equals_t,
    _extract_point_map,
    _scan_components,
    s_prime_operator,
)
from cepskit.errors import DomainError, TheoremViolation
from cepskit.generators import RandomSpec, random_system
from cepskit.lattice import LatticeElement
from cepskit.system import Check, GroundSystem, validate_ceps, validate_parts

SETTINGS = settings(max_examples=150, deadline=None)


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


def subsets(size: int):
    return st.sets(st.integers(0, size - 1), max_size=size)


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
            value = acc[b] / sys.block_mass[b]
            if value > worst[b]:
                worst[b] = value
            if value > eps:
                all_ok = False
    profile = LatticeElement(tuple(worst[sys.block_of[i]] for i in range(sys.size)))
    return profile, checked, all_ok


def outcome(fn, *args):
    """A result, or the class and message of the TheoremViolation raised."""
    try:
        return fn(*args)
    except TheoremViolation as exc:
        return TheoremViolation, str(exc)


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


@SETTINGS
@given(systems, st.data())
def test_point_map_is_operator_sum_on_indicators(sys, data):
    p = frozenset(data.draw(subsets(sys.size)))
    n = data.draw(st.integers(1, sys.size + 1))
    assert outcome(_extract_point_map, sys, p, n) \
        == outcome(dense_point_map, sys, p, n)


@SETTINGS
@given(systems, st.data())
def test_ts_prime_check_is_dense_loop(sys, data):
    tau_prime = tuple(data.draw(st.permutations(range(sys.size))))
    assert outcome(_check_ts_prime_equals_t, sys, tau_prime) \
        == outcome(dense_ts_prime_equals_t, sys, tau_prime)


@SETTINGS
@given(systems, st.data())
def test_integer_scan_is_fraction_scan(sys, data):
    tau_prime = tuple(data.draw(st.permutations(range(sys.size))))
    eps = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=50))
    masks = data.draw(st.lists(st.integers(0, 2**sys.size - 1), max_size=20))
    assert _scan_components(sys, tau_prime, eps, masks) \
        == fraction_scan(sys, tau_prime, eps, masks)


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
