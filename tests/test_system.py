import hashlib
import json
from fractions import Fraction
from enum import IntEnum
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cepskit import system
from cepskit.errors import CepsError, DimensionError, DomainError, InvalidSystem, \
    MalformedInput, NotConditionallyErgodic
from cepskit.generators import (
    direct_product,
    single_cycle,
    swap_example,
    with_single_block,
)
from cepskit.lattice import band_project, elem, indicator, ones
from cepskit.oracles import (block_average, brute_component_image, brute_koopman,
                             partial_cesaro_sum)
from cepskit.rationals import as_rational, format_rational
from cepskit.recurrence import return_decomposition
from cepskit.system import (Check, GroundSystem, from_raw, load, save, validate_ceps,
                            validate_parts)

F = Fraction


def two_two_cycles():
    """tau = (0 1)(2 3) with blocks {{0,1},{2,3}}, uniform weights."""
    return direct_product([single_cycle(2), single_cycle(2)])


# -- validation --

def test_validate_swap_all_pass():
    raw = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0, 1]], "tau": [1, 0]}
    report = validate_ceps(raw)
    assert report.ok, report.failures()


def test_validate_identity_tau_any_blocks():
    raw = {"size": 3, "weights": ["1", "2", "3"], "blocks": [[0, 2], [1]],
           "tau": [0, 1, 2]}
    assert validate_ceps(raw).ok


def test_validate_swap_with_split_blocks_fails():
    raw = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0], [1]],
           "tau": [1, 0]}
    report = validate_ceps(raw)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "blocks-tau-invariant" in failed
    # the extensional oracle sees the same defect, and the verdicts agree
    assert "TS-equals-T-extensional" in failed
    by_name = {c.name: c for c in report.checks}
    assert by_name["TS-structural-extensional-agreement"].passed


def test_validate_itemizes_malformed_pieces():
    raw = {"size": 3, "weights": ["1", "-1", "1"], "blocks": [[0, 1]],
           "tau": [0, 0, 2]}
    report = validate_ceps(raw)
    failed = {c.name for c in report.failures()}
    assert {"weights-strictly-positive", "blocks-partition",
            "tau-permutation"} <= failed


@pytest.mark.parametrize("raw, failed, witness", [
    ({"size": 2, "weights": ["1", "1"], "blocks": [[0, 1]], "tau": [0, 0]},
     "tau-permutation", [0, 0]),
    ({"size": 2, "weights": ["1", "0"], "blocks": [[0, 1]], "tau": [1, 0]},
     "weights-strictly-positive", 1),
    ({"size": 3, "weights": ["1", "1", "1"], "blocks": [[0, 1]], "tau": [1, 0, 2]},
     "blocks-partition", 2),
    ({"size": 3, "weights": ["1", "1", "1"], "blocks": [[0, 1], [1, 2]],
      "tau": [1, 0, 2]},
     "blocks-partition", [1]),
], ids=["tau", "weight", "gap", "overlap"])
def test_malformed_pieces_are_validated_once(monkeypatch, raw, failed, witness):
    calls = []
    real = system.validate_parts
    monkeypatch.setattr(system, "validate_parts",
                        lambda *pieces: calls.append(pieces) or real(*pieces))
    report = validate_ceps(raw)
    assert len(calls) == 1
    # The refusal's report itemizes every well-formedness check, passed or not.
    assert [c.name for c in report.checks] == [
        "size-positive", "weights-wellformed", "weights-strictly-positive",
        "blocks-partition", "tau-permutation"]
    assert report.failures() == (Check(failed, False, witness),)
    # The constructor's refusal carries that same full report; its message
    # names the failed checks only.
    with pytest.raises(InvalidSystem,
                       match=f"^invalid system: failed checks: {failed}$") as info:
        GroundSystem(*system._parse_parts(raw), check_axioms=False)
    assert info.value.report.checks == report.checks


@pytest.mark.parametrize("size", [0, -2])
def test_nonpositive_size_fails_size_positive(size):
    raw = {"size": size, "weights": [], "blocks": [], "tau": []}
    assert validate_ceps(raw).checks == (Check("size-positive", False, size),)
    with pytest.raises(InvalidSystem):
        GroundSystem(size, (), (), (), check_axioms=False)


def test_omega_and_e_are_built_once():
    sys = single_cycle(5)
    assert sys.ground_set is sys.ground_set == frozenset(range(5))
    assert sys.unit is sys.unit == ones(5)


def test_validate_never_raises_on_garbage():
    assert not validate_ceps({"size": "x"}).ok
    assert not validate_ceps({}).ok


def test_from_raw_force_admits_axiom_violations_only():
    bad_axioms = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0], [1]],
                  "tau": [1, 0]}
    with pytest.raises(InvalidSystem):
        from_raw(bad_axioms)
    sys = from_raw(bad_axioms, force=True)
    assert sys.size == 2
    malformed = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0, 1]],
                 "tau": [0, 0]}
    with pytest.raises(InvalidSystem):
        from_raw(malformed, force=True)
    unparseable = dict(malformed, tau=[1.0, 0])
    with pytest.raises(InvalidSystem):
        from_raw(unparseable, force=True)


@pytest.mark.parametrize("field, value, witness", [
    ("blocks", [[0, "1"]], "1"),
    ("tau", [1.0, 0], 1.0),
    # weights, blocks, each block and tau must be JSON arrays.
    ("weights", "11", "11"),
    ("tau", {"0": 1, "1": 0}, {"0": 1, "1": 0}),
    ("blocks", "01", "01"),
    ("blocks", [[0, 1], {}], {}),
])
def test_indices_must_be_json_integers(field, value, witness):
    raw = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0, 1]], "tau": [1, 0]}
    raw[field] = value
    (check,) = validate_ceps(raw).checks
    assert (check.name, check.passed) == ("parseable", False)
    assert check.witness == witness and type(check.witness) is type(witness)


class Point(IntEnum):
    ONE = 1


def test_parser_refuses_int_subclasses():
    raw = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0, 1]],
           "tau": [Point.ONE, 0]}
    assert validate_ceps(raw).checks == (Check("parseable", False, Point.ONE),)


@pytest.mark.parametrize("size", [True, Point.ONE], ids=["bool", "int-enum"])
def test_library_size_must_be_an_int(size):
    """A size equal to 1 but not an int would serialize as another value."""
    pieces = ((F(1),), (frozenset([0]),), (0,))
    (check,) = validate_parts(size, *pieces).checks
    assert check == Check("size-positive", False, size) and check.witness is size
    with pytest.raises(InvalidSystem):
        GroundSystem(size, *pieces)
    with pytest.raises(InvalidSystem):
        single_cycle(size)


# Block members and tau entries are ints, as the parser reads them: pieces
# that are not fail a well-formedness check and the constructor refuses
# them. A block whose members do not sort is witnessed by their sorted reprs.
@pytest.mark.parametrize("blocks, tau, failures", [
    ([{0, "a"}], (1, 0), [("blocks-partition", ["'a'", "0"])]),
    ([{0, 1}], (1, "a"), [("tau-permutation", [1, "a"])]),
    ([{0, 1}], (1.0, 0.0), [("tau-permutation", [1.0, 0.0])]),
    ([{False, True}], (True, False),
     [("blocks-partition", [False, True]), ("tau-permutation", [True, False])]),
    ([{0, Point.ONE}], (Point.ONE, 0),
     [("blocks-partition", [0, Point.ONE]), ("tau-permutation", [Point.ONE, 0])]),
], ids=["block-str", "tau-str", "tau-float", "bools", "int-subclass"])
def test_library_indices_must_be_ints(blocks, tau, failures):
    weights = (F(1, 2), F(1, 2))
    report = validate_parts(2, weights, [frozenset(b) for b in blocks], tau)
    failed = [(c.name, c.witness) for c in report.failures()]
    assert failed == failures
    assert [list(map(type, w)) for _, w in failed] \
        == [list(map(type, w)) for _, w in failures]
    json.dumps(report.as_dict())
    with pytest.raises(InvalidSystem) as info:
        GroundSystem(2, weights, blocks, tau, check_axioms=False)
    assert info.value.report == report


@pytest.mark.parametrize("call", [
    lambda: single_cycle(3).component([True]),
    lambda: return_decomposition(single_cycle(3), {True}),
    lambda: indicator(3, [True]),
    lambda: band_project([True], elem([5, 6, 7])),
    lambda: single_cycle(3).component_image(1, [True]),
    lambda: single_cycle(3).iterates([True], 2),
], ids=["component", "return-decomposition", "indicator", "band-project",
        "component-image", "iterates"])
def test_component_members_must_be_ints(call):
    with pytest.raises(DimensionError, match=r"^component members \[True\] are not ints$"):
        call()


# Strings that parse, strings that do not (decimals, a zero denominator, a
# non-ASCII digit), and non-strings: ints, bools (True == 1 hashes alike),
# floats and unhashable lists.
_weight = st.one_of(
    st.sampled_from(["1/2", "2/4", " 1/2 ", "1", "3", "-1/3", "0", "1/0", "0.5",
                     "1e-1", "+3", "\u0663", "1_0", "\t1/2", "", "abc"]),
    st.integers(-2, 3),
    st.booleans(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def _weight_lists(draw):
    """Weights drawn from a small pool, so most lists repeat some weight."""
    pool = draw(st.lists(_weight, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=30))


@settings(max_examples=300, deadline=None)
@given(weights=_weight_lists())
def test_memoised_weights_match_per_weight_parse(weights):
    """_parse_parts parses each distinct weight string once and shares it.

    The reference parses every weight on its own with as_rational: the values
    agree, and so does the parseable witness of the first bad weight.
    """
    candidate = {"size": max(len(weights), 1), "weights": weights,
                 "blocks": [], "tau": []}
    try:
        expected = tuple(as_rational(w) for w in weights)
    except DomainError as exc:
        expected = Check("parseable", False, exc.args[0])
    try:
        parsed = system._parse_parts(candidate)[1]
    except DomainError as exc:
        assert Check("parseable", False, exc.args[0]) == expected
        assert validate_ceps(candidate).checks == (expected,)
        return
    assert parsed == expected
    assert all(type(w) is Fraction for w in parsed)
    firsts = {}
    for raw, value in zip(weights, parsed):
        if isinstance(raw, str):
            assert firsts.setdefault(raw, value) is value


_entry = st.one_of(st.integers(-2, 5), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=2), st.none(), st.lists(st.integers(0, 2), max_size=2))
_NO_OFFENDER = object()


def _first_offender(blocks, tau):
    """The parseable witness of the per-entry rule: the first non-array block
    or tau, else the first entry that is not an int (bools are not)."""
    for array in (*blocks, tau):
        if not isinstance(array, list):
            return array
        for i in array:
            if not isinstance(i, int) or isinstance(i, bool):
                return i
    return _NO_OFFENDER


@settings(max_examples=300, deadline=None)
@given(blocks=st.lists(st.one_of(st.lists(_entry, max_size=5), _entry), max_size=3),
       tau=st.one_of(st.lists(_entry, max_size=5), st.lists(st.integers(0, 3), max_size=5)))
def test_index_arrays_match_per_entry_parse(blocks, tau):
    """Blocks and tau take one type test per array; the fallback keeps the
    per-entry witness: the same first offending object, and no false refusal."""
    candidate = {"size": 4, "weights": ["1"] * 4, "blocks": blocks, "tau": tau}
    offender = _first_offender(blocks, tau)
    report = validate_ceps(candidate)
    if offender is _NO_OFFENDER:
        assert report.checks[0].name == "size-positive"
        assert system._parse_parts(candidate)[2:] \
            == (tuple(frozenset(b) for b in blocks), tuple(tau))
    else:
        [check] = report.checks
        assert (check.name, check.passed) == ("parseable", False)
        assert check.witness is offender


_shared_pool = [F(1, 2), F(3), F(2, 6), F(5, 7), F(0), F(-1, 3)]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from(_shared_pool), min_size=1, max_size=12),
       data=st.data())
def test_weight_work_is_the_same_for_shared_and_copied_weights(values, data):
    """validate_parts, scaled_weights and digest work once per distinct weight
    object; shared weights, distinct copies and a mix of both give the same
    results, equal to per-point references, nonpositive witness included."""
    size = len(values)
    shared = tuple(values)  # sampled_from repeats its own objects
    copies = tuple(Fraction(w) for w in values)
    mixed = tuple(w if i % 2 else c for i, (w, c) in enumerate(zip(shared, copies)))
    assert len(set(map(id, copies))) == size
    tau = tuple(data.draw(st.permutations(range(size))))
    cut = data.draw(st.integers(1, size))
    blocks = (frozenset(range(cut)), frozenset(range(cut, size)))[:1 + (cut < size)]

    report = system.validate_parts(size, shared, blocks, tau)
    for weights in (copies, mixed):
        assert system.validate_parts(size, weights, blocks, tau) == report
    first_bad = next((i for i, w in enumerate(values) if w <= 0), None)
    assert report.checks[2] == Check("weights-strictly-positive", first_bad is None,
                                     first_bad)
    if first_bad is not None:
        return
    scale = lcm(*(w.denominator for w in values))
    weight = tuple(w.numerator * scale // w.denominator for w in values)
    mass = tuple(sum(weight[i] for i in b) for b in blocks)
    canonical = json.dumps({"size": size, "weights": [format_rational(w) for w in values],
                            "blocks": [sorted(b) for b in blocks], "tau": list(tau)},
                           sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    for weights in (shared, copies, mixed):
        sys = GroundSystem(size, weights, blocks, tau, check_axioms=False)
        assert sys.scaled_weights == (weight, mass)
        assert sys.digest() == digest


@pytest.mark.parametrize("bad", [{2}, {-1}, {0, 5}, {"0"}])
def test_component_refuses_members_off_omega(bad):
    swap = swap_example()
    with pytest.raises(DimensionError):
        swap.component(bad)
    with pytest.raises(DimensionError):
        swap.component_expectation(bad)
    assert swap.component([1, 0]) == frozenset([0, 1])


def test_report_carries_the_system_it_checked():
    raw = swap_example().as_dict()
    assert validate_ceps(raw).system == swap_example()
    assert validate_ceps({"size": "x"}).system is None


@pytest.mark.parametrize("content",
                         [None, "directory", b"\xff\xfe{}", b"{oops", b"[1, 2]"])
def test_load_raises_malformed_input(tmp_path, content):
    path = tmp_path / "sys.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(MalformedInput) as info:
        load(path)
    assert isinstance(info.value, CepsError)
    assert not isinstance(info.value, OSError)


def test_save_load_round_trip(tmp_path):
    sys = direct_product([single_cycle(3), single_cycle(4)])
    path = tmp_path / "sys.json"
    save(sys, path)
    assert load(path) == sys
    data = json.loads(path.read_text())
    assert data["weights"][0] == "1/3"  # "a/b" wire format


# -- conditional expectation --

def test_expectation_swap():
    swap = swap_example()
    assert swap.expectation(elem([1, 0])) == elem(["1/2", "1/2"])
    assert swap.expectation(swap.unit) == swap.unit


def test_expectation_five_cycle_average():
    c5 = single_cycle(5)
    assert c5.expectation(elem([1, 2, 3, 4, 5])) == elem([3, 3, 3, 3, 3])


def test_expectation_is_projection_and_matches_oracle():
    sys = direct_product([single_cycle(3), single_cycle(2)])
    f = elem([1, "1/2", 0, 7, "2/3"])
    tf = sys.expectation(f)
    assert sys.expectation(tf) == tf
    assert tf == block_average(sys, f)


def test_expectation_dimension_error():
    with pytest.raises(DimensionError):
        swap_example().expectation(elem([1, 2, 3]))


# -- Koopman --

def test_koopman_swap():
    swap = swap_example()
    assert swap.koopman(1, elem([3, 7])) == elem([7, 3])


def test_koopman_identity_power():
    c5 = single_cycle(5)
    f = elem([1, 2, 3, 4, 5])
    assert c5.koopman(0, f) == f


def test_koopman_seven_cycle_indicator():
    c7 = single_cycle(7)
    assert c7.koopman(3, c7.indicator([0])) == c7.indicator([4])


def test_koopman_power_law_and_oracle():
    sys = direct_product([single_cycle(5), single_cycle(3)])
    f = elem([1, 0, 2, 0, 3, "1/2", 0, 5])
    for j in (-7, -1, 0, 1, 2, 9):
        assert sys.koopman(j, f) == brute_koopman(sys, j, f)
    assert sys.koopman(2, sys.koopman(3, f)) == sys.koopman(5, f)


def test_component_image():
    swap = swap_example()
    assert swap.component_image(1, [0]) == frozenset([1])
    c7 = single_cycle(7)
    assert c7.component_image(0, c7.ground_set) == c7.ground_set
    assert c7.component_image(5, frozenset()) == frozenset()
    for j in (-3, 2):
        assert c7.component_image(j, [0, 2]) == brute_component_image(c7, j, [0, 2])


# -- Cesaro mean and ergodicity --

def test_cesaro_invariant_element_fixed():
    sys = two_two_cycles()
    f = elem([2, 2, "1/3", "1/3"])  # constant on orbits
    assert sys.cesaro_mean(f) == f


def test_cesaro_swap_and_two_cycles():
    swap = swap_example()
    assert swap.cesaro_mean(elem([1, 0])) == elem(["1/2", "1/2"])
    sys = two_two_cycles()
    assert sys.cesaro_mean(elem([1, 0, 4, 0])) == elem(["1/2", "1/2", 2, 2])


def test_partial_cesaro_matches_exact_limit_at_lcm():
    sys = direct_product([single_cycle(4), single_cycle(6)])
    f = elem([1, 0, 0, 2, 5, 0, 1, 0, 0, "1/2"])
    n = lcm(*map(len, sys.cycles))
    assert n == 12
    assert partial_cesaro_sum(sys, f, n) == sys.cesaro_mean(f)
    assert partial_cesaro_sum(sys, f, n - 1) != sys.cesaro_mean(f)


def test_partial_cesaro_sum_needs_a_positive_n():
    swap = swap_example()
    with pytest.raises(DomainError, match=r"^partial Cesaro sum needs n >= 1, got 0$"):
        partial_cesaro_sum(swap, swap.unit, 0)


def test_conditionally_ergodic_cases():
    assert swap_example().is_conditionally_ergodic()
    ident = GroundSystem(2, (F(1), F(1)), (frozenset([0, 1]),), (0, 1))
    assert not ident.is_conditionally_ergodic()
    merged = with_single_block(two_two_cycles())
    assert not merged.is_conditionally_ergodic()
    # extensional: L_S differs from T on some indicator
    diffs = [m for m in range(4)
             if merged.cesaro_mean(merged.indicator([m]))
             != merged.expectation(merged.indicator([m]))]
    assert diffs


def test_ergodic_defect_names_split_block():
    merged = with_single_block(two_two_cycles())
    block, orbits = merged.ergodic_defect
    assert block == frozenset(range(4))
    assert set(orbits) == {frozenset([0, 1]), frozenset([2, 3])}
    with pytest.raises(NotConditionallyErgodic):
        merged.require_conditionally_ergodic()


def test_orbit_refinement():
    merged = with_single_block(two_two_cycles())
    refined = merged.orbit_refinement
    assert refined.is_conditionally_ergodic()
    assert set(refined.blocks) == {frozenset([0, 1]), frozenset([2, 3])}
    f = elem([1, 0, 4, 0])
    assert refined.expectation(f) == merged.cesaro_mean(f)
    # conditionally ergodic input is a fixed point
    assert swap_example().orbit_refinement == swap_example()
    ident = GroundSystem(2, (F(1), F(1)), (frozenset([0, 1]),), (0, 1),
                         check_axioms=False)
    assert set(ident.orbit_refinement.blocks) == {frozenset([0]), frozenset([1])}


def test_orbit_refinement_of_a_forced_system_is_admitted():
    # Weights that break tau-invariance are kept, and the refinement's
    # structure report says so instead of refusing it.
    pieces = two_two_cycles()
    weights = list(pieces.weights)
    weights[3] += 1
    forced = GroundSystem(pieces.size, weights, pieces.blocks, pieces.tau,
                          check_axioms=False)
    refined = forced.orbit_refinement
    assert refined.weights == forced.weights
    assert set(refined.blocks) == {frozenset([0, 1]), frozenset([2, 3])}
    assert not refined.structure.ok
    assert refined.structure.failures() == (Check("weights-tau-invariant", False, 2),)


def test_ergodic_iff_refinement_fixed():
    for sys in (swap_example(), two_two_cycles(),
                with_single_block(two_two_cycles())):
        same_blocks = set(sys.orbit_refinement.blocks) == set(sys.blocks)
        assert sys.is_conditionally_ergodic() == same_blocks


# -- operator algebra properties --

small_elements = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=8, max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(small_elements, small_elements)
def test_averaging_property(values_f, values_g):
    """T(g*f) = g*T(f) for g constant on blocks (pointwise product)."""
    sys = direct_product([single_cycle(3), single_cycle(5)])
    f = elem(values_f)
    g_raw = elem(values_g)
    g = sys.expectation(g_raw)  # force g into the range of T
    assert sys.expectation(g * f) == g * sys.expectation(f)


@settings(max_examples=20, deadline=None)
@given(small_elements)
def test_ts_power_equals_t(values):
    sys = direct_product([single_cycle(3), single_cycle(5)])
    f = elem(values)
    tf = sys.expectation(f)
    for j in range(-2 * sys.size, 2 * sys.size + 1):
        assert sys.expectation(sys.koopman(j, f)) == tf


@settings(max_examples=30, deadline=None)
@given(small_elements, small_elements)
def test_koopman_is_lattice_homomorphism(values_f, values_g):
    sys = direct_product([single_cycle(4), single_cycle(4)])
    f, g = elem(values_f), elem(values_g)
    assert sys.koopman(1, f.join(g)) == sys.koopman(1, f).join(sys.koopman(1, g))
    assert sys.koopman(1, f.meet(g)) == sys.koopman(1, f).meet(sys.koopman(1, g))


def test_structural_extensional_agreement_on_arbitrary_candidates():
    """The two TS = T checks agree even on axiom-violating candidates."""
    rng = __import__("random").Random(99)
    for _ in range(60):
        n = rng.randint(1, 8)
        tau = list(range(n))
        rng.shuffle(tau)
        cut = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
        blocks, start = [], 0
        for edge in cut + [n]:
            blocks.append(list(range(start, edge)))
            start = edge
        raw = {
            "size": n,
            "weights": [f"{rng.randint(1, 5)}/{rng.randint(1, 5)}"
                        for _ in range(n)],
            "blocks": blocks,
            "tau": tau,
        }
        report = validate_ceps(raw)
        by_name = {c.name: c for c in report.checks}
        assert by_name["TS-structural-extensional-agreement"].passed


def test_block_union_components_invariant():
    """Components that are unions of blocks are fixed by every S^j."""
    from itertools import combinations

    sys = direct_product([single_cycle(3), single_cycle(4), single_cycle(2)])
    for r in range(len(sys.blocks) + 1):
        for chosen in combinations(sys.blocks, r):
            g = frozenset().union(*chosen) if chosen else frozenset()
            for j in range(-5, 6):
                assert sys.component_image(j, g) == g
