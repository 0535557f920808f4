"""Desk regressions: the worked examples, reproduced and certified.

Covers the two-point swap system (the epsilon-free tower table), the
failure of the epsilon bound on short cycles (the swap at height 3, and
the truncated direct-product counterexample), and the 7-cycle periodic
approximation fixture. Every expected value here is a frozen exact
rational; the report carries expected and actual side by side.
"""

from __future__ import annotations

from fractions import Fraction

from .approx import build_s_prime, distance_profile
from .errors import NotAperiodicAtHorizon
from .generators import single_cycle, swap_example, truncated_counterexample
from .lattice import band_project, disjoint_join, elem, jsonable
from .tower import build_tower, build_tower_eps
from .recurrence import kac_certificate


def _entry(name, expected, actual, informational=False, note=None):
    item = {
        "name": name,
        "expected": jsonable(expected),
        "actual": jsonable(actual),
        "pass": True if informational else expected == actual,
    }
    if informational:
        item["informational"] = True
    if note:
        item["note"] = note
    return item


def paper_examples_report() -> dict:
    entries = []
    swap = swap_example()
    e = swap.unit
    p = frozenset([0])
    half = Fraction(1, 2)

    tp = swap.expectation(swap.indicator(p))
    entries.append(_entry("swap: Tp", elem([half, half]), tp))

    lhs, rhs, ok = kac_certificate(swap, p)
    entries.append(_entry("swap: Kac Tn(p) = P_Tp e", (e, e, True), (lhs, rhs, ok)))

    # The height-n lower bounds (P_Tp e - (n-1) Tp)^+ for n = 1, 2, >= 3.
    p_tp_e = band_project(tp.support(), e)
    expected_rhs = {1: e, 2: elem([half, half]), 3: elem([0, 0])}
    for n, want in expected_rhs.items():
        got = (p_tp_e - (n - 1) * tp).pos_part()
        entries.append(_entry(f"swap: tower bound rhs, n={n}", want, got))

    # The displayed witnesses q_1 = (1,1), q_2 = (0,1), q_(>=3) = (0,0):
    # disjoint iterates and the displayed masses T(join S^j q_n).
    displayed = {1: frozenset([0, 1]), 2: frozenset([1]), 3: frozenset()}
    expected_mass = {1: e, 2: e, 3: elem([0, 0])}
    for n, q in displayed.items():
        levels = swap.iterates(q, n)
        disjoint = disjoint_join(levels) is not None
        mass = swap.expectation(swap.indicator(frozenset().union(*levels)))
        entries.append(_entry(f"swap: displayed q_{n} iterates disjoint", True, disjoint))
        entries.append(_entry(f"swap: displayed q_{n} mass", expected_mass[n], mass))

    # The constructed towers certify the same masses.
    for n in (1, 2, 3):
        t = build_tower(swap, p, n)
        mass = swap.expectation(swap.indicator(t.covered))
        entries.append(_entry(f"swap: constructed tower mass, n={n}", expected_mass[n], mass))
        entries.append(
            _entry(f"swap: constructed tower bound holds, n={n}", True,
                   t.bound_certificate.holds)
        )

    # At n = 3 disjointness forces q = 0 on two points, so the epsilon
    # bound fails for every eps < 1: checked exhaustively over all q.
    feasible = []
    for mask in range(4):
        q = frozenset(i for i in range(2) if mask >> i & 1)
        if disjoint_join(swap.iterates(q, 3)) is not None:
            feasible.append(q)
    entries.append(_entry("swap: only q=0 has 3 disjoint iterates", [frozenset()],
                          feasible))
    entries.append(
        _entry(
            "swap: eps bound at n=2",
            True,
            True,
            informational=True,
            note="the claim that the eps bound fails for 0<eps<1/2 at n=2 is "
                 "left unresolved: q=(0,1) gives an empty residual at n=2, so "
                 "the bound holds there; failure is demonstrated at n=3",
        )
    )
    try:
        build_tower_eps(swap, 3, Fraction(1, 4))
        entries.append(_entry("swap: tower-eps n=3 refused", "refusal", "accepted"))
    except NotAperiodicAtHorizon as exc:
        entries.append(_entry("swap: tower-eps n=3 refused", "refusal", "refusal",
                              note=str(exc)))

    # Truncated direct-product counterexample: cycles 1..4 under one system;
    # the fixed point blocks every eps-bounded tower of height >= 2.
    product = truncated_counterexample(4)
    try:
        build_tower_eps(product, 2, Fraction(1, 5))
        entries.append(_entry("product 1..4: tower-eps n=2 refused", "refusal",
                              "accepted"))
    except NotAperiodicAtHorizon as exc:
        entries.append(_entry("product 1..4: tower-eps n=2 refused", "refusal",
                              "refusal", note=str(exc)))

    # 7-cycle periodic approximation fixture: tau' = (0 5 6), rest fixed.
    seven = single_cycle(7)
    approx = build_s_prime(seven, frozenset([0]), 3)
    entries.append(_entry("7-cycle: h", frozenset([0, 5, 6]), approx.tower))
    entries.append(_entry("7-cycle: q", frozenset([0, 6]), approx.tower_minus_top))
    entries.append(_entry("7-cycle: tau'", (5, 1, 2, 3, 4, 6, 0), approx.tau_prime))
    entries.append(
        _entry("7-cycle: cycle lengths", {1: 4, 3: 1},
               approx.cycle_length_histogram)
    )
    profile = distance_profile(seven, approx, frozenset([1]))
    entries.append(
        _entry("7-cycle: distance on u={1}", Fraction(2, 7) * seven.unit, profile)
    )

    outcome = "pass" if all(item["pass"] for item in entries) else "fail"
    return {"scenario": "demo-paper-examples", "outcome": outcome, "entries": entries}
