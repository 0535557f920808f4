"""Seeded property suites over random systems, with auditable reports.

Each suite draws its systems deterministically from a master seed, runs
one named bundle of exact checks per trial, and aggregates failures with
full reproduction parameters. A failing check always carries a standalone
command line that reruns exactly that trial.

Trials run one after another in trial order, so the report is a
deterministic function of (suite name, trials, seed).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import approx as approx_mod
from . import recurrence, tower
from .generators import RandomSpec, random_component, random_system, single_cycle
from .lattice import LatticeElement
from .oracles import first_return_sets, n_aperiodic_definitional, s_prime_operator
from .system import GroundSystem, validate_ceps

def _trial_system(
    seed: int,
    size_cap: int = 64,
    ergodic: bool = True,
    num_blocks: tuple[int, int] = (1, 4),
    cycle_lengths: tuple[int, int] = (1, 16),
) -> GroundSystem:
    """The shared per-trial generator, redrawing until |Omega| <= size_cap."""
    attempt = seed
    while True:
        spec = RandomSpec(
            seed=attempt,
            num_blocks=num_blocks,
            cycle_lengths=cycle_lengths,
            weight_denominator_bound=12,
            ergodic=ergodic,
        )
        sys = random_system(spec)
        if sys.size <= size_cap:
            return sys
        attempt += 7_919_997  # deterministic redraw


def _random_element(rng: random.Random, size: int) -> LatticeElement:
    return LatticeElement(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size))
    )


def run_trial(suite: str, master_seed: int, index: int) -> list[str]:
    """Run one trial of the named suite; returns failure descriptions."""
    if suite not in _TRIALS:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    rng = random.Random(master_seed * 1_000_003 + index)
    trial_seed = rng.randrange(2**62)
    return _TRIALS[suite](trial_seed, rng)


def _kac_trial(trial_seed: int, rng: random.Random) -> list[str]:
    sys = _trial_system(trial_seed)
    p = random_component(rng, sys.size, nonempty=True)
    problems = []
    if not validate_ceps(sys.as_dict()).ok:
        problems.append("generated system failed validation")
    lhs, rhs, ok = recurrence.kac_certificate(sys, p)
    if not ok:
        problems.append(f"Kac identity failed on p={sorted(p)}: {lhs!r} != {rhs!r}")
    return problems


def _poincare_trial(trial_seed: int, rng: random.Random) -> list[str]:
    sys = _trial_system(trial_seed)
    p = random_component(rng, sys.size, nonempty=True)
    problems = []
    decomp = recurrence.return_decomposition(sys, p)
    union: set[int] = set()
    total = 0
    for qk in decomp.parts.values():
        union |= qk
        total += len(qk)
    if union != p or total != len(p):
        problems.append(f"decomposition of p={sorted(p)} is not a disjoint tiling")
    if decomp.parts != first_return_sets(sys, p):
        problems.append(
            f"lattice-formula q(p,k) disagrees with trajectory oracle on "
            f"p={sorted(p)}"
        )
    if decomp.horizon > recurrence.max_cycle_length_meeting(sys, p):
        problems.append("horizon exceeds the longest cycle meeting p")
    bad = recurrence.disjointness_witnesses(sys, p)
    if bad:
        problems.append(f"iterate disjointness fails at (i,m,j,n) = {bad[0]}")
    for k, qk in decomp.parts.items():
        if not sys.component_image(k, qk) <= p:
            problems.append(f"S^{k} q(p,{k}) is not below p")
    return problems


def _tower_trial(trial_seed: int, rng: random.Random) -> list[str]:
    sys = _trial_system(trial_seed)
    p = random_component(rng, sys.size, nonempty=True)
    n = rng.randint(1, 8)
    problems = []
    t = tower.build_tower(sys, p, n)
    problems.extend(
        f"tower invariant {name} fails (p={sorted(p)}, n={n})"
        for name in t.verify_against(sys)
    )
    lhs, rhs, ok = tower.proof_chain_identity(sys, p, t)
    if not ok:
        problems.append(
            f"proof-chain identity fails (p={sorted(p)}, n={n}): {lhs!r} != {rhs!r}"
        )
    for k in range(1, n):
        if t.base & sys.component_image(k, t.base):
            problems.append(f"base meets its own iterate at k={k}")
    return problems


def _aperiodic_trial(trial_seed: int, rng: random.Random) -> list[str]:
    sys = _trial_system(
        trial_seed,
        size_cap=10,
        ergodic=rng.random() < 0.5,
        num_blocks=(1, 2),
        cycle_lengths=(1, 5),
    )
    problems = []
    v = sys.ground_set()
    for horizon in (1, 2, 3, 5):
        via_def = n_aperiodic_definitional(sys, v, horizon)
        via_crit = tower.n_aperiodic(sys, v, horizon)
        if via_def != via_crit:
            problems.append(
                f"aperiodicity modes disagree at N={horizon}: "
                f"definitional={via_def}, criterion={via_crit}"
            )
    return problems


def _approx_trial(trial_seed: int, rng: random.Random) -> list[str]:
    m = rng.randint(8, 16)
    sys = single_cycle(m)
    n = rng.randint(2, 4)
    base = frozenset([0])
    problems = []
    approx = approx_mod.build_s_prime(sys, base, n)
    if not approx.certificate.holds:
        problems.append(f"manual certificate failed on {m}-cycle, n={n}")
    if max(approx.cycle_length_histogram()) > n:
        problems.append("tau' cycle longer than the period bound")
    for _ in range(10):
        f = _random_element(rng, m)
        via_operator = s_prime_operator(sys, base, n, f)
        via_map = approx_mod.s_prime_apply(approx, f)
        if via_operator != via_map:
            problems.append("operator sum and extracted point map disagree")
        hat = approx_mod.surjectivity_preimage(sys, approx, f)
        if approx_mod.s_prime_apply(approx, hat) != f:
            problems.append("surjectivity preimage fails to map back")
    for _ in range(10):
        u = random_component(rng, m)
        chi = sys.indicator(u)
        powered = chi
        for _ in range(n):
            powered = approx_mod.s_prime_apply(approx, powered)
        once = approx_mod.s_prime_apply(approx, chi)
        if not powered.join(once) >= chi:
            problems.append(f"(S')^n u v S'u >= u fails on u={sorted(u)}")
    return problems


_TRIALS = {
    "kac": _kac_trial,
    "poincare": _poincare_trial,
    "tower": _tower_trial,
    "aperiodic": _aperiodic_trial,
    "approx": _approx_trial,
}
SUITE_NAMES = tuple(_TRIALS)


def run_suite(name: str, trials: int, seed: int, first_trial: int = 0) -> dict:
    """Run a named suite (or "all"); returns the scenario report."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    names = SUITE_NAMES if name == "all" else (name,)

    started = time.perf_counter()
    failures = []
    passed = 0
    for suite in names:
        for index in range(first_trial, first_trial + trials):
            problems = run_trial(suite, seed, index)
            if problems:
                failures.append(
                    {
                        "suite": suite,
                        "trial": index,
                        "problems": problems,
                        "repro": f"cepskit suite {suite} --trials 1 "
                                 f"--seed {seed} --first-trial {index}",
                    }
                )
            else:
                passed += 1
    total = trials * len(names)
    return {
        "scenario": f"suite-{name}",
        "inputs": {
            "trials": trials,
            "seed": seed,
            "first_trial": first_trial,
        },
        "outcome": "pass" if not failures else "fail",
        "passed": passed,
        "total": total,
        "failures": failures,
        "timing_seconds": round(time.perf_counter() - started, 3),
    }
