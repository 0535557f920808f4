"""The three benchmark workloads.

Each workload is built from ``(ck, seed, workdir)``, where ``ck`` holds the
imported cepskit modules. Construction generates the inputs; ``warm_up``
runs one checked operation; ``run(seconds)`` runs a closed loop with one
client (the next operation starts when the previous one returns) and
returns an ``Outcome``. Operations are timed one by one; their expected
answers come from how the inputs were generated or from
``cepskit.oracles`` and are checked outside the timed region. Every run
replays the same inputs from the start, so an untraced and a traced run of
one workload see the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

clock = time.perf_counter


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    busy_s: float = 0.0  # time inside timed operations
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failures.append(problem)

    @property
    def ops_per_s(self) -> float:
        return self.metrics["ops_per_s"][0]


def _redraw(ck, spec_args: dict, seed: int, lo: int, hi: int):
    """The first seeded random_system whose size lies in [lo, hi].

    Verdict cost grows with the size, so pinning it keeps runs with
    different seeds comparable.
    """
    for attempt in range(10_000):
        spec = ck.generators.RandomSpec(seed=seed * 10_007 + attempt, **spec_args)
        sys = ck.generators.random_system(spec)
        if lo <= sys.size <= hi:
            return sys
    raise RuntimeError(f"no random system of size {lo}..{hi} for seed {seed}")


def _block_index(sys) -> list[int]:
    owner = [0] * sys.size
    for b, block in enumerate(sys.blocks):
        for i in block:
            owner[i] = b
    return owner


def _blocks_met_indicator(owner: list[int], p) -> list[int]:
    """P_{Tp}e for positive weights: 1 on every block that p meets, else 0."""
    met = {owner[x] for x in p}
    return [1 if b in met else 0 for b in owner]


def _cycle_lengths(perm: list[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


# -- cli_large -------------------------------------------------------------

APPROX_EPS = Fraction(1, 2)
APPROX_PERIOD = math.floor(4 / APPROX_EPS) + 1  # n > 4/eps, as the theorem picks it
KAC_P = (0, 5)


class CliLarge:
    """In-process ``cepskit.cli.main`` verdicts on files of up to 400 points."""

    name = "cli_large"

    def __init__(self, ck, seed: int, workdir):
        self.ck = ck
        gen = ck.generators
        systems = {
            "cycle100": gen.single_cycle(100),
            "cycle400": gen.single_cycle(400),
            "random250": _redraw(ck, dict(num_blocks=(2, 3), cycle_lengths=(70, 130)),
                                 seed, 240, 260),
        }
        refusals = {
            "truncated20": gen.truncated_counterexample(20),
            "nonergodic200": _redraw(
                ck, dict(num_blocks=(2, 3), cycle_lengths=(20, 50), ergodic=False),
                seed, 190, 210),
        }
        paths = {}
        for label, sys in {**systems, **refusals}.items():
            paths[label] = str(workdir / f"{label}.json")
            ck.system.save(sys, paths[label])
        # One weight changed, so the weights are no longer tau-invariant.
        broken = systems["random250"].as_dict()
        i = random.Random(seed).randrange(len(broken["weights"]))
        broken["weights"][i] = str(Fraction(broken["weights"][i]) + 1)
        paths["broken250"] = str(workdir / "broken250.json")
        with open(paths["broken250"], "w", encoding="utf-8") as fh:
            json.dump(broken, fh)

        # (group, argv, checker); one pass runs them all in this order.
        self.verdicts = []
        for label, sys in systems.items():
            path = paths[label]
            owner = _block_index(sys)
            self.verdicts += [
                ("validate", ["validate", "--system", path], _check_valid),
                ("kac", ["kac", "--system", path, "--p", ",".join(map(str, KAC_P))],
                 _kac_checker(_blocks_met_indicator(owner, KAC_P))),
                ("tower-eps", ["tower-eps", "--system", path, "--n", "2",
                               "--eps", "1/5"], _check_tower_eps),
                ("approx", ["approx", "--system", path, "--eps", str(APPROX_EPS)],
                 _approx_checker(sys.size)),
            ]
        self.verdicts += [
            ("refuse", ["tower-eps", "--system", paths["truncated20"], "--n", "2",
                        "--eps", "1/5"], _refusal_checker("NotAperiodicAtHorizon")),
            ("refuse", ["kac", "--system", paths["nonergodic200"], "--p", "0"],
             _refusal_checker("NotConditionallyErgodic")),
            ("refuse", ["validate", "--system", paths["broken250"]],
             _check_broken_weights),
        ]
        self.warm_up_argv = ["validate", "--system", paths["cycle100"]]

    def _verdict(self, argv, checker, out: Outcome) -> float:
        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            code = self.ck.cli.main(argv)
        elapsed = clock() - start
        out.attempted += 1
        try:
            problem = checker(code, json.loads(buf.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem:
            out.fail(f"{' '.join(argv)}: {problem}")
        return elapsed

    def warm_up(self) -> None:
        out = Outcome()
        self._verdict(self.warm_up_argv, _check_valid, out)
        if out.failures:
            raise RuntimeError(out.failures[0])

    def run(self, seconds: float) -> Outcome:
        """Whole passes; another starts only if the last one fits the time left."""
        out = Outcome()
        passes: list[dict[str, float]] = []
        while True:
            groups = dict.fromkeys(("validate", "kac", "tower-eps", "approx", "refuse"),
                                   0.0)
            for group, argv, checker in self.verdicts:
                groups[group] += self._verdict(argv, checker, out)
            passes.append(groups)
            pass_s = sum(groups.values())
            out.busy_s += pass_s
            if out.busy_s + pass_s > seconds:
                break
        for group in passes[0]:
            out.metrics[f"cli.{group}_s"] = (
                statistics.median(p[group] for p in passes), "s")
        out.metrics["cli.passes"] = (len(passes), "count")
        out.metrics["ops_per_s"] = (out.attempted / out.busy_s, "1/s")
        return out


def _check_valid(code, report):
    if code != 0 or report.get("valid") is not True:
        return f"expected exit 0 and valid, got exit {code}"
    return None


def _kac_checker(expected: list[int]):
    want = [str(v) for v in expected]

    def check(code, report):
        if code != 0 or report.get("equal") is not True:
            return f"expected exit 0 and equal, got exit {code}"
        if report["P_Tp_e"] != want or report["Tn(p)"] != want:
            return "Kac sides differ from P_{Tp}e of the generated blocks"
        return None

    return check


def _check_tower_eps(code, report):
    if code != 0:
        return f"expected exit 0, got {code}"
    certs = [report["certificate"], *report["extra_certificates"]]
    if not all(c["holds"] is True for c in certs):
        return "a tower certificate does not hold"
    if report["height"] != 2 or len(report["levels"]) != 2:
        return "tower height is not 2"
    return None


def _approx_checker(size: int):
    def check(code, report):
        if code != 0 or report["certificate"]["holds"] is not True:
            return f"expected exit 0 and a holding certificate, got exit {code}"
        tau_prime = report["tau_prime"]
        if sorted(tau_prime) != list(range(size)):
            return "tau' is not a permutation of the ground set"
        longest = max(_cycle_lengths(tau_prime))
        if report["period_bound"] != APPROX_PERIOD or longest > APPROX_PERIOD:
            return f"tau' has a cycle of length {longest} > n = {APPROX_PERIOD}"
        return None

    return check


def _refusal_checker(kind: str):
    def check(code, report):
        if code != 2 or report.get("kind") != kind:
            return f"expected exit 2 with {kind}, got exit {code} {report.get('kind')}"
        return None

    return check


def _check_broken_weights(code, report):
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    if code != 2 or report["valid"] is not False or "weights-tau-invariant" not in failed:
        return f"expected exit 2 failing weights-tau-invariant, got exit {code}"
    return None


# -- suites_small ----------------------------------------------------------

SUITES = ("kac", "poincare", "tower", "approx")
# Trials per run_suite call, each a few tens of milliseconds today. The
# approx suite runs in rounds instead (see approx_rounds).
CHUNKS = {"kac": 4, "poincare": 64, "tower": 16}
WARM_UP_TRIAL = 1_000_000  # outside the trial indices a run reaches
APPROX_SIZES = range(8, 17)  # the cycle sizes an approx trial draws, uniformly


def approx_size(seed: int, index: int) -> int:
    """The cycle size m of approx trial ``index`` under ``seed``.

    Mirrors the seeding of ``cepskit.suites.run_trial``: the trial's RNG
    first draws the trial seed, then m.
    """
    rng = random.Random(seed * 1_000_003 + index)
    rng.randrange(2**62)
    return rng.randint(APPROX_SIZES[0], APPROX_SIZES[-1])


def approx_rounds(seed: int):
    """Endless rounds of approx trial indices, one of each cycle size per round.

    A trial costs about 2^m, the size of its exhaustive component scan, so
    the handful of trials that fit in a run would make the rate follow how
    many m = 15 or 16 trials the seed happened to draw. Whole rounds keep
    the suite's uniform mix of m in every run. Each size takes its trials
    in index order.
    """
    pending = {m: deque() for m in APPROX_SIZES}
    index = 0
    while True:
        while not all(pending.values()):
            pending[approx_size(seed, index)].append(index)
            index += 1
        yield [pending[m].popleft() for m in APPROX_SIZES]


class SuitesSmall:
    """Seeded property suites at width 1, interleaved with equal time shares.

    The next call, or approx round, always goes to the suite with the least
    time so far, so every suite is sampled across the whole run and a slow
    stretch of the machine weighs on all four rates alike.
    """

    name = "suites_small"

    def __init__(self, ck, seed: int, workdir):
        self.ck = ck
        self.seed = seed

    def _chunk(self, suite: str, trials: int, first: int, out: Outcome) -> float:
        start = clock()
        report = self.ck.suites.run_suite(suite, trials, self.seed, first_trial=first)
        elapsed = clock() - start
        out.attempted += trials
        if report["total"] != trials or report["passed"] != report["total"]:
            out.fail(f"suite {suite} trials {first}..{first + trials - 1}: "
                     f"{report['passed']}/{report['total']} passed")
        return elapsed

    def warm_up(self) -> None:
        out = Outcome()
        self._chunk("kac", 1, WARM_UP_TRIAL, out)
        if out.failures:
            raise RuntimeError(out.failures[0])

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        busy = dict.fromkeys(SUITES, 0.0)
        done = dict.fromkeys(SUITES, 0)
        rounds = approx_rounds(self.seed)
        while out.busy_s < seconds:
            suite = min(SUITES, key=busy.__getitem__)
            if suite == "approx":
                calls = [(index, 1) for index in next(rounds)]
            else:
                calls = [(done[suite], CHUNKS[suite])]
            for first, trials in calls:
                elapsed = self._chunk(suite, trials, first, out)
                busy[suite] += elapsed
                done[suite] += trials
                out.busy_s += elapsed
        rates = {suite: done[suite] / busy[suite] for suite in SUITES}
        for suite, rate in rates.items():
            out.metrics[f"suite.{suite}_trials_per_s"] = (rate, "1/s")
        # Suite rates differ by a factor of 700, so trials over busy time
        # would follow poincare alone. The geometric mean weighs each suite
        # alike: halving any one rate lowers ops_per_s by 16%.
        out.metrics["ops_per_s"] = (statistics.geometric_mean(rates.values()), "1/s")
        return out


# -- queries_loaded --------------------------------------------------------

QUERY_KINDS = ("kac", "decompose", "tower", "recurrent")
DENSITIES = ("half", "p8", "p64")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than 40 samples no ladder step qualifies; the median stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct / 100 * n) - 1]
    return 50.0, statistics.median(ordered)


def _stratified_system(ck, seed: int):
    """Six one-cycle blocks, one length in each 50-wide stratum of 100..400.

    Lengths are drawn in mirrored pairs, so the ground set always has 1500
    points and the longest cycle lies in 351..400; query cost depends on
    both, and pinning them keeps seeds comparable. Weights are constant on
    each cycle with denominators up to 12, as ``random_system`` draws them.
    """
    rng = random.Random(seed)
    centers = [125 + 50 * i for i in range(6)]
    lengths = list(centers)
    for i in range(3):
        shift = rng.randrange(-25, 25)
        lengths[i] += shift
        lengths[5 - i] -= shift
    rng.shuffle(lengths)
    cycles = []
    for m in lengths:
        den = rng.randint(1, 12)
        cycles.append(ck.generators.single_cycle(m, Fraction(rng.randint(1, den), den)))
    return ck.generators.direct_product(cycles)


class QueriesLoaded:
    """A seeded stream of library queries on one ~1500-point system."""

    name = "queries_loaded"

    def __init__(self, ck, seed: int, workdir):
        self.ck = ck
        self.seed = seed
        self.sys = _stratified_system(ck, seed)
        self.owner = _block_index(self.sys)
        # Each cycle has length <= 400 by construction, so 400 forward steps
        # of q sweep out every cycle that q meets.
        self.sweep = 400

    def _component(self, rng: random.Random, density: str) -> frozenset:
        if density == "half":
            return frozenset(i for i in range(self.sys.size) if rng.random() < 0.5)
        return frozenset(rng.sample(range(self.sys.size), 8 if density == "p8" else 64))

    def _stream(self, seed: int):
        """Endless (kind, args) queries; each round has every (kind, density) once."""
        rng = random.Random(seed)
        combos = [(k, d) for k in QUERY_KINDS for d in DENSITIES]
        while True:
            rng.shuffle(combos)
            for kind, density in combos:
                p = self._component(rng, density)
                if kind == "tower":
                    args = (p, rng.randint(2, 8))
                elif kind == "recurrent":
                    args = (frozenset(rng.sample(range(self.sys.size), 8)), p)
                else:
                    args = (p,)
                yield kind, args

    def _query(self, kind, args, out: Outcome) -> float:
        rec, sys = self.ck.recurrence, self.sys
        start = clock()
        if kind == "kac":
            result = rec.kac_certificate(sys, *args)
        elif kind == "decompose":
            result = rec.return_decomposition(sys, *args)
        elif kind == "tower":
            result = self.ck.tower.build_tower(sys, *args)
        else:
            result = rec.check_recurrent(sys, *args)
        elapsed = clock() - start
        out.attempted += 1
        problem = self._check(kind, args, result)
        if problem:
            out.fail(f"{kind} query: {problem}")
        return elapsed

    def _check(self, kind, args, result):
        sys, oracles = self.sys, self.ck.oracles
        if kind == "kac":
            lhs, rhs, ok = result
            want = tuple(Fraction(v) for v in _blocks_met_indicator(self.owner, args[0]))
            if not ok or rhs.values != want or lhs.values != want:
                return "Kac sides differ from P_{Tp}e of the generated blocks"
        elif kind == "decompose":
            if result.parts != oracles.first_return_sets(sys, args[0]):
                return "decomposition differs from the trajectory oracle"
        elif kind == "tower":
            problems = result.verify_against(sys)
            if problems:
                return f"tower invariants fail: {problems}"
        else:
            x, q = args
            if result != (x <= oracles.forward_image_union(sys, q, self.sweep)):
                return "recurrence verdict differs from the forward-image oracle"
        return None

    def warm_up(self) -> None:
        out = Outcome()
        rng = random.Random(self.seed + 1)
        self._query("decompose", (self._component(rng, "p8"),), out)
        if out.failures:
            raise RuntimeError(out.failures[0])

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        latencies = []
        last_kac = None
        for kind, args in self._stream(self.seed):
            latencies.append(self._query(kind, args, out))
            out.busy_s += latencies[-1]
            if kind == "kac":
                last_kac = args[0]
            if out.busy_s >= seconds and last_kac is not None:
                break
        # The blocks-met rule used for every Kac check, against the oracle.
        chi = self.ck.lattice.LatticeElement(
            tuple(Fraction(int(i in last_kac)) for i in range(self.sys.size)))
        support = [int(v > 0) for v in self.ck.oracles.block_average(self.sys, chi)]
        if support != _blocks_met_indicator(self.owner, last_kac):
            out.fail("P_{Tp}e by blocks met differs from oracles.block_average")
        out.metrics["ops_per_s"] = (out.attempted / out.busy_s, "1/s")
        pct, tail = tail_percentile(latencies)
        out.metrics["query_p50_s"] = (statistics.median(latencies), "s")
        out.metrics["query_tail_s"] = (tail, "s")
        out.metrics["query_tail_pct"] = (pct, "%")
        out.metrics["query_samples"] = (len(latencies), "count")
        return out


WORKLOADS = {w.name: w for w in (CliLarge, SuitesSmall, QueriesLoaded)}
