"""cepskit benchmark: CLI verdicts, property suites and loaded-system queries.

Run from the repository root:

    python3 perfbench/run.py --workload cli_large --seed 1 --seconds 20 --trace 0

Workloads are ``cli_large``, ``suites_small`` and ``queries_loaded`` (see
README.md in this directory); ``--workload all`` runs each in its own
process and prints every end-to-end metric of each. With ``--trace 0`` the
run is untraced and reports the end-to-end metrics. With ``--trace 1`` it
runs the workload untraced, runs the tracer self-check, then runs the
workload again with every public cepskit function wrapped, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(prefixed ``report:``) holds the full report with provenance. Spans of a
traced run are written to ``perfbench/out/``. The exit code is 0 only when
the run completed; a missing source tree exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

from tracer import NAMES, CallCounter, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("lattice", "system", "recurrence", "tower", "approx", "generators",
           "oracles", "suites", "cli")
# Set-ups timed before the measured run, and as many again after it, so a
# slow stretch of the machine at one end does not decide setup_s.
SETUP_REPEATS = 11
# Per-layer times exported on the last line: the functions every workload
# calls, so none of them reads zero. All other times are in the report.
TIMED_EVERYWHERE = ("lattice.elements", "lattice.band_project", "lattice.indicator",
                    "system.expectation", "system.component_image",
                    "recurrence.q_component", "recurrence.return_decomposition",
                    "recurrence.kac_certificate", "tower.build_tower")
EXPONENT_FUNCTIONS = ("system.validate_ceps", "system.expectation",
                      "approx.s_prime_operator", "approx.build_s_prime",
                      "recurrence.q_component")
PROBE_SIZES = (100, 400)  # cycles whose CLI approx verdicts fit the exponents
COMPLETENESS_SIZE = 70  # smallest cycle approx --eps 1/2 accepts is 66


def import_cepskit():
    """Import cepskit afresh (dropping any earlier import) from ``src``."""
    for name in [n for n in sys.modules if n == "cepskit" or n.startswith("cepskit.")]:
        del sys.modules[name]
    importlib.import_module("cepskit")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"cepskit.{m}") for m in MODULES})


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(directory: Path) -> str:
    """SHA-256 prefix over the ``*.py`` files of ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": digest(SRC / "cepskit"),
        "bench_sha256": digest(HERE),
    }


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, generate inputs, construct and warm up, SETUP_REPEATS times.

    Returns the last imported modules, the last workload and every time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        start = time.perf_counter()
        ck = import_cepskit()
        workload = workload_cls(ck, seed, workdir)
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return ck, workload, times


def cli_approx(ck, path: str) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return ck.cli.main(["approx", "--system", path, "--eps", "1/2"])


def self_check(ck, tracer, workdir: Path) -> dict:
    """Check the tracer against a profiler and against counts known today.

    Completeness: on a probe that reaches every wrapped function, the
    tracer's call counts must equal those ``sys.setprofile`` sees for the
    original functions. A mismatch means a call bypassed a wrapper.

    Known counts: one CLI ``approx`` on single_cycle(N) calls
    s_prime_operator N times and validate_ceps twice, and each
    validate_ceps calls expectation 2N+1 times. These describe the code as
    it is when the benchmark was written; a change that removes a
    validation pass alters them on purpose, so they are reported rather
    than failed.
    """
    gen = ck.generators
    paths = {}
    for n in (COMPLETENESS_SIZE, *PROBE_SIZES):
        paths[n] = str(workdir / f"probe{n}.json")
        ck.system.save(gen.single_cycle(n), paths[n])

    tracer.reset()
    with CallCounter(tracer.originals) as counter:
        cli_approx(ck, paths[COMPLETENESS_SIZE])
        for suite in ("kac", "poincare", "tower"):
            ck.suites.run_trial(suite, 0, 0)
        small = gen.single_cycle(8)
        approx = ck.approx.build_s_prime(small, {0}, 2)
        ck.approx.s_prime_apply(approx, small.unit)
        small.cesaro_mean(small.unit)
        ck.recurrence.check_recurrent(small, {0}, {1})
    seen = tracer.snapshot()
    missed = {name: (counter.counts[name], seen[name][0]) for name in seen
              if counter.counts[name] != seen[name][0]}

    known, totals = {}, {}
    for n in PROBE_SIZES:
        tracer.reset()
        code = cli_approx(ck, paths[n])
        stats = tracer.snapshot()
        totals[n] = {name: stats[name][1] for name in EXPONENT_FUNCTIONS}
        per_validate = tracer.child_counts("system.validate_ceps", "system.expectation")
        known[n] = {
            "exit": code,
            "approx.s_prime_operator.calls": [stats["approx.s_prime_operator"][0], n],
            "system.validate_ceps.calls": [stats["system.validate_ceps"][0], 2],
            "expectation_calls_per_validate_ceps": [per_validate, [2 * n + 1] * 2],
        }
    tracer.reset()
    lo, hi = PROBE_SIZES
    # A function the verdict no longer calls has no time to scale: 0.
    exponents = {name: math.log(totals[hi][name] / totals[lo][name]) / math.log(hi / lo)
                 if totals[lo][name] and totals[hi][name] else 0.0
                 for name in EXPONENT_FUNCTIONS}
    known_ok = all(v[0] == v[1] for k in known.values()
                   for key, v in k.items() if key != "exit")
    return {
        "complete": not missed,
        "missed": missed,
        "absent": tracer.absent,
        "known_counts_match": known_ok,
        "known_counts": known,
        "exponents": exponents,
    }


def traced_run(ck, workload, seconds: float, workdir: Path, label: str):
    """Untraced run, tracer self-check, traced run; returns (outcome, report, metrics)."""
    untraced = workload.run(seconds)
    tracer = Tracer()
    tracer.install(ck)
    try:
        check = self_check(ck, tracer, workdir)
        traced = workload.run(seconds)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{label}.jsonl"
    tracer.write_spans(spans_path)

    stats = tracer.snapshot()
    table = {}
    for name in NAMES:
        calls, total, self_s = stats[name]
        table[f"{name}.calls"] = (calls, "count")
        table[f"{name}.total_s"] = (total, "s")
        table[f"{name}.self_s"] = (self_s, "s")
    table["approx.components_checked"] = (
        tracer.counters["approx.components_checked"], "count")
    for name, value in check["exponents"].items():
        table[f"{name}.exponent"] = (value, "1")
    base, with_trace = untraced.ops_per_s, traced.ops_per_s
    table["trace.untraced_ops_per_s"] = (base, "1/s")
    table["trace.traced_ops_per_s"] = (with_trace, "1/s")
    table["trace.overhead_pct"] = (100 * (base - with_trace) / base, "%")

    exported = [f"{n}.calls" for n in NAMES]
    exported += [f"{n}.{kind}" for n in TIMED_EVERYWHERE for kind in ("total_s", "self_s")]
    exported += ["approx.components_checked"]
    exported += [f"{n}.exponent" for n in EXPONENT_FUNCTIONS]
    exported += ["trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.overhead_pct"]
    outcome = untraced
    outcome.attempted += traced.attempted
    outcome.failures += traced.failures
    if not check["complete"]:
        outcome.fail(f"tracer missed calls (profiler, tracer): {check['missed']}")
    if not check["known_counts_match"]:
        print(f"note: call counts differ from those known when the benchmark was "
              f"written: {check['known_counts']}", file=sys.stderr)
    report = {
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "self_check": check,
        "spans": {"file": str(spans_path.relative_to(ROOT)), "kept": len(tracer.spans),
                  "dropped": tracer.dropped},
        "untraced_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in untraced.metrics.items()},
    }
    return outcome, report, {k: table[k] for k in exported}


def run_one(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        ck, workload, setup_times = set_up(workload_cls, args.seed, workdir)
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            outcome, extra, metrics = traced_run(ck, workload, args.seconds, workdir,
                                                 label)
        else:
            outcome = workload.run(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times += set_up(workload_cls, args.seed, workdir)[2]
            setup_s = statistics.median(setup_times)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (outcome.ops_per_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            every = {**metrics,
                     "fail_ratio": (len(outcome.failures) / outcome.attempted, "1"),
                     **outcome.metrics}
            extra = {"workload_metrics": {k: {"value": v, "unit": u}
                                          for k, (v, u) in every.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in outcome.failures[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    report = {"provenance": provenance(args), **extra,
              "failures": outcome.failures[:20]}
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len("report: "):])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in report["workload_metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("CEPSKIT_PARALLEL", "CEPSKIT_SEED"):
        os.environ.pop(var, None)
    if not (SRC / "cepskit" / "__init__.py").is_file():
        print(f"error: no cepskit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
