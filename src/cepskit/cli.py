"""Batch front door: load systems, run operations and suites, emit reports.

All reports are JSON with exact rationals as strings; inequalities carry
both sides verbatim so reports are auditable without re-running. The
exit-code taxonomy separates defects from expected refusals:

    0  pass
    1  theorem-check failure (build-breaking)
    2  precondition / validation rejection (e.g. the counterexamples)
    3  malformed input

A verdict on a system that --force admitted although it fails validation
never exits 1: the theorems assume the axioms it breaks, so a failed
identity or theorem check there is exit 2, with the report kept.

The verdicts (kac, decompose, recurrent, tower, tower-eps, tower-ls, aperiodic,
approx) load --system once and share one envelope, {"scenario", "inputs":
{"system_digest", ...}, ..., "timing_seconds"}; timing_seconds leaves out the
load. validate, gen, suite and demo-paper-examples build their own reports.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys as _sys
import time
from fractions import Fraction

from . import system as system_mod
from .approx import approximate_periodic, build_s_prime
from .demos import paper_examples_report
from .errors import (
    CepsError,
    DomainError,
    InvalidSystem,
    MalformedInput,
    NotAperiodicAtHorizon,
    NotConditionallyErgodic,
    TheoremViolation,
)
from .generators import (
    RandomSpec,
    direct_product,
    random_system,
    single_cycle,
    swap_example,
    truncated_counterexample,
)
from .jsontext import dumps_indented
from .lattice import ZERO
from .oracles import n_aperiodic_definitional
from .rationals import format_rational, parse_integer, parse_rational
from .recurrence import first_return_time, kac_certificate, return_decomposition, \
    check_recurrent
from .suites import SUITE_NAMES, run_suite
from .tower import build_tower, build_tower_eps, build_tower_eps_ls, n_aperiodic


class _Parser(argparse.ArgumentParser):
    # Whole option names only. add_subparsers builds each subcommand's
    # parser from this class, so the keyword reaches all of them.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit 2; the taxonomy wants 3
        raise MalformedInput(f"{message}\n{self.format_usage()}")


def _integer_option(raw: str) -> int:
    """The argparse type of every integer option: ``parse_integer``."""
    try:
        return parse_integer(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


def _parse_indices(raw: str, size: int) -> frozenset[int]:
    """A CSV of indices (--p, --q, --v), each inside the loaded ground set."""
    try:
        indices = (frozenset(map(parse_integer, raw.split(",")))
                   if raw.strip(" ") else frozenset())
    except ValueError as exc:
        raise MalformedInput(f"bad index list {raw!r}: {exc}") from None
    outside = sorted(i for i in indices if not 0 <= i < size)
    if outside:
        raise MalformedInput(f"index {outside[0]} is outside the ground set "
                             f"0..{size - 1}")
    return indices


def _check_height(n: int, size: int) -> None:
    """Refuse a tower or approx --manual height --n above |Omega|.

    No such height has a nonempty base with disjoint iterates, and its
    levels would take n times the memory of the system to build.
    """
    if n > size:
        raise MalformedInput(f"--n {n} exceeds the ground set size {size}")


def _parse_eps(raw: str) -> Fraction:
    try:
        return parse_rational(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {raw!r}: {exc}") from None


def _parse_range(raw: str) -> tuple[int, int]:
    try:
        lo, _, hi = raw.partition(":")
        return (parse_integer(lo), parse_integer(hi if hi else lo))
    except ValueError as exc:
        raise MalformedInput(f"bad range {raw!r} (expected LO:HI): {exc}") from None


@contextlib.contextmanager
def _writing(path: str):
    """An output (--out, --csv, stdout) that cannot be written is exit 3."""
    try:
        yield
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(report: dict, out: str | None) -> None:
    """Write the report to --out, if given, then print it."""
    text = dumps_indented(report)
    if out:
        with _writing(out), open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    with _writing("stdout"):
        try:
            print(text, flush=True)
        except OSError:
            # The interpreter flushes stdout again at exit: devnull takes it.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, _sys.stdout.fileno())
            os.close(devnull)
            raise


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with _writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> _Parser:
    """The cepskit argument parser; ``main`` parses with one per process."""
    parser = _Parser(prog="cepskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True, force=True):
        if system:
            p.add_argument("--system", required=True, help="system JSON file")
        if system and force:
            p.add_argument("--force", action="store_true",
                           help="load even if validation fails (demos)")
        p.add_argument("--out", help="also write the JSON report here")
        return p

    common(sub.add_parser("validate", help="validate a system file"), force=False)

    gen = common(sub.add_parser("gen", help="generate a system file"), system=False)
    gen.add_argument("--kind", required=True,
                     choices=["cycle", "swap", "product", "random"])
    gen.add_argument("--m", type=_integer_option, help="cycle length (kind=cycle)")
    gen.add_argument("--cycles", help="CSV of cycle lengths (kind=product)")
    gen.add_argument("--truncated", type=_integer_option,
                     help="product of cycles 1..M (kind=product)")
    gen.add_argument("--seed", type=_integer_option, default=0)
    gen.add_argument("--num-blocks", default="1:3")
    gen.add_argument("--cycle-lengths", default="1:8")
    gen.add_argument("--denom-bound", type=_integer_option, default=12)
    gen.add_argument("--non-ergodic", action="store_true")

    kac = common(sub.add_parser("kac", help="Kac identity certificate"))
    kac.add_argument("--p", required=True, help="CSV of indices")

    dec = common(sub.add_parser("decompose", help="first-return decomposition"))
    dec.add_argument("--p", required=True)

    rec = common(sub.add_parser("recurrent", help="recurrence of p w.r.t. q"))
    rec.add_argument("--p", required=True)
    rec.add_argument("--q", required=True)

    tw = common(sub.add_parser("tower", help="epsilon-free tower"))
    tw.add_argument("--p", required=True)
    tw.add_argument("--n", type=_integer_option, required=True)
    tw.add_argument("--csv", help="write level masses as CSV")

    te = common(sub.add_parser("tower-eps", help="epsilon-bounded tower"))
    te.add_argument("--n", type=_integer_option, required=True)
    te.add_argument("--eps", required=True)
    te.add_argument("--csv", help="write level masses as CSV")

    tl = common(sub.add_parser("tower-ls", help="epsilon-bounded tower under L_S"))
    tl.add_argument("--v", required=True)
    tl.add_argument("--n", type=_integer_option, required=True)
    tl.add_argument("--eps", required=True)

    ap = common(sub.add_parser("aperiodic", help="N-aperiodicity surrogate"))
    ap.add_argument("--v", required=True)
    ap.add_argument("--N", type=_integer_option, required=True, dest="horizon")
    ap.add_argument("--mode", default="criterion",
                    choices=["criterion", "definitional", "both"])

    px = common(sub.add_parser("approx", help="periodic approximation of S"))
    px.add_argument("--eps")
    px.add_argument("--manual", action="store_true")
    px.add_argument("--p")
    px.add_argument("--n", type=_integer_option)
    px.add_argument("--csv", help="write the worst distance profile as CSV")

    su = common(sub.add_parser("suite", help="seeded property suites"),
                system=False)
    su.add_argument("name", choices=list(SUITE_NAMES) + ["all"])
    su.add_argument("--trials", type=_integer_option, default=100)
    su.add_argument("--seed", type=_integer_option, default=0)
    su.add_argument("--first-trial", type=_integer_option, default=0)

    common(sub.add_parser("demo-paper-examples",
                          help="reproduce the worked-example tables"),
           system=False)
    return parser


_cached_parser = functools.cache(build_parser)


def _cmd_validate(args) -> tuple[int, dict]:
    report = system_mod.validate_ceps(system_mod.read_raw(args.system))
    payload = {"scenario": "validate", "system": args.system, **report.as_dict()}
    return (0 if report.ok else 2), payload


def _cmd_gen(args) -> tuple[int, dict]:
    if args.kind == "cycle":
        if args.m is None:
            raise MalformedInput("gen --kind cycle needs --m")
        sys = single_cycle(args.m)
    elif args.kind == "swap":
        sys = swap_example()
    elif args.kind == "product":
        if args.truncated is not None:
            sys = truncated_counterexample(args.truncated)
        elif args.cycles:
            try:
                lengths = [parse_integer(m) for m in args.cycles.split(",")]
            except ValueError as exc:
                raise MalformedInput(f"bad --cycles {args.cycles!r}: {exc}") from None
            sys = direct_product([single_cycle(m) for m in lengths])
        else:
            raise MalformedInput("gen --kind product needs --cycles or --truncated")
    else:
        spec = RandomSpec(
            seed=args.seed,
            num_blocks=_parse_range(args.num_blocks),
            cycle_lengths=_parse_range(args.cycle_lengths),
            weight_denominator_bound=args.denom_bound,
            ergodic=not args.non_ergodic,
        )
        sys = random_system(spec)
    payload = {
        "scenario": "gen",
        "kind": args.kind,
        "digest": sys.digest(),
        "system": sys.as_dict(),
    }
    if args.out:
        with _writing(args.out):
            system_mod.save(sys, args.out)
        payload["written"] = args.out
    return 0, payload


def _cmd_kac(args, sys) -> tuple[int, dict, dict]:
    p = _parse_indices(args.p, sys.size)
    lhs, rhs, ok = kac_certificate(sys, p)
    return (0 if ok else 1), {"p": sorted(p)}, {
        "Tn(p)": lhs.formatted(),
        "P_Tp_e": rhs.formatted(),
        "equal": ok,
        "outcome": "pass" if ok else "fail",
    }


def _cmd_decompose(args, sys) -> tuple[int, dict, dict]:
    p = _parse_indices(args.p, sys.size)
    decomp = return_decomposition(sys, p)
    n_p = first_return_time(sys, p)
    kac_ok = kac_certificate(sys, p)[2] if sys.is_conditionally_ergodic() else None
    return (0 if kac_ok is None or kac_ok else 1), {}, {
        **decomp.as_dict(),
        "n_of_p": [format_rational(a) for a in n_p],
        "kac_ok": kac_ok,
    }


def _cmd_recurrent(args, sys) -> tuple[int, dict, dict]:
    p = _parse_indices(args.p, sys.size)
    q = _parse_indices(args.q, sys.size)
    result = check_recurrent(sys, p, q)
    return 0, {"p": sorted(p), "q": sorted(q)}, {"recurrent": result}


def _tower_body(sys, t, csv_path) -> dict:
    """A tower's report body; with a csv_path, also write its level masses."""
    if csv_path:
        rows = []
        for i, level in enumerate(t.levels):
            mass = sys._t_sum(((1, level),))
            per_block = [format_rational(mass.get(b, ZERO))
                         for b in range(len(sys.blocks))]
            rows.append([i, " ".join(map(str, sorted(level))), " ".join(per_block)])
        _write_csv(csv_path, ["level", "members", "mass_per_block"], rows)
    return {**t.as_dict(), "outcome": "pass"}


def _cmd_tower(args, sys) -> tuple[int, dict, dict]:
    p = _parse_indices(args.p, sys.size)
    _check_height(args.n, sys.size)
    t = build_tower(sys, p, args.n)
    return 0, {"p": sorted(p), "n": args.n}, _tower_body(sys, t, args.csv)


def _cmd_tower_eps(args, sys) -> tuple[int, dict, dict]:
    eps = _parse_eps(args.eps)
    t = build_tower_eps(sys, args.n, eps)
    return 0, {"n": args.n, "eps": format_rational(eps)}, _tower_body(sys, t, args.csv)


def _cmd_tower_ls(args, sys) -> tuple[int, dict, dict]:
    eps = _parse_eps(args.eps)
    v = _parse_indices(args.v, sys.size)
    t = build_tower_eps_ls(sys, v, args.n, eps)
    inputs = {"v": sorted(v), "n": args.n, "eps": format_rational(eps)}
    return 0, inputs, _tower_body(sys, t, None)


def _cmd_aperiodic(args, sys) -> tuple[int, dict, dict]:
    v = _parse_indices(args.v, sys.size)
    criterion = n_aperiodic(sys, v, args.horizon)  # in every mode: it checks v and N
    results = {} if args.mode == "definitional" else {"criterion": criterion}
    if args.mode != "criterion":
        results["definitional"] = n_aperiodic_definitional(sys, v, args.horizon)
    agree = len(set(results.values())) == 1
    inputs = {"v": sorted(v), "N": args.horizon}
    return (0 if agree else 1), inputs, {"results": results, "agree": agree}


def _cmd_approx(args, sys) -> tuple[int, dict, dict]:
    if args.manual:
        if args.p is None or args.n is None:
            raise MalformedInput("approx --manual needs --p and --n")
        _check_height(args.n, sys.size)
        eps = None if args.eps is None else _parse_eps(args.eps)
        result = build_s_prime(sys, _parse_indices(args.p, sys.size), args.n, eps=eps)
    else:
        if args.p is not None or args.n is not None:
            raise MalformedInput("approx --p and --n need --manual")
        if args.eps is None:
            raise MalformedInput("approx needs --eps (or --manual)")
        eps = _parse_eps(args.eps)
        result = approximate_periodic(sys, eps)
    holds = result.certificate.holds
    if args.csv:
        worst = result.certificate.worst_observed
        _write_csv(args.csv, ["coordinate", "worst_distance"],
                   [[i, w] for i, w in enumerate(worst.formatted())])
    # An explicit --eps below the exact supremum over a hand-picked base is
    # missed, not violated; without --eps the bound is the majorant, which
    # the theorem guarantees.
    code = 0 if holds else (2 if args.manual and eps is not None else 1)
    return code, {"manual": args.manual}, {
        **result.as_dict(), "outcome": "pass" if holds else "fail",
    }


def _cmd_suite(args) -> tuple[int, dict]:
    if args.trials < 1:
        raise MalformedInput(f"suite --trials must be >= 1, got {args.trials}")
    report = run_suite(args.name, args.trials, args.seed, first_trial=args.first_trial)
    return (0 if report["outcome"] == "pass" else 1), report


def _cmd_demo(args) -> tuple[int, dict]:
    report = paper_examples_report()
    return (0 if report["outcome"] == "pass" else 1), report


# Verdicts run on a loaded system and report through _verdict's envelope.
_VERDICTS = {
    "kac": _cmd_kac,
    "decompose": _cmd_decompose,
    "recurrent": _cmd_recurrent,
    "tower": _cmd_tower,
    "tower-eps": _cmd_tower_eps,
    "tower-ls": _cmd_tower_ls,
    "aperiodic": _cmd_aperiodic,
    "approx": _cmd_approx,
}

_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "suite": _cmd_suite,
    "demo-paper-examples": _cmd_demo,
}


def _verdict(handler, args) -> tuple[int, dict]:
    """Load --system once, run the handler and wrap its report in the envelope.

    timing_seconds covers the handler (argument checks, construction,
    certificates, any --csv write), not the load. A system whose structure
    report fails got in through --force; a failed identity or theorem
    check on it is exit 2.
    """
    sys = system_mod.load(args.system, args.force)
    started = time.perf_counter()
    try:
        code, inputs, body = handler(args, sys)
    except TheoremViolation as exc:
        if sys.structure.ok:
            raise
        return 2, {"outcome": "rejected", "kind": "TheoremViolation",
                   "error": f"{exc} (on a system that fails validation)"}
    if code == 1 and not sys.structure.ok:
        code = 2
    elapsed = round(time.perf_counter() - started, 6)
    return code, {
        "scenario": args.command,
        "inputs": {"system_digest": sys.digest(), **inputs},
        **body,
        "timing_seconds": elapsed,
    }


def _run(args) -> tuple[int, dict]:
    """Exit code and report of a parsed command; exit 1 and 2 become reports."""
    try:
        verdict = _VERDICTS.get(args.command)
        return (_verdict(verdict, args) if verdict
                else _COMMANDS[args.command](args))
    except TheoremViolation as exc:
        return 1, {"outcome": "theorem-violation", "error": str(exc)}
    except (DomainError, NotConditionallyErgodic, NotAperiodicAtHorizon) as exc:
        return 2, {"outcome": "rejected", "kind": type(exc).__name__,
                   "error": str(exc)}
    except InvalidSystem as exc:
        return 2, {"outcome": "rejected", "kind": "InvalidSystem",
                   **exc.report.as_dict()}


def main(argv=None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
        code, report = _run(args)
        # gen's --out is the system file, which only ``save`` writes.
        _emit(report, None if args.command == "gen" else args.out)
        return code
    except CepsError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory (the input is too large)", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
