import builtins
import gc
import json
import os
import subprocess
from collections import Counter
from pathlib import Path
from sys import executable

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from cepskit import cli, system
from cepskit.cli import main
from cepskit.errors import TheoremViolation
from cepskit.generators import single_cycle, swap_example, with_single_block, \
    direct_product
from cepskit.rationals import format_rational
from cepskit.system import GroundSystem, save


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    save(swap_example(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_good(swap_file, capsys):
    code, report = run(capsys, "validate", "--system", swap_file)
    assert code == 0 and report["valid"]


def test_validate_bad_system(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "weights": ["1/2", "1/2"],
                                "blocks": [[0], [1]], "tau": [1, 0]}))
    code, report = run(capsys, "validate", "--system", str(path))
    assert code == 2
    assert not report["valid"]
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "blocks-tau-invariant" in failed


def test_malformed_json_is_exit_3(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code = main(["validate", "--system", str(path)])
    assert code == 3


def test_unknown_flag_is_exit_3(swap_file):
    assert main(["kac", "--system", swap_file, "--bogus"]) == 3


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "c7.json"
    code, report = run(capsys, "gen", "--kind", "cycle", "--m", "7",
                       "--out", str(out))
    assert code == 0 and report["written"] == str(out)
    data = json.loads(out.read_text())
    assert data["size"] == 7 and data["weights"][0] == "1/7"

    code, report = run(capsys, "kac", "--system", str(out), "--p", "0,3")
    assert code == 0
    assert report["equal"] is True
    assert report["Tn(p)"] == ["1"] * 7


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "gen", "--kind", "random", "--seed", "5", "--out", str(path))
    assert a.read_text() == b.read_text()


def test_gen_product_and_truncated(tmp_path, capsys):
    out = tmp_path / "prod.json"
    code, report = run(capsys, "gen", "--kind", "product", "--cycles", "7,9",
                       "--out", str(out))
    assert code == 0 and json.loads(out.read_text())["size"] == 16
    code, report = run(capsys, "gen", "--kind", "product", "--truncated", "4",
                       "--out", str(out))
    assert code == 0 and json.loads(out.read_text())["size"] == 10


def test_gen_swap(capsys):
    code, report = run(capsys, "gen", "--kind", "swap")
    assert code == 0 and report["system"] == swap_example().as_dict()


@pytest.mark.parametrize("bad", [["--kind", "cycle", "--m", "0"],
                                 ["--kind", "random", "--num-blocks", "3:1"]],
                         ids=["m-zero", "num-blocks-reversed"])
def test_refused_gen_leaves_its_out_file(tmp_path, capsys, bad):
    # gen's --out is the system file: a refusal reports on stdout only.
    out = tmp_path / "sys.json"
    assert main(["gen", "--kind", "cycle", "--m", "3", "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    code = main(["gen", *bad, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["outcome"] == "rejected"
    assert out.read_bytes() == before


def test_decompose_report_shape(tmp_path, capsys):
    path = tmp_path / "c5.json"
    save(single_cycle(5), path)
    code, report = run(capsys, "decompose", "--system", str(path), "--p", "0,2")
    assert code == 0
    assert report["p"] == [0, 2]
    assert report["parts"] == {"2": [2], "3": [0]}
    assert report["n_of_p"] == ["3", "0", "2", "0", "0"]
    assert report["kac_ok"] is True


def test_recurrent_command(tmp_path, capsys):
    path = tmp_path / "two.json"
    save(direct_product([single_cycle(3), single_cycle(4)]), path)
    code, report = run(capsys, "recurrent", "--system", str(path),
                       "--p", "0", "--q", "4")
    assert code == 0 and report["recurrent"] is False


def test_tower_command_with_csv(tmp_path, capsys):
    path = tmp_path / "c7.json"
    save(single_cycle(7), path)
    csv_path = tmp_path / "levels.csv"
    code, report = run(capsys, "tower", "--system", str(path), "--p", "0",
                       "--n", "3", "--csv", str(csv_path))
    assert code == 0
    assert report["base"] == [0, 4]
    assert report["certificate"]["holds"] is True
    assert report["certificate"]["lhs"] == ["6/7"] * 7
    assert csv_path.read_text().startswith("level,")


def test_tower_eps_pass_and_reject(tmp_path, swap_file, capsys):
    path = tmp_path / "c12.json"
    save(single_cycle(12), path)
    code, report = run(capsys, "tower-eps", "--system", str(path),
                       "--n", "2", "--eps", "1/5")
    assert code == 0 and report["residual"] == []

    code, report = run(capsys, "tower-eps", "--system", swap_file,
                       "--n", "3", "--eps", "1/4")
    assert code == 2
    assert report["kind"] == "NotAperiodicAtHorizon"


def test_tower_ls_command(tmp_path, capsys):
    merged = with_single_block(
        direct_product([single_cycle(12), single_cycle(12)])
    )
    path = tmp_path / "merged.json"
    save(merged, path)
    v = ",".join(str(i) for i in range(24))
    code, report = run(capsys, "tower-ls", "--system", str(path), "--v", v,
                       "--n", "2", "--eps", "1/5")
    assert code == 0
    assert report["certificate"]["name"] == "ls-residual-mass-bound"

    code, report = run(capsys, "tower-eps", "--system", str(path),
                       "--n", "2", "--eps", "1/5")
    assert code == 2 and report["kind"] == "NotConditionallyErgodic"


def test_tower_ls_reads_only_the_weights_on_v(tmp_path, capsys):
    # A force-admitted system whose weights break tau-invariance only off v:
    # the L_S tower on v never reads them.
    raw = direct_product([single_cycle(12), single_cycle(12)]).as_dict()
    raw["weights"][19] = "5"
    path = tmp_path / "w24.json"
    path.write_text(json.dumps(raw))
    code, report = run(capsys, "tower-ls", "--system", str(path), "--v",
                       ",".join(map(str, range(12))), "--n", "2", "--eps", "1/5",
                       "--force")
    assert code == 0 and report["outcome"] == "pass"
    certificates = [report["certificate"], *report["extra_certificates"]]
    assert len(certificates) == 4 and all(c["holds"] for c in certificates)
    # On the cycle that breaks it, the first point of v that does is the witness.
    code, report = run(capsys, "tower-ls", "--system", str(path), "--v",
                       ",".join(map(str, range(12, 24))), "--n", "2", "--eps", "1/5",
                       "--force")
    assert code == 2 and report["checks"] == [
        {"name": "weights-tau-invariant", "passed": False, "witness": 18}]


def test_aperiodic_command(tmp_path, capsys):
    path = tmp_path / "p35.json"
    save(direct_product([single_cycle(3), single_cycle(5)]), path)
    v = ",".join(str(i) for i in range(8))
    code, report = run(capsys, "aperiodic", "--system", str(path), "--v", v,
                       "--N", "3", "--mode", "both")
    assert code == 0
    assert report["results"] == {"criterion": True, "definitional": True}
    assert report["agree"]
    code, report = run(capsys, "aperiodic", "--system", str(path), "--v", v,
                       "--N", "4", "--mode", "definitional")
    assert code == 0
    assert report["results"] == {"definitional": False}
    assert report["agree"]
    # The definitional oracle refuses above 12 points; an empty v and N = 0
    # are refused as in criterion mode.
    c13 = tmp_path / "c13.json"
    save(single_cycle(13), c13)
    code, report = run(capsys, "aperiodic", "--system", str(c13), "--v", "0",
                       "--N", "3", "--mode", "definitional")
    assert code == 2 and report == {
        "outcome": "rejected", "kind": "DomainError",
        "error": "definitional mode is exhaustive and refused for |Omega| = 13 > 12; "
                 "use criterion mode"}
    for bad in (["--v", "", "--N", "3"], ["--v", "0", "--N", "0"]):
        refusal = run(capsys, "aperiodic", "--system", str(path), *bad)
        assert refusal[0] == 2
        assert run(capsys, "aperiodic", "--system", str(path), *bad,
                   "--mode", "definitional") == refusal


def test_approx_manual_and_auto(tmp_path, capsys):
    c7 = tmp_path / "c7.json"
    save(single_cycle(7), c7)
    code, report = run(capsys, "approx", "--system", str(c7), "--manual",
                       "--p", "0", "--n", "3")
    assert code == 0
    assert report["tau_prime"] == [5, 1, 2, 3, 4, 6, 0]
    assert report["certificate"]["mode"] == "closed-form"
    assert report["certificate"]["components_checked"] == 5
    # the coordinatewise max over all 2^7 components
    assert report["certificate"]["worst_observed"] == ["4/7"] * 7

    c100 = tmp_path / "c100.json"
    save(single_cycle(100), c100)
    code, report = run(capsys, "approx", "--system", str(c100), "--eps", "1/2")
    assert code == 0
    assert report["inputs"] == {"system_digest": single_cycle(100).digest(),
                                "manual": False}
    assert report["certificate"]["mode"] == "closed-form"
    assert report["certificate"]["majorant"]["holds"] is True
    assert report["certificate"]["worst_observed"] == ["3/25"] * 100
    assert report["certificate"]["holds"] is True
    for gone in (["--samples", "10000"], ["--seed", "3"]):
        assert main(["approx", "--system", str(c100), "--eps", "1/2", *gone]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    code, report = run(capsys, "approx", "--system", str(c7), "--eps", "1/2")
    assert code == 2  # 7-cycle is far too short for the auto construction


@pytest.mark.parametrize("manual_only", [["--p", "0", "--n", "2"], ["--p", "0"],
                                         ["--n", "2"]], ids=["p-and-n", "p", "n"])
def test_approx_reads_p_and_n_only_with_manual(tmp_path, capsys, manual_only):
    # Theorem mode picks its own base and height, so --p and --n are refused
    # rather than ignored.
    c100 = tmp_path / "c100.json"
    save(single_cycle(100), c100)
    code = main(["approx", "--system", str(c100), "--eps", "1/2", *manual_only])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: approx --p and --n need --manual\n"


def test_suite_command_and_repro(capsys):
    code, report = run(capsys, "suite", "kac", "--trials", "5", "--seed", "9")
    assert code == 0
    assert report["passed"] == 5 and report["outcome"] == "pass"
    code, report = run(capsys, "suite", "all", "--trials", "1", "--seed", "0")
    assert code == 0 and report["total"] == 5


def test_suite_report_is_deterministic(capsys, monkeypatch):
    # Trials run serially; CEPSKIT_PARALLEL, once a pool width, is not read.
    reports = []
    for raw in (None, "2", "abc"):
        if raw is None:
            monkeypatch.delenv("CEPSKIT_PARALLEL", raising=False)
        else:
            monkeypatch.setenv("CEPSKIT_PARALLEL", raw)
        code, report = run(capsys, "suite", "poincare", "--trials", "8",
                           "--seed", "3")
        assert code == 0
        report["timing_seconds"] = 0
        reports.append(report)
    assert reports[0]["inputs"] == {"trials": 8, "seed": 3, "first_trial": 0}
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_cli_does_not_import_a_process_pool(tmp_path):
    # A verdict runs in one process; nothing the CLI imports loads a pool.
    path = tmp_path / "c12.json"
    save(single_cycle(12), path)
    script = (
        "import sys\n"
        "import cepskit.cli\n"
        "code = cepskit.cli.main(['kac', '--system', sys.argv[1], '--p', '0'])\n"
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing')\n"
        "             if m in sys.modules], file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([executable, "-c", script, str(path)], capture_output=True,
                          env=env, text=True, timeout=60)
    assert json.loads(done.stdout)["equal"] is True
    assert done.stderr == "0 []\n"


def test_suite_failure_carries_repro_line(capsys, monkeypatch):
    from cepskit import suites

    def broken(suite, master_seed, index):
        return ["synthetic failure"] if index == 2 else []

    monkeypatch.setattr(suites, "run_trial", broken)
    code, report = run(capsys, "suite", "kac", "--trials", "4", "--seed", "11")
    assert code == 1 and report["outcome"] == "fail"
    (failure,) = report["failures"]
    assert failure["trial"] == 2
    assert failure["repro"] == ("cepskit suite kac --trials 1 --seed 11 "
                                "--first-trial 2")


def test_approx_csv_output(tmp_path, capsys):
    path = tmp_path / "c7.json"
    save(single_cycle(7), path)
    csv_path = tmp_path / "dist.csv"
    code, _ = run(capsys, "approx", "--system", str(path), "--manual",
                  "--p", "0", "--n", "3", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "coordinate,worst_distance"
    assert len(lines) == 8


def test_demo_paper_examples(capsys):
    code, report = run(capsys, "demo-paper-examples")
    assert code == 0
    assert report["outcome"] == "pass"
    names = [e["name"] for e in report["entries"]]
    assert "swap: Tp" in names and "7-cycle: tau'" in names


def test_report_out_flag(tmp_path, swap_file, capsys):
    out = tmp_path / "report.json"
    code, _ = run(capsys, "kac", "--system", swap_file, "--p", "0",
                  "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["equal"] is True


def test_force_load_for_counterexample_demo(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "weights": ["1/2", "1/2"],
                                "blocks": [[0], [1]], "tau": [1, 0]}))
    code, report = run(capsys, "decompose", "--system", str(path), "--p", "0")
    assert code == 2  # refused without --force
    code, report = run(capsys, "decompose", "--system", str(path), "--p", "0",
                       "--force")
    assert code == 0
    assert report["parts"] == {"2": [0]}


# -- one load path --

_UNREADABLE = {
    "missing": None,
    "directory": None,
    "invalid-json": b"{not json",
    "non-utf8": b"\xff\xfe{}",
    "json-array": b"[1, 2, 3]",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", [["validate"], ["kac", "--p", "0"]],
                         ids=["validate", "kac"])
@pytest.mark.parametrize("kind", list(_UNREADABLE))
def test_unreadable_system_file_is_exit_3(tmp_path, capsys, kind, command):
    path = tmp_path / "sys.json"
    if kind == "directory":
        path.mkdir()
    elif _UNREADABLE[kind] is not None:
        path.write_bytes(_UNREADABLE[kind])
    code = main([command[0], "--system", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and str(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("field, value, witness", [
    ("blocks", [[0, 1.9]], 1.9),
    ("tau", [True, False], True),
    # Containers must be JSON arrays, not strings or objects.
    ("weights", "11", "11"),
    ("tau", {"0": 1, "1": 0}, {"0": 1, "1": 0}),
])
def test_non_integer_indices_fail_parseable(tmp_path, capsys, field, value, witness):
    raw = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0, 1]], "tau": [1, 0]}
    raw[field] = value
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(raw))
    code, report = run(capsys, "validate", "--system", str(path))
    assert code == 2
    assert report["checks"] == [{"name": "parseable", "passed": False,
                                 "witness": witness}]
    code, report = run(capsys, "kac", "--system", str(path), "--p", "0")
    assert code == 2 and report["kind"] == "InvalidSystem"
    assert report["checks"][0]["witness"] == witness


def test_height_equal_to_size_is_accepted(tmp_path, capsys):
    path = tmp_path / "c12.json"
    save(single_cycle(12), path)
    code, report = run(capsys, "tower", "--system", str(path), "--p", "0", "--n", "12")
    assert code == 0 and report["residual"] == []
    code, report = run(capsys, "approx", "--system", str(path), "--manual",
                       "--p", "0", "--n", "12")
    assert code == 0 and report["tau_prime"] == list(single_cycle(12).tau)


def test_huge_declared_size_gets_a_small_report(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"size": 1_000_000, "weights": ["1"],
                                "blocks": [[0]], "tau": [0]}))
    assert path.stat().st_size < 100
    code = main(["validate", "--system", str(path)])
    out = capsys.readouterr().out
    assert code == 2 and len(out) < 1024
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == ["size-positive", "weights-wellformed",
                            "weights-strictly-positive", "blocks-partition",
                            "tau-permutation"]
    assert checks["blocks-partition"]["witness"] == 1  # the first missing index


@pytest.mark.parametrize("argv", [
    ["kac", "--system", "{swap}", "--p", "5"],
    ["recurrent", "--system", "{swap}", "--p=-1", "--q", "0"],
    ["suite", "kac", "--trials", "0"],
    ["tower", "--system", "{c12}", "--p", "0", "--n", "13"],
    ["approx", "--system", "{c12}", "--manual", "--p", "0", "--n", "13"],
], ids=["kac-p-too-large", "recurrent-p-negative", "suite-zero-trials",
        "tower-n-above-size", "approx-manual-n-above-size"])
def test_out_of_range_arguments_are_exit_3(swap_file, tmp_path, capsys, argv):
    c12 = tmp_path / "c12.json"
    save(single_cycle(12), c12)
    code = main([arg.format(swap=swap_file, c12=c12) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, error", [
    (["gen", "--kind", "cycle"], "gen --kind cycle needs --m"),
    (["gen", "--kind", "product"], "gen --kind product needs --cycles or --truncated"),
    (["approx", "--system", "{c12}", "--manual", "--n", "2"],
     "approx --manual needs --p and --n"),
    (["approx", "--system", "{c12}", "--manual", "--p", "0"],
     "approx --manual needs --p and --n"),
    (["approx", "--system", "{c12}"], "approx needs --eps (or --manual)"),
], ids=["gen-cycle-m", "gen-product", "approx-manual-p", "approx-manual-n",
        "approx-eps"])
def test_missing_option_is_exit_3(tmp_path, capsys, argv, error):
    c12 = tmp_path / "c12.json"
    save(single_cycle(12), c12)
    code = main([arg.format(c12=c12) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {error}\n")


def test_cli_load_reads_once_and_validates_once(tmp_path, capsys, monkeypatch):
    n = 9
    path = tmp_path / "c9.json"
    save(single_cycle(n), path)
    forced = tmp_path / "forced.json"
    forced.write_text(json.dumps({"size": 2, "weights": ["1/2", "1/2"],
                                  "blocks": [[0], [1]], "tau": [1, 0]}))
    counts = Counter()
    validating = []

    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) in (str(path), str(forced)):
            counts["open"] += 1
        return real_open(file, *args, **kwargs)

    real_validate = system.validate_ceps

    def counting_validate(candidate):
        counts["validate_ceps"] += 1
        validating.append(True)
        try:
            return real_validate(candidate)
        finally:
            validating.pop()

    real_validate_parts = system.validate_parts

    def counting_validate_parts(*args):
        counts["validate_parts"] += 1
        return real_validate_parts(*args)

    def counting_while_validating(name, real):
        def counted(self, *args):
            if validating:
                counts[f"{name} while validating"] += 1
            return real(self, *args)
        return counted

    real_post_init = GroundSystem.__post_init__

    def counting_post_init(self, check_axioms):
        counts["construct"] += 1
        real_post_init(self, check_axioms)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(system, "validate_ceps", counting_validate)
    monkeypatch.setattr(system, "validate_parts", counting_validate_parts)
    for name in ("expectation", "koopman", "component_expectation"):
        monkeypatch.setattr(GroundSystem, name, counting_while_validating(
            name, getattr(GroundSystem, name)))
    monkeypatch.setattr(GroundSystem, "__post_init__", counting_post_init)
    # One validate_parts per load, --force included; no T or S operator while
    # validating: Te = e sums scaled weights per block, Se = e reads the
    # tau_inverse table, and TS = T compares points.
    once = {"open": 1, "validate_ceps": 1, "validate_parts": 1, "construct": 1}
    code, report = run(capsys, "kac", "--system", str(path), "--p", "0")
    assert code == 0 and report["equal"] is True
    assert counts == once
    counts.clear()
    code, report = run(capsys, "decompose", "--system", str(forced), "--p", "0",
                       "--force")
    assert code == 0 and report["kac_ok"] is None
    assert counts == once


# -- one verdict path --

_C12_ALL = ",".join(map(str, range(12)))


@pytest.mark.parametrize("argv", [
    ["kac", "--system", "{swap}", "--p", "0"],
    ["decompose", "--system", "{c12}", "--p", "0,5"],
    ["recurrent", "--system", "{swap}", "--p", "0", "--q", "1"],
    ["tower", "--system", "{c12}", "--p", "0", "--n", "3"],
    ["tower-eps", "--system", "{c12}", "--n", "2", "--eps", "1/5"],
    ["tower-ls", "--system", "{c12}", "--v", _C12_ALL, "--n", "2", "--eps", "1/5"],
    ["aperiodic", "--system", "{c12}", "--v", "0", "--N", "3"],
    ["approx", "--system", "{c12}", "--manual", "--p", "0", "--n", "3"],
], ids=lambda argv: argv[0])
def test_every_verdict_shares_the_envelope(swap_file, tmp_path, capsys, argv):
    c12 = tmp_path / "c12.json"
    save(single_cycle(12), c12)
    digests = {"{swap}": swap_example().digest(), "{c12}": single_cycle(12).digest()}
    code, report = run(capsys, *(a.format(swap=swap_file, c12=c12) for a in argv))
    assert code == 0
    keys = list(report)
    assert keys[:2] == ["scenario", "inputs"] and keys[-1] == "timing_seconds"
    assert report["scenario"] == argv[0]
    assert report["inputs"]["system_digest"] == digests[argv[2]]
    timing = report["timing_seconds"]
    assert isinstance(timing, (int, float)) and timing >= 0


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+3", "\t3", "3.0"])
@pytest.mark.parametrize("argv", [
    ["kac", "--system", "{swap}", "--p", "{v}"],
    ["recurrent", "--system", "{swap}", "--p", "0", "--q", "0,{v}"],
    ["tower", "--system", "{swap}", "--p", "0", "--n", "{v}"],
    ["gen", "--kind", "cycle", "--m", "{v}"],
    ["gen", "--kind", "product", "--cycles", "2,{v}"],
    ["gen", "--kind", "random", "--num-blocks", "1:{v}"],
    ["suite", "kac", "--trials", "{v}"],
    ["gen", "--kind", "random", "--seed", "{v}"],
], ids=["p", "q", "n", "m", "cycles", "range", "trials", "seed"])
def test_integer_inputs_are_strict(swap_file, capsys, argv, value):
    """Every integer input is -?[0-9]+ in ASCII spaces; int() would read these."""
    code = main([a.format(swap=swap_file, v=value) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_integer_inputs_take_surrounding_spaces(swap_file, capsys):
    code, report = run(capsys, "kac", "--system", swap_file, "--p", "0, 1")
    assert code == 0 and report["inputs"]["p"] == [0, 1]
    code, report = run(capsys, "tower", "--system", swap_file, "--p", " 0", "--n", "2 ")
    assert code == 0 and report["inputs"]["n"] == 2
    code, report = run(capsys, "suite", "kac", "--trials", "1", "--seed", " -7 ")
    assert code == 0 and report["inputs"]["seed"] == -7


@pytest.mark.parametrize("value", ["0.5", "1e-1", "0.2e0", "1_0", "+1/5", "\u0663",
                                   "\t1/5", "1/5.0", "1 /5"])
@pytest.mark.parametrize("argv", [
    ["tower-eps", "--system", "{swap}", "--n", "2", "--eps", "{v}"],
    ["tower-ls", "--system", "{swap}", "--v", "0,1", "--n", "2", "--eps", "{v}"],
    ["approx", "--system", "{swap}", "--eps", "{v}"],
    ["approx", "--system", "{swap}", "--manual", "--p", "0", "--n", "2",
     "--eps", "{v}"],
], ids=["tower-eps", "tower-ls", "approx", "approx-manual"])
def test_eps_is_strict(swap_file, capsys, argv, value):
    """--eps is -?[0-9]+(/[0-9]+)? in ASCII spaces; Fraction() would read these."""
    code = main([a.format(swap=swap_file, v=value) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (f"error: bad rational {value!r}: "
                            f"Invalid literal for Fraction: {value!r}\n")


@pytest.mark.parametrize("weight", ["\u0663", "0.5e1", "0.5", "1e-1", "+3", "1_0",
                                    "\t1/2", "1/2 ", "3/1.0"])
def test_file_weights_are_strict(tmp_path, capsys, weight):
    """A weight outside the rational grammar fails parseable, with exit 2.

    With Fraction() the pieces would parse ("0.5e1" is 5) and every check
    of the system below would pass; "1/2 " is the one accepted here.
    """
    raw = {"size": 2, "weights": [weight, "0.5e1" if weight == "\u0663" else "1"],
           "blocks": [[0], [1]], "tau": [0, 1]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(raw))
    code, report = run(capsys, "validate", "--system", str(path))
    if weight == "1/2 ":
        assert code == 0 and report["valid"] is True
        return
    assert code == 2
    assert report["checks"] == [{
        "name": "parseable", "passed": False,
        "witness": f"cannot parse rational from {weight!r}: "
                   f"Invalid literal for Fraction: {weight!r}",
    }]


# -- one parser per process --

def _help_text(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        parse([*argv, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [[]] + [[name] for name in
                                            [*cli._VERDICTS, *cli._COMMANDS]],
                         ids=lambda argv: argv[0] if argv else "cepskit")
def test_cached_parser_help_matches_a_fresh_parser(capsys, command):
    fresh = _help_text(cli.build_parser().parse_args, command, capsys)
    assert fresh.startswith("usage: cepskit")
    assert _help_text(main, command, capsys) == fresh
    assert _help_text(main, command, capsys) == fresh


def test_cached_parser_is_built_once_and_ignores_the_environment(capsys, monkeypatch):
    explicit = {}
    for seed in ("5", "0"):
        assert main(["gen", "--kind", "random", "--seed", seed]) == 0
        explicit[seed] = capsys.readouterr().out
    assert explicit["5"] != explicit["0"]

    builds = cli._cached_parser.cache_info().misses
    for value in ("5", "abc", None):
        if value is None:
            monkeypatch.delenv("CEPSKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("CEPSKIT_SEED", value)
        code = main(["gen", "--kind", "random"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, explicit["0"], ""), value
    assert cli._cached_parser.cache_info().misses == builds == 1


@pytest.mark.parametrize("argv, error, whole", [
    (["aperiodic", "--system", "{swap}", "--v", "0", "--n", "3"],
     "the following arguments are required: --N", {"--n": "--N"}),
    (["aperiodic", "--system", "{swap}", "--v", "0", "--N", "3", "--n", "3"],
     "unrecognized arguments: --n 3", {"--n": "--N"}),
    (["kac", "--sys", "{swap}", "--p", "0"],
     "the following arguments are required: --system", {"--sys": "--system"}),
    (["suite", "kac", "--tri", "2"], "unrecognized arguments: --tri 2",
     {"--tri": "--trials"}),
], ids=["aperiodic-n", "aperiodic-n-after-N", "kac-sys", "suite-tri"])
def test_every_option_has_one_spelling(swap_file, capsys, argv, error, whole):
    """No alias and no prefix of an option name is read: both are exit 3."""
    argv = [a.format(swap=swap_file) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: {error}\n")
    # The same argv with each option spelled in full passes.
    assert main([whole.get(a, a) for a in argv]) == 0
    assert capsys.readouterr().err == ""


def test_failed_parse_leaves_the_next_call_alone(swap_file, capsys):
    argv = ["gen", "--kind", "random", "--num-blocks", "2:2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    for bad in (["gen", "--kind", "random", "--seed", "x", "--num-blocks", "3:3"],
                ["gen", "--kind", "random", "--seed"],
                ["gen", "--kind", "nope"],
                ["kac", "--system", swap_file, "--p"],
                ["tower", "--system", swap_file, "--p", "0", "--n", "two"],
                ["no-such-command"],
                []):
        assert main(bad) == 3
    with pytest.raises(SystemExit):
        main(["gen", "--seed", "9", "--help"])
    assert main(["gen", "--kind", "random", "--seed", "9", "--num-blocks", "1:1"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_validate_takes_no_force(swap_file, capsys):
    code = main(["validate", "--system", swap_file, "--force"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "--force" in captured.err


_VIOLATING = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0], [1]],
              "tau": [1, 0]}


@pytest.mark.parametrize("argv", [
    ["kac", "--system", "{c12}", "--p", "0", "--out", "{missing}/x.json"],
    ["tower", "--system", "{c12}", "--p", "0", "--n", "3", "--csv", "{missing}/x.csv"],
    ["tower-eps", "--system", "{c12}", "--n", "2", "--eps", "1/5",
     "--csv", "{missing}/x.csv"],
    ["approx", "--system", "{c12}", "--manual", "--p", "0", "--n", "2",
     "--csv", "{missing}/x.csv"],
    ["gen", "--kind", "cycle", "--m", "3", "--out", "{missing}/x.json"],
    ["validate", "--system", "{c12}", "--out", "{missing}/x.json"],
    ["kac", "--system", "{c12}", "--p", "0", "--out", "{tmp}"],
    # Reports that would exit 1 or 2.
    ["kac", "--system", "{violating}", "--p", "0", "--force",
     "--out", "{missing}/x.json"],
    ["approx", "--system", "{c12}", "--manual", "--p", "0", "--n", "2",
     "--eps", "1/5", "--csv", "{missing}/x.csv"],
    ["kac", "--system", "{violating}", "--p", "0", "--out", "{missing}/x.json"],
    ["tower-eps", "--system", "{c12}", "--n", "2", "--eps", "1/100",
     "--out", "{missing}/x.json"],
], ids=["kac-out", "tower-csv", "tower-eps-csv", "approx-csv", "gen-out",
        "validate-out", "out-is-a-directory", "exit-1-out", "exit-1-csv",
        "exit-2-invalid-out", "exit-2-rejected-out"])
def test_unwritable_output_is_exit_3(tmp_path, capsys, argv):
    c12, violating = tmp_path / "c12.json", tmp_path / "violating.json"
    save(single_cycle(12), c12)
    violating.write_text(json.dumps(_VIOLATING))
    argv = [a.format(c12=c12, violating=violating, tmp=tmp_path,
                     missing=tmp_path / "missing-dir") for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing-dir").exists()


def _cli_with_stdout(stdout, *argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI run in a child process on this stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([executable, "-m", "cepskit.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    return done.returncode, done.stderr


def test_closed_stdout_is_exit_3(tmp_path):
    # As in `cepskit tower-eps ... | head -c 10`: the reader has gone.
    path = tmp_path / "c12.json"
    save(single_cycle(12), path)
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _cli_with_stdout(write, "tower-eps", "--system", str(path),
                                     "--n", "2", "--eps", "1/5")
    finally:
        os.close(write)
    assert (code, err) == (3, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_exit_3(swap_file):
    with open("/dev/full", "w") as full:
        code, err = _cli_with_stdout(full, "kac", "--system", swap_file, "--p", "0")
    assert (code, err) == (3, "error: cannot write stdout: No space left on device\n")


@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "cycle", "--m", "1000000000000"],
    ["gen", "--kind", "random", "--cycle-lengths", "1000000000000:1000000000000"],
])
def test_out_of_memory_is_exit_3(argv):
    # The child's address space is capped at 1 GiB, so the multi-terabyte
    # allocation fails at once instead of being attempted for real.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([executable, "-m", "cepskit.cli", *argv],
                          capture_output=True, env=env, text=True, timeout=60,
                          preexec_fn=cap_address_space)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: out of memory (the input is too large)\n"


def test_refusal_reports_reach_a_writable_out(tmp_path, capsys, monkeypatch):
    # Exit-1 and exit-2 reports go both to stdout and to --out.
    violating = tmp_path / "violating.json"
    violating.write_text(json.dumps(_VIOLATING))
    out = tmp_path / "report.json"
    for force in (["--force"], []):
        code = main(["kac", "--system", str(violating), "--p", "0",
                     "--out", str(out), *force])
        printed = capsys.readouterr().out
        assert code == 2
        assert json.loads(printed) == json.loads(out.read_text())
    # No valid input fails a theorem, so exit 1 is provoked by a stand-in.
    def violated(sys, p):
        raise TheoremViolation("stand-in violation")

    monkeypatch.setattr(cli, "kac_certificate", violated)
    swap = tmp_path / "swap.json"
    save(swap_example(), swap)
    code = main(["kac", "--system", str(swap), "--p", "0", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    assert json.loads(printed) == json.loads(out.read_text())
    assert json.loads(printed)["error"] == "stand-in violation"


def test_forced_invalid_system_never_exits_1(tmp_path, capsys):
    # The Kac identity fails on a forced system with one weight changed:
    # exit 2, both sides kept.
    raw = single_cycle(12).as_dict()
    raw["weights"][3] = "5"
    path = tmp_path / "w12.json"
    path.write_text(json.dumps(raw))
    code, report = run(capsys, "kac", "--system", str(path), "--p", "0", "--force")
    assert code == 2 and report["equal"] is False and report["outcome"] == "fail"
    assert report["Tn(p)"] != report["P_Tp_e"] and len(report["Tn(p)"]) == 12
    code, report = run(capsys, "decompose", "--system", str(path), "--p", "0",
                       "--force")
    assert code == 2 and report["kac_ok"] is False
    # A theorem check that raises there is a rejection too.
    code, report = run(capsys, "approx", "--system", str(path), "--manual",
                       "--p", "0,3", "--n", "2", "--force")
    assert code == 2 and report["kind"] == "TheoremViolation"
    assert report["error"].startswith("TS' = T fails on indicator of 2")
    code, report = run(capsys, "tower", "--system", str(path), "--p", "0,1",
                       "--n", "3", "--force")
    assert code == 2 and report["kind"] == "TheoremViolation"
    # The same system, valid, passes.
    save(single_cycle(12), path)
    code, report = run(capsys, "kac", "--system", str(path), "--p", "0", "--force")
    assert code == 0 and report["equal"] is True


def test_forced_non_orbit_blocks_are_not_conditionally_ergodic(tmp_path, capsys):
    # Each block {0}, {1} is a proper part of the one orbit {0, 1}.
    path = tmp_path / "violating.json"
    path.write_text(json.dumps(_VIOLATING))
    for argv in (["kac", "--p", "0"], ["tower", "--p", "0", "--n", "2"],
                 ["tower-eps", "--n", "2", "--eps", "1/5"],
                 ["approx", "--eps", "1/2"]):
        code, report = run(capsys, argv[0], "--system", str(path), *argv[1:],
                           "--force")
        assert code == 2 and report["kind"] == "NotConditionallyErgodic", argv
        assert report["error"] == ("system is not conditionally ergodic: block [0] "
                                   "is a proper part of the orbit [0, 1]")
    code, report = run(capsys, "decompose", "--system", str(path), "--p", "0",
                       "--force")
    assert code == 0 and report["kac_ok"] is None


def test_manual_eps_below_the_supremum_is_exit_2(tmp_path, capsys):
    path = tmp_path / "c12.json"
    save(single_cycle(12), path)
    code, report = run(capsys, "approx", "--system", str(path), "--manual",
                       "--p", "0", "--n", "2", "--eps", "1/5")
    assert code == 2 and report["outcome"] == "fail"
    cert = report["certificate"]
    assert cert["holds"] is False and cert["eps"] == "1/5"
    # tau and tau' differ at 11 points, whose edges of weight 1/12 form one
    # odd sigma-cycle: all but one of them are cut.
    assert cert["components_checked"] == 11
    assert cert["worst_observed"] == ["5/6"] * 12
    # At the supremum itself the bound holds.
    code, report = run(capsys, "approx", "--system", str(path), "--manual",
                       "--p", "0", "--n", "2", "--eps", "5/6")
    assert code == 0 and report["certificate"]["holds"] is True


def test_tower_csv_level_masses_are_dense_t(tmp_path, capsys):
    # Two blocks; every level of the tower over p = {0} misses the second.
    sys = direct_product([single_cycle(5), single_cycle(3)])
    path, csv_path = tmp_path / "prod.json", tmp_path / "levels.csv"
    save(sys, path)
    code, report = run(capsys, "tower", "--system", str(path), "--p", "0",
                       "--n", "2", "--csv", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "level,members,mass_per_block"
    for i, level in enumerate(report["levels"]):
        mass = sys.expectation(sys.indicator(level))
        expected = " ".join(format_rational(mass[min(b)]) for b in sys.blocks)
        members = " ".join(map(str, level))
        assert rows[i + 1] == f"{i},{members},{expected}"
    assert rows[1].endswith(" 0")


@pytest.mark.parametrize("command", [
    ["validate"], ["kac", "--p", "0,5"], ["tower-eps", "--n", "2", "--eps", "1/5"],
    ["approx", "--eps", "1/2"],
], ids=lambda command: command[0])
def test_verdict_leaves_no_cyclic_garbage(tmp_path, capsys, command):
    """A verdict's objects, its report included, are freed by reference counting."""
    path = tmp_path / "c70.json"  # approx --eps 1/2 needs a cycle of 66 or more
    save(single_cycle(70), path)
    argv = [*command, "--system", str(path)]
    assert main(argv) == 0  # the first call builds the process's one parser
    gc.disable()  # so that no automatic collection runs inside main
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_reports_are_json_dumps_indent_2(tmp_path, capsys):
    """In process, every command of CI's report-format step: stdout is exactly
    the text json.dumps(indent=2) writes. Then tower-ls on the first of two
    blocks of a non-ergodic system: every certificate side has one entry per
    point of the system, not of the block."""
    c400, p8, r1 = (str(tmp_path / name) for name in ("c400.json", "p8.json", "r1.json"))
    for argv in (["--kind", "cycle", "--m", "400", "--out", c400],
                 ["--kind", "product", "--cycles", "3,5", "--out", p8],
                 ["--kind", "random", "--non-ergodic", "--seed", "1", "--num-blocks",
                  "2:2", "--cycle-lengths", "20:40", "--out", r1]):
        assert main(["gen", *argv]) == 0
    capsys.readouterr()

    def report(*argv):
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        return json.loads(out)

    for command in (["validate"], ["kac", "--p", "0,5"],
                    ["tower-eps", "--n", "2", "--eps", "1/5"], ["approx", "--eps", "1/2"],
                    ["approx", "--manual", "--p", "0,5", "--n", "3"],
                    ["decompose", "--p", "0,5"], ["tower", "--p", "0,5", "--n", "3"],
                    ["recurrent", "--p", "0", "--q", "5"],
                    ["aperiodic", "--v", "0,1,2", "--N", "3"],
                    ["tower-ls", "--v", ",".join(map(str, range(400))), "--n", "2",
                     "--eps", "1/5"]):
        report(*command, "--system", c400)
    report("aperiodic", "--v", "0,1,2,3,4,5,6,7", "--N", "3", "--mode", "both",
           "--system", p8)
    for command in (["suite", "all", "--trials", "3", "--seed", "1"],
                    ["demo-paper-examples"], ["gen", "--kind", "swap"],
                    ["gen", "--kind", "random", "--seed", "1"]):
        report(*command)

    raw = json.loads(Path(r1).read_text())
    ls = report("tower-ls", "--v", ",".join(map(str, raw["blocks"][0])), "--n", "2",
                "--eps", "1/5", "--system", r1)
    assert ls["extra_certificates"]
    for cert in (ls["certificate"], *ls["extra_certificates"]):
        assert len(cert["lhs"]) == len(cert["rhs"]) == raw["size"], cert["name"]
