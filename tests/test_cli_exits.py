"""Property test of the CLI exit-code taxonomy over generated argv.

Every verdict subcommand and ``validate`` is driven with arguments drawn
around the edges of the ground set (indices out of range, negative or not
integers, integers that int() reads but the CLI refuses, heights -1..13,
bad rationals and decimals that Fraction() reads but the CLI refuses,
--force on and off, an --out or --csv in a directory that does not exist,
the removed approx --samples and --seed) on small files: valid,
non-ergodic, axiom-violating and malformed. A fixed share of the approx
argv is a valid --manual run on the 12-cycle. No exception may escape
``main``; exit 3 prints nothing on stdout and one ``error: `` line on
stderr; every other exit prints exactly one JSON object. An unwritable
--out and a removed option are always exit 3, and so are a refused --eps
(empty, not a rational, or a decimal) and a refused index once the system
has loaded (neither is ever read as something else). Exit 1 would be a
theorem violation, which none of these files may produce.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from cepskit.cli import main
from cepskit.generators import (
    direct_product,
    single_cycle,
    swap_example,
    truncated_counterexample,
    with_single_block,
)
from cepskit.system import save

AXIOM_VIOLATING = {"size": 2, "weights": ["1/2", "1/2"], "blocks": [[0], [1]],
                   "tau": [1, 0]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    paths = {}
    for name, sys in {
        "swap": swap_example(),
        "cycle12": single_cycle(12),
        "truncated4": truncated_counterexample(4),
        "merged": with_single_block(direct_product([single_cycle(3),
                                                    single_cycle(4)])),
    }.items():
        paths[name] = root / f"{name}.json"
        save(sys, paths[name])
    paths["violating"] = root / "violating.json"
    paths["violating"].write_text(json.dumps(AXIOM_VIOLATING))
    paths["malformed"] = root / "malformed.json"
    paths["malformed"].write_text("{not json")
    files = {name: str(path) for name, path in paths.items()}
    files["missing-dir"] = str(root / "missing-dir")
    return files


# int() reads these as 10, 3 and 3; an index must be -?[0-9]+.
NOT_STRICT = ["1_0", "\u0663", "+3"]
index = st.one_of(st.integers(-2, 13).map(str),
                  st.sampled_from(["x", "1.5", "", " ", "True", *NOT_STRICT]))
index_list = st.lists(index, min_size=1, max_size=4).map(",".join)
height = st.integers(-1, 13).map(str)
# Fraction() reads the decimals as 1/5, 1/2 and 1/10; --eps must be -?[0-9]+(/[0-9]+)?.
REFUSED_EPS = ["1/0", "abc", "", "0.2", "0.5", "1e-1"]
eps = st.sampled_from(["1/5", "1/2", "2", "0", "-1/3", *REFUSED_EPS])
UNWRITABLE = "<missing-dir>/x"  # replaced by a path under a missing directory


@st.composite
def argvs(draw, names):
    command = draw(st.sampled_from(["validate", "kac", "decompose", "recurrent",
                                    "tower", "tower-eps", "tower-ls", "aperiodic",
                                    "approx"]))
    argv = [command, "--system", draw(st.sampled_from(names))]
    if command in ("kac", "decompose", "recurrent", "tower"):
        argv += ["--p", draw(index_list)]
    if command == "recurrent":
        argv += ["--q", draw(index_list)]
    if command in ("tower-ls", "aperiodic"):
        argv += ["--v", draw(index_list)]
    if command in ("tower", "tower-eps", "tower-ls"):
        argv += ["--n", draw(height)]
    if command in ("tower-eps", "tower-ls"):
        argv += ["--eps", draw(eps)]
    if command == "aperiodic":
        argv += ["--N", draw(height),
                 "--mode", draw(st.sampled_from(["criterion", "definitional",
                                                 "both"]))]
    if command == "approx":
        manual = draw(st.integers(0, 2))
        if manual == 0:  # valid: one point of the 12-cycle, a height that fits
            argv[2] = "cycle12"
            argv += ["--manual", "--p", str(draw(st.integers(0, 11))),
                     "--n", str(draw(st.integers(2, 12)))]
        elif manual == 1:
            argv += ["--manual", "--p", draw(index_list), "--n", draw(height)]
        if draw(st.booleans()):
            argv += ["--eps", draw(eps)]
        if draw(st.integers(0, 3)) == 0:  # removed options: always exit 3
            argv += draw(st.sampled_from([["--samples", "20"], ["--seed", "3"]]))
    if command in ("tower", "tower-eps", "approx") and draw(st.booleans()):
        argv += ["--csv", UNWRITABLE]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", UNWRITABLE]
    if draw(st.booleans()):
        argv.append("--force")
    return argv


FILE_NAMES = ["cycle12", "malformed", "merged", "swap", "truncated4", "violating"]


@settings(max_examples=150, deadline=None)
@given(argv=argvs(FILE_NAMES))
@example(argv=["approx", "--system", "cycle12", "--manual", "--p", "0", "--n", "2",
               "--eps", ""])
@example(argv=["approx", "--system", "cycle12", "--eps", ""])
@example(argv=["tower-eps", "--system", "cycle12", "--n", "2", "--eps", "0.2"])
@example(argv=["approx", "--system", "cycle12", "--eps", "1e-1"])
@example(argv=["kac", "--system", "cycle12", "--p", "1_0"])
@example(argv=["tower", "--system", "cycle12", "--p", "0,+3", "--n", "2"])
def test_every_exit_is_in_the_taxonomy(files, argv):
    argv = list(argv)
    argv[2] = files[argv[2]]
    unwritable_out = "--out" in argv
    removed_option = "--samples" in argv or "--seed" in argv
    refused_eps = "--eps" in argv and argv[argv.index("--eps") + 1] in REFUSED_EPS
    refused_index = any(piece in NOT_STRICT
                        for i, a in enumerate(argv) if a in ("--p", "--q", "--v")
                        for piece in argv[i + 1].split(","))
    argv = [a.replace("<missing-dir>", files["missing-dir"]) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert out == "" and err.startswith("error: ")
        return
    assert not unwritable_out and not removed_option
    assert err == ""
    report = json.loads(out)
    assert isinstance(report, dict)
    # The load comes first: only a refused system keeps a refused --eps or a
    # refused index unread.
    assert not refused_eps or report.get("kind") == "InvalidSystem", report
    assert not refused_index or report.get("kind") == "InvalidSystem", report
    # Exit 1 means a theorem violation, and every theorem holds on these files.
    assert code != 1, report
