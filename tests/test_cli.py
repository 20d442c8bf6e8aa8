import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkav import cli
from parkav.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main
from tables import PF_312_321, PK_ROWS

ROOT = Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count(capsys):
    code, out = run(capsys, "count", "--notion", "pk", "--patterns", "321", "--n", "6")
    assert code == EXIT_OK
    assert out == "8553\n"


def test_count_pf_and_short_patterns(capsys):
    code, out = run(capsys, "count", "--notion", "pf", "--patterns", "21", "--n", "4")
    assert (code, out) == (EXIT_OK, "14\n")
    code, out = run(capsys, "count", "--notion", "pk", "--patterns", "12", "--n", "5")
    assert (code, out) == (EXIT_OK, "1\n")


def test_sequence_bfile(capsys):
    code, out = run(
        capsys, "sequence", "--notion", "pf", "--patterns", "312,321",
        "--n-max", "8", "--format", "bfile",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines == [f"{n} {v}" for n, v in zip(range(1, 9), PF_312_321)]
    assert out.endswith("\n")
    # the b-file parses back into the same pairs
    parsed = [tuple(map(int, line.split())) for line in lines]
    assert parsed == list(zip(range(1, 9), PF_312_321))


def test_sequence_json_carries_method(capsys):
    code, out = run(
        capsys, "sequence", "--notion", "pk", "--patterns", "123,132",
        "--n-max", "4", "--format", "json",
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert [r["value"] for r in records] == [1, 3, 8, 21]
    assert records[0]["method"] == "recurrence"
    assert "elapsed_ms" not in records[0]


def test_sequence_csv(capsys):
    code, out = run(
        capsys, "sequence", "--notion", "pk", "--patterns", "21",
        "--n-max", "3", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "n,value,method",
        "1,1,weighted_sum",
        "2,2,weighted_sum",
        "3,6,weighted_sum",
    ]


def test_sequence_pk213_csv(capsys):
    # the {213} row keeps the method label of its Lagrange form
    code, out = run(
        capsys, "sequence", "--notion", "pk", "--patterns", "213",
        "--n-max", "6", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == "n,value,method\n" + "".join(
        f"{n},{v},formula\n" for n, v in zip(range(1, 7), [1, 3, 13, 69, 421, 2867])
    )


def test_sequence_timing_csv(capsys):
    code, out = run(
        capsys, "sequence", "--notion", "pk", "--patterns", "321",
        "--n-max", "8", "--format", "csv", "--timing",
    )
    assert code == EXIT_OK
    header, *lines = out.splitlines()
    assert header == "n,value,method,elapsed_ms"
    records = [line.split(",") for line in lines]
    assert [(int(n), int(v), m) for n, v, m, _ in records] == [
        (n, v, "recurrence") for n, v in zip(range(1, 9), PK_ROWS["321"])
    ]
    assert all(float(ms) >= 0 for *_, ms in records)


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (["count", "--notion", "pk", "--patterns", "132", "--n", "6", "--timing"], "plain"),
        (["count", "--notion", "pk", "--patterns", "132", "--n", "6", "--timing", "--format", "bfile"], "bfile"),
        (["sequence", "--notion", "pk", "--patterns", "321", "--n-max", "4", "--timing"], "bfile"),
        (["sequence", "--timing", "--notion", "pk", "--patterns", "321", "--n-max", "4", "--format", "bfile"], "bfile"),
        (["classes", "--family", "hypoplactic-m", "--m", "2", "--n-max", "4", "--timing"], "bfile"),
        (["classes", "--family", "hypoplactic-m", "--m", "2", "--n-max=4", "--timing"], "bfile"),  # argparse reads it
    ],
)
def test_timing_is_refused_where_no_record_carries_it(capsys, argv, fmt):
    """plain and bfile print no elapsed_ms, so --timing there is a usage
    error before any work."""
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: --timing needs --format csv or json; {fmt} carries no elapsed_ms\n")


@pytest.mark.parametrize("command", ["count", "sequence", "classes"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_timing_is_kept_where_records_carry_it(capsys, command, fmt):
    argv = {
        "count": ["count", "--notion", "pk", "--patterns", "132", "--n", "6"],
        "sequence": ["sequence", "--notion", "pk", "--patterns", "321", "--n-max", "4"],
        "classes": ["classes", "--family", "hypoplactic-m", "--m", "2", "--n-max", "4"],
    }[command]
    code, out = run(capsys, *argv, "--format", fmt, "--timing")
    assert code == EXIT_OK
    assert "elapsed_ms" in out


def test_trace_child_runs_sequence():
    # the benchmark's tracer wraps counting functions by name: a rename
    # must fail here, not in a traced benchmark run
    argv = ["sequence", "--notion", "pk", "--patterns", "321", "--n-max", "5"]

    def call(*cmd):
        return subprocess.run(
            [sys.executable, *cmd, *argv], capture_output=True, text=True, env=_src_env(), cwd=ROOT, timeout=120
        )

    traced = call(str(ROOT / "perfbench" / "trace_child.py"), "t")
    plain = call("-m", "parkav")
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout != ""
    prefix = "perfbench-trace "
    [line] = [line for line in traced.stderr.splitlines() if line.startswith(prefix)]
    # the row reads path_weight_row, not the triangle views the layer wraps
    assert json.loads(line[len(prefix):])["calls"]["counting.triangle"] == 0


def test_benchmark_lookups_resolve():
    # the tracer wraps these module attributes by name, and the pin script
    # reads cli.CLASS_FAMILIES: a deletion must fail here, not in every
    # traced benchmark run
    spec = importlib.util.spec_from_file_location("trace_child", ROOT / "perfbench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)  # defines the tables; main() runs only as a script
    targets = [t for ts in trace_child.LAYERS.values() for t in ts]
    targets += [*trace_child.GENERATORS.values(), *trace_child.COUNTED.values()]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in targets if not callable(getattr(mod, attr, None))]
    assert not missing
    families = cli.CLASS_FAMILIES
    assert sorted(families) == [
        "hypoplactic-m", "hyposylvester-m", "hyposylvester-multi", "metasylvester-m", "metasylvester-multi"
    ]
    assert all(isinstance(value(3, 2), int) for value in families.values())


def test_start_up_loads_only_what_it_runs():
    # json and the oracle load in the commands that use them; fractions, which
    # only the tests' power series use, and a parkav.series load in none; the
    # records need no dataclasses (and so no inspect)
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import parkav.cli; parkav.cli.build_parser(); print(' '.join(sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "parkav.cli" in loaded
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "json", "parkav.series", "parkav.oracle"}
    assert loaded.isdisjoint(unwanted), sorted(loaded & unwanted)


# runs the package the way ``python -S -m parkav`` does; an atexit probe
# writes the names in sys.modules to the file named by the first argument
IMPORT_PROBE = """
import atexit, runpy, sys
probe = sys.argv.pop(1)

def record():
    with open(probe, "w") as f:
        f.write(" ".join(sys.modules))

atexit.register(record)
runpy.run_module("parkav", run_name="__main__", alter_sys=True)
"""


def _loaded_by(tmp_path, *argv):
    probe = tmp_path / "modules"
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(probe), *argv],
        input=b"(()()(()))\n", capture_output=True, env=_src_env(), cwd=ROOT, timeout=120,
    )
    return done, set(probe.read_text().split())


@pytest.mark.parametrize(
    "argv,want,unwanted",
    [
        (
            ["count", "--notion", "pk", "--patterns", "132", "--n", "5"],
            b"621\n",
            {"argparse", "parkav.bijections", "parkav.generalized", "parkav.parking", "parkav.trees"},
        ),
        (
            ["classes", "--family", "metasylvester-multi", "--m", "2", "--n-max", "3"],
            b"1 1\n2 4\n3 27\n",
            {"argparse", "parkav.bijections", "parkav.parking", "parkav.trees"},
        ),
        (
            ["bijection", "--family", "123-132", "--direction", "backward", "--input", "-"],
            b"({2,3},{1},{})\n",
            {"argparse", "parkav.counting", "parkav.paths", "parkav.generalized"},
        ),
    ],
    ids=["count", "classes", "bijection"],
)
def test_a_plain_call_loads_only_its_command(tmp_path, argv, want, unwanted):
    # a plain argv is read without argparse, and each command imports what it runs
    done, loaded = _loaded_by(tmp_path, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, want, b"")
    assert {"parkav.cli", "parkav.permutations"} <= loaded
    assert loaded.isdisjoint(unwanted), sorted(loaded & unwanted)


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["count", "-h"], ["count", "--notion", "zz", "--patterns", "123", "--n", "3"], ["count", "--pat", "1"]],
    ids=["help", "count-help", "usage", "abbreviation"],
)
def test_help_and_usage_errors_come_from_argparse(tmp_path, capsys, argv):
    # anything but a plain argv falls back to argparse, which prints its own bytes
    done, loaded = _loaded_by(tmp_path, *argv)
    assert "argparse" in loaded
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_OK if exited.value.code == 0 else EXIT_USAGE, captured.out.encode(), captured.err.encode()
    )


def test_package_names_resolve_on_first_access():
    # importing the package loads no module; each public name loads its own,
    # and ``from parkav import *`` binds every one
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import parkav; "
        "print(' '.join(m for m in sys.modules if m.startswith('parkav.'))); "
        "scope = {}; exec('from parkav import *', scope); "
        "print(all(scope[name] is getattr(parkav, name) for name in parkav.__all__), len(parkav.__all__))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\nTrue 14\n"
    import parkav

    with pytest.raises(AttributeError):
        parkav.no_such_name


def test_plain_argv_is_read_without_argparse():
    # every benchmark-shaped call takes the direct reader
    for argv in (
        ["count", "--notion", "pk", "--patterns", "132", "--n", "5"],
        ["count", "--n", "5", "--timing", "--patterns", "", "--notion", "pf", "--format", "json"],
        ["sequence", "--notion", "pf", "--patterns", "312,321", "--n-max", "200"],
        ["classes", "--family", "metasylvester-multi", "--m", "3", "--n-max", "40"],
        ["bijection", "--family", "123-213", "--direction", "backward", "--input", "-"],
        ["verify", "--suite", "all", "--n-max", "6"],
        ["verify"],
    ):
        args = cli.read_plain(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


def _plain_values(option) -> list[str]:
    if option.choices is not None:
        return list(option.choices() if callable(option.choices) else option.choices)
    return ["5", "12"] if option.reader else ["132", "123,132", "", "-", "formulas"]


ODD_VALUES = ["-1", "0", "\u0665", "", "-", "1_0", "+3", " 3", "zz", "x.txt"]
FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})


@st.composite
def argvs(draw):
    """argv near a plain one: the options of one subcommand in any order;
    unless the draw is plain, some are left out, repeated, abbreviated,
    joined with "=" or missing their value, values are odd, and a stray
    token such as -h may be added."""
    plain = draw(st.booleans())
    command = draw(st.sampled_from(list(cli.COMMANDS) if plain else [*cli.COMMANDS, "cnt", "-h", ""]))
    options = cli.COMMANDS.get(command, cli.COMMANDS["count"])[2]
    pieces = []
    for flag, option in options.items():
        required = option.default is cli.REQUIRED
        times = [1] if plain and required else [1, 0] if plain else [1, 1, 1, 0, 2]
        for _ in range(draw(st.sampled_from(times))):
            form = "exact" if plain else draw(st.sampled_from(["exact"] * 4 + ["prefix", "joined", "bare", "other"]))
            values = st.sampled_from(_plain_values(option))
            value = draw(values if plain else values | st.sampled_from(ODD_VALUES))
            if option.reader is bool:
                pieces.append([flag] if form != "joined" else [f"{flag}={value}"])
            elif form == "exact":
                pieces.append([flag, value])
            elif form == "prefix":
                pieces.append([flag[: draw(st.integers(2, len(flag) - 1))], value])
            elif form == "joined":
                pieces.append([f"{flag}={value}"])
            elif form == "bare":
                pieces.append([flag])
            else:
                pieces.append([draw(st.sampled_from(FLAGS)), value])
    pieces = draw(st.permutations(pieces))
    argv = [command] + [token for piece in pieces for token in piece]
    if not plain:
        for stray in draw(st.lists(st.sampled_from(["-h", "--help", "--", "-1", "x"]), max_size=1)):
            argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@given(argvs())
@settings(max_examples=400, deadline=None)
def test_direct_reader_agrees_with_argparse(argv):
    # the direct reader either builds argparse's own namespace or declines
    import contextlib
    import io

    direct = cli.read_plain(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            parsed = None
    if direct is not None:
        assert parsed is not None and vars(direct) == vars(parsed)
    if parsed is None:
        assert direct is None


def test_deterministic_output(capsys):
    args = ("sequence", "--notion", "pk", "--patterns", "312", "--n-max", "8")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_classes(capsys):
    code, out = run(
        capsys, "classes", "--family", "hyposylvester-multi", "--m", "2", "--n-max", "5"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1", "2 4", "3 21", "4 126", "5 818"]


def test_classes_metasylvester_m_past_old_cap(capsys):
    # m = 1 metasylvester classes are the 312-avoiding pk row; n = 30 is far
    # beyond what enumerating the Catalan paths could reach
    code, classes = run(capsys, "classes", "--family", "metasylvester-m", "--m", "1", "--n-max", "30")
    assert code == EXIT_OK
    code, sequence = run(capsys, "sequence", "--notion", "pk", "--patterns", "312", "--n-max", "30")
    assert code == EXIT_OK
    assert classes == sequence
    assert len(classes.splitlines()) == 30


def test_classes_json_carries_method(capsys):
    for family, method in (("metasylvester-m", "weighted_sum"), ("hypoplactic-m", "formula")):
        code, out = run(capsys, "classes", "--family", family, "--m", "2", "--n-max", "3", "--format", "json")
        assert code == EXIT_OK
        assert {r["method"] for r in json.loads(out)} == {method}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["count", "--notion", "pk", "--patterns", "1234", "--n", "-1"], id="pk-1234"),
        pytest.param(["count", "--notion", "pf", "--patterns", "12", "--n", "-1"], id="pf-12"),
        pytest.param(["sequence", "--notion", "pk", "--patterns", "123", "--n-max", "0"], id="sequence"),
        pytest.param(
            ["classes", "--family", "metasylvester-m", "--m", "2", "--n-max", "-3"], id="classes"
        ),
        pytest.param(
            ["classes", "--family", "metasylvester-multi", "--m", "0", "--n-max", "3"], id="classes-m"
        ),
        pytest.param(["verify", "--suite", "bijections", "--n-max", "0"], id="verify"),
    ],
)
def test_negative_n_rejected(capsys, argv):
    code = main(argv)
    assert capsys.readouterr().out == ""
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["\u0665", "1_0", "+3", " 3", "3 ", "", "-", "0x5", "\u00b2"])
@pytest.mark.parametrize(
    "argv,kind",
    [
        (["count", "--notion", "pk", "--patterns", "132", "--n"], "int"),
        (["sequence", "--notion", "pk", "--patterns", "132", "--n-max"], "positive_int"),
        (["classes", "--family", "metasylvester-m", "--n-max", "3", "--m"], "positive_int"),
        (["verify", "--suite", "formulas", "--n-max"], "positive_int"),
    ],
    ids=["n", "n-max", "m", "verify-n-max"],
)
def test_numbers_are_ascii_digits(capsys, argv, kind, value):
    # an optional "-" and ASCII digits: a Unicode digit, "_", "+" or a blank is
    # refused with argparse's message for the option, and nothing is counted
    code = main([*argv, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.endswith(f"error: argument {argv[-1]}: invalid {kind} value: {value!r}\n")


def test_negative_n_reaches_the_library(capsys):
    # "-1" is a number: the count itself refuses it, as before
    code = main(["count", "--notion", "pk", "--patterns", "132", "--n", "-1"])
    assert (code, capsys.readouterr()) == (EXIT_USAGE, ("", "error: n must be >= 0\n"))


def test_walk_budget_refusal(capsys, monkeypatch):
    from parkav import permutations

    monkeypatch.setattr(permutations, "WALK_BUDGET", 1000)
    for notion, patterns in (("pk", "1234"), ("pf", "132")):
        for size in (["count", "--n", "8"], ["sequence", "--n-max", "8"]):
            argv = [size[0], "--notion", notion, "--patterns", patterns, *size[1:]]
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_BUDGET, ""), argv
            assert captured.err.startswith("refused: "), argv


@pytest.mark.parametrize(
    "patterns,n,want", [("123,321", 40, "0\n"), ("123,321", 400, "0\n"), ("12", 60, "1\n")]
)
def test_dead_and_thin_classes_answer_fast(capsys, patterns, n, want):
    # the walk grows only avoiders: {123,321} dies at size 5, Av_n(12) is one node per level
    t0 = time.perf_counter()
    code, out = run(capsys, "count", "--notion", "pk", "--patterns", patterns, "--n", str(n))
    assert (code, out) == (EXIT_OK, want)
    assert time.perf_counter() - t0 < 1.0


def test_deep_walk_has_no_traceback(capfd):
    code = main(["count", "--notion", "pk", "--patterns", "12", "--n", "5000"])
    captured = capfd.readouterr()
    assert code in (EXIT_OK, EXIT_BUDGET)
    assert "Traceback" not in captured.err and "RecursionError" not in captured.err


def test_pf_without_closed_form_past_old_cap(capsys):
    code, out = run(capsys, "count", "--notion", "pf", "--patterns", "132", "--n", "9")
    assert (code, out) == (EXIT_OK, "1127649\n")


def test_answers_past_the_int_digit_cap_print(capsys):
    # 4,301 digits, one past Python's default cap on int -> str; the cap is
    # lifted only while the answer is written, so it is back in force after
    from parkav.counting import pf_count
    from parkav.permutations import parse_pattern_set

    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "count", "--notion", "pf", "--patterns", "21", "--n", "7153")
    assert sys.get_int_max_str_digits() == limit
    value = pf_count(parse_pattern_set("21"), 7153).value
    sys.set_int_max_str_digits(0)
    try:
        assert (code, out) == (EXIT_OK, f"{value}\n")
        assert len(str(value)) == 4301
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(ValueError):
        str(value)


@pytest.mark.parametrize(
    "family,m,n_max",
    [
        ("metasylvester-m", "99999999999999999999", "2"),
        ("metasylvester-multi", "3", "99999999999999999999"),
        ("metasylvester-m", "10000000000", "2"),
        ("metasylvester-m", "1000000000000000", "2"),
    ],
    ids=["huge-m", "huge-n-max", "m-1e10", "m-1e15"],
)
def test_oversized_path_tables_are_refused(capsys, family, m, n_max):
    # the table is priced before any row is allocated: no OverflowError or
    # MemoryError, and nothing printed
    t0 = time.perf_counter()
    code = main(["classes", "--family", family, "--m", m, "--n-max", n_max])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_BUDGET, "")
    assert captured.err.startswith("refused: ")
    assert time.perf_counter() - t0 < 1.0


def test_verify_all_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--n-max", "5")
    assert code == EXIT_OK
    assert "0 mismatches" in out


def test_bijection_forward_backward(tmp_path, capsys):
    blocks_text = "({2,3},{1},{})"
    src = tmp_path / "f.txt"
    src.write_text(blocks_text + "\n")
    code, out = run(
        capsys, "bijection", "--family", "123-132", "--direction", "forward",
        "--input", str(src),
    )
    assert code == EXIT_OK
    tree_text = out.strip()
    back = tmp_path / "t.txt"
    back.write_text(tree_text + "\n")
    code, out = run(
        capsys, "bijection", "--family", "123-132", "--direction", "backward",
        "--input", str(back),
    )
    assert (code, out.strip()) == (EXIT_OK, blocks_text)


@pytest.mark.parametrize("family", ["123-132", "123-213"])
def test_bijection_backward_smallest_trees(tmp_path, capsys, family):
    # the 0-edge tree is in neither image; the one-edge tree is the image of
    # the empty parking function
    for tree_text, want in (("()", None), ("(())", "()\n")):
        src = tmp_path / "t.txt"
        src.write_text(tree_text + "\n")
        code, out = run(
            capsys, "bijection", "--family", family, "--direction", "backward",
            "--input", str(src),
        )
        assert (code, out) == ((EXIT_USAGE, "") if want is None else (EXIT_OK, want))


@pytest.mark.parametrize("family", ["123-132", "123-213"])
@pytest.mark.parametrize(
    "blocks_text,reason",
    [
        ("({},{1,2})", "prefix condition fails"),
        ("({},{1})", "blocks must partition"),
        # a parse error: one line naming the column (the newline makes startswith match it whole)
        ("({1)", "expected '}' to close the block at column 2\n"),
        ("({1,},{2})", "expected a digit at column 5: '}'\n"),
        ("({1_0})", "expected a digit at column 4: '_'\n"),
        ("({\u0661})", "expected a digit at column 3: '\u0661'\n"),
        ("({1},)", "trailing ',' at column 5\n"),
        ("({1},{2}, )", "trailing ',' at column 9\n"),
    ],
)
def test_bijection_forward_rejects_non_parking(tmp_path, capfd, family, blocks_text, reason):
    src = tmp_path / "f.txt"
    src.write_text(blocks_text + "\n", encoding="utf-8")
    code = main(["bijection", "--family", family, "--direction", "forward", "--input", str(src)])
    captured = capfd.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith(f"error: {reason}")
    assert "Traceback" not in captured.err


def test_bijection_forward_takes_blanks_between_blocks(tmp_path, capsys):
    # blanks between any two tokens of the block notation: the same tree as without them
    outs = []
    for blocks_text in ("({2,3},{1},{})", "( {2,3} , {1} , {} )"):
        src = tmp_path / "f.txt"
        src.write_text(blocks_text + "\n")
        outs.append(run(capsys, "bijection", "--family", "123-132", "--direction", "forward", "--input", str(src)))
    assert outs[0] == outs[1] == (EXIT_OK, "(()()(()))\n")


@pytest.mark.parametrize(
    "family,blocks_text,pattern",
    [
        ("123-132", "({1},{2},{3})", "123"),
        ("123-213", "({1},{2},{3})", "123"),
        ("123-132", "({1},{3},{2})", "132"),
        ("123-213", "({2},{1},{3})", "213"),
    ],
)
def test_bijection_forward_rejects_forbidden_pattern(tmp_path, capfd, family, blocks_text, pattern):
    src = tmp_path / "f.txt"
    src.write_text(blocks_text + "\n")
    code = main(["bijection", "--family", family, "--direction", "forward", "--input", str(src)])
    captured = capfd.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith(
        f"error: block permutation {pattern} contains a forbidden pattern"
    )
    assert "Traceback" not in captured.err


def test_bijection_worked_example(tmp_path, capsys):
    from test_bijections import FIG25_ADJACENCY, FIG25_BLOCKS, _tree_from
    from parkav.parking import format_blocks
    from parkav.trees import serialize_tree

    src = tmp_path / "f25.txt"
    src.write_text(format_blocks(FIG25_BLOCKS))
    code, out = run(
        capsys, "bijection", "--family", "123-132", "--direction", "forward",
        "--input", str(src),
    )
    assert code == EXIT_OK
    assert out.strip() == serialize_tree(_tree_from(FIG25_ADJACENCY, "R"))


# a bare path of 3000 edges and its preimage: the codec walks any depth, and
# neither map recurses on a path
DEEP_PATH = "(" * 3001 + ")" * 3001
DEEP_PATH_BLOCKS = "(" + ",".join(f"{{{v}}}" for v in range(2999, 0, -1)) + ")"
# a path 3000 edges deep whose bottom vertex holds two leaves, and its
# preimage: the branch graft lands at the bottom, far past Python's default
# recursion limit of 1000
DEEP_GRAFT = "(" * 3001 + "()()" + ")" * 3001
DEEP_GRAFT_BLOCKS = "({3000},{3001}," + ",".join(f"{{{v}}}" for v in range(2999, 0, -1)) + ")"


@pytest.mark.parametrize(
    "direction,text,want",
    [
        ("backward", DEEP_PATH, DEEP_PATH_BLOCKS),
        ("forward", DEEP_PATH_BLOCKS, DEEP_PATH),
        ("backward", DEEP_GRAFT, DEEP_GRAFT_BLOCKS),
        ("forward", DEEP_GRAFT_BLOCKS, DEEP_GRAFT),
    ],
    ids=["backward", "forward", "backward-graft", "forward-graft"],
)
def test_bijection_answers_on_deep_paths(tmp_path, capsys, direction, text, want):
    src = tmp_path / "in.txt"
    src.write_text(text + "\n")
    code, out = run(capsys, "bijection", "--family", "123-132", "--direction", direction, "--input", str(src))
    assert (code, out) == (EXIT_OK, want + "\n")


# the same graft 20,000 edges deep: both maps and the codec are linear there
DEEPER_GRAFT = "(" * 20001 + "()()" + ")" * 20001
DEEPER_GRAFT_BLOCKS = "({20000},{20001}," + ",".join(f"{{{v}}}" for v in range(19999, 0, -1)) + ")"


@pytest.mark.parametrize(
    "direction,text,want",
    [("backward", DEEPER_GRAFT, DEEPER_GRAFT_BLOCKS), ("forward", DEEPER_GRAFT_BLOCKS, DEEPER_GRAFT)],
    ids=["backward", "forward"],
)
def test_bijection_answers_on_a_20000_deep_graft(tmp_path, capsys, direction, text, want):
    src = tmp_path / "in.txt"
    src.write_text(text + "\n")
    code, out = run(capsys, "bijection", "--family", "123-132", "--direction", direction, "--input", str(src))
    assert (code, out) == (EXIT_OK, want + "\n")


@pytest.mark.parametrize(
    "direction,text", [("backward", "(()()())"), ("forward", "({2},{1})")], ids=["backward", "forward"]
)
def test_bijection_refuses_past_the_recursion_limit(tmp_path, capfd, monkeypatch, direction, text):
    # neither map recurses, but the CLI still turns a RecursionError into a
    # refusal (exit 3), so a stub raises one
    from parkav import bijections

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(bijections, direction, too_deep)
    src = tmp_path / "in.txt"
    src.write_text(text + "\n")
    code = main(["bijection", "--family", "123-132", "--direction", direction, "--input", str(src)])
    captured = capfd.readouterr()
    assert (code, captured.out) == (EXIT_BUDGET, "")
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_verify_prints_the_pinned_values(capsys):
    """The verbose report pins every oracle and formula value, not only
    their agreement: a drift on both sides would still print 0 mismatches."""
    code, out = run(capsys, "verify", "--suite", "all", "--n-max", "6", "--verbose")
    assert code == EXIT_OK
    assert out.count("\n") == 865
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "138385c45eadd6be1b42fa02d2ad6f2fcda211a5ae083b6734150e3e14786519"


def test_verify_ok(capsys):
    code, out = run(capsys, "verify", "--suite", "formulas", "--n-max", "4")
    assert code == EXIT_OK
    assert "0 mismatches" in out


def test_verify_rejects_unknown_suite(capsys):
    code = main(["verify", "--suite", "formulas,foo", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "foo" in captured.err


def test_verify_suite_skips_empty_names(capsys):
    code, out = run(capsys, "verify", "--suite", "formulas,", "--n-max", "3")
    assert (code, out) == run(capsys, "verify", "--suite", "formulas", "--n-max", "3")
    assert code == EXIT_OK
    for suite in ("", ",", " , "):
        code = main(["verify", "--suite", suite, "--n-max", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: empty suite list; choose from all or formulas")


def test_verify_reports_clamped_range(capsys):
    # the classes suite stops at n = 5; the bijection suite reaches n = 6
    code = main(["verify", "--suite", "classes,bijections", "--n-max", "6", "--verbose"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == "note: suite classes checked n <= 5, not 6\n"
    classes_n = {line.split(" n=")[1].split()[0] for line in captured.out.splitlines() if " m=" in line}
    assert classes_n == {"1", "2", "3", "4", "5"}
    assert "roundtrip 123-213 n=6:" in captured.out
    code = main(["verify", "--suite", "classes", "--n-max", "5"])
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")


def test_verify_flags_mismatch(capsys, monkeypatch):
    from parkav import oracle

    real = oracle.brute_pk

    def skewed(n, patterns):
        return real(n, patterns) + (1 if n == 3 else 0)

    monkeypatch.setattr(oracle, "brute_pk", skewed)
    code, out = run(capsys, "verify", "--suite", "formulas", "--n-max", "3")
    assert code == EXIT_MISMATCH
    assert "FAIL" in out


def test_parse_error_exit_code(capsys):
    code = main(["count", "--notion", "pk", "--patterns", "1x2", "--n", "3"])
    capsys.readouterr()
    assert code == EXIT_USAGE
    code = main(["count", "--notion", "pk", "--patterns", "122", "--n", "3"])
    capsys.readouterr()
    assert code == EXIT_USAGE
    # entries are ASCII digits: a superscript or Arabic-Indic digit is named, not read as a number
    for patterns, column in (("\u00b2", 1), ("\u0661\u0663\u0662", 1), ("1\u00b23", 2)):
        code = main(["count", "--notion", "pk", "--patterns", patterns, "--n", "3"])
        message = f"error: bad character in permutation at column {column}: {patterns[column - 1]!r}\n"
        assert (code, capsys.readouterr()) == (EXIT_USAGE, ("", message))


def test_usage_error(capsys):
    code = main(["count", "--notion", "zz", "--patterns", "123", "--n", "3"])
    capsys.readouterr()
    assert code == EXIT_USAGE


# runs the package the way ``python -m parkav`` does, with a small walk
# budget so that a refusal comes at once; an atexit probe records the
# collector's freeze count in the file named by the first argument
EXIT_PROBE = """
import atexit, gc, runpy, sys
import parkav.permutations
parkav.permutations.WALK_BUDGET = 1000
probe = sys.argv.pop(1)

def record():
    with open(probe, "w") as f:
        f.write(str(gc.get_freeze_count()))

atexit.register(record)
runpy.run_module("parkav", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv,want",
    [
        (["count", "--notion", "pk", "--patterns", "132", "--n", "5"], EXIT_OK),
        (["count", "--notion", "zz", "--patterns", "123", "--n", "3"], EXIT_USAGE),
        (["count", "--notion", "pk", "--patterns", "1234", "--n", "8"], EXIT_BUDGET),
    ],
    ids=["count", "usage", "refusal"],
)
def test_process_entry_freezes_the_collector_after_main(tmp_path, capsys, monkeypatch, argv, want):
    # the process entry ends the call with its heap frozen, so finalization
    # does not traverse it, and prints and exits exactly as main does
    probe = tmp_path / "freeze_count"
    done = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, str(probe), *argv],
        capture_output=True, env=_src_env(), cwd=ROOT, timeout=120,
    )
    from parkav import permutations

    monkeypatch.setattr(permutations, "WALK_BUDGET", 1000)
    code = main(argv)
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (want, captured.out.encode(), captured.err.encode())
    assert code == want
    assert int(probe.read_text()) > 0


def test_in_process_main_does_not_freeze(capsys):
    # pytest calls main hundreds of times in one process: a freeze there
    # would keep every cyclic object of the run alive
    before = gc.get_freeze_count()
    for argv in (
        ["count", "--notion", "pk", "--patterns", "321", "--n", "6"],
        ["count", "--notion", "zz", "--patterns", "123", "--n", "3"],
        ["verify", "--suite", "classes", "--n-max", "3"],
    ):
        main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_console_script_uses_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'parkav = "parkav.__main__:run"' in text


def test_broken_pipe_ends_quietly():
    # the reader goes away after one line (``| head -1``); the row is far
    # larger than a pipe's buffer, so the writer is still writing then
    argv = ["sequence", "--notion", "pf", "--patterns", "12", "--n-max", "200000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "parkav", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(), cwd=ROOT,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PIPE
    assert (first, err) == (b"1 1\n", b"")
