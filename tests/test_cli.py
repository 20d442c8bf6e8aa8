import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from parkav.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from tables import PF_312_321, PK_ROWS

ROOT = Path(__file__).resolve().parents[1]


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


def test_trace_child_runs_sequence():
    # the benchmark's tracer wraps counting functions by name: a rename
    # must fail here, not in a traced benchmark run
    argv = ["sequence", "--notion", "pk", "--patterns", "321", "--n-max", "5"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def call(*cmd):
        return subprocess.run(
            [sys.executable, *cmd, *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
        )

    traced = call(str(ROOT / "perfbench" / "trace_child.py"), "t")
    plain = call("-m", "parkav")
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout != ""
    prefix = "perfbench-trace "
    [line] = [line for line in traced.stderr.splitlines() if line.startswith(prefix)]
    # the whole row reads one triangle
    assert json.loads(line[len(prefix):])["calls"]["counting.triangle"] == 1


def test_start_up_loads_only_what_it_runs():
    # json, the oracle and the series arithmetic load in the commands that
    # use them; the records need no dataclasses (and so no inspect)
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
    [("({},{1,2})", "prefix condition fails"), ("({},{1})", "blocks must partition")],
)
def test_bijection_forward_rejects_non_parking(tmp_path, capfd, family, blocks_text, reason):
    src = tmp_path / "f.txt"
    src.write_text(blocks_text + "\n")
    code = main(["bijection", "--family", family, "--direction", "forward", "--input", str(src)])
    captured = capfd.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith(f"error: {reason}")
    assert "Traceback" not in captured.err


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


def test_usage_error(capsys):
    code = main(["count", "--notion", "zz", "--patterns", "123", "--n", "3"])
    capsys.readouterr()
    assert code == EXIT_USAGE
