"""The reach gate: every function in src/parkav runs under some command, or
is on the allowlist below with its reason.

One fresh interpreter installs a ``sys.setprofile`` hook, imports the CLI
and runs the argv list through ``cli.main``, so no cache or import that an
earlier test warmed hides a call.  It reports the code objects that ran by
file and first line; the functions are read off the source by module and
qualified name (a decorated function's code object starts at its first
decorator line).  A helper that only a test or a reference reads belongs in
tests/, next to what reads it.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import parkav
from parkav._record import Record

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parkav"

# (argv, stdin): each command, and each kind of route a command takes, once
FIG25 = "({24},{23,25},{21},{},{20},{19,22},{17},{16,18},{15},{14},{},{13},{12},{10},{9},{8,11},{6},{5,7},{3},{},{2},{1},{},{4},{})"
FIG20 = "({18,20},{19},{15,17},{16},{},{12,14},{13},{9},{},{11},{10},{6,8},{7},{1},{5},{4},{},{3},{},{2})"
ARGVS = [
    *[(["count", "--notion", "pk", "--patterns", p, "--n", "6"], "")
      for p in ["123", "213", "132", "312", "321", "123,132", "132,213", "132,231,321", "1234", "12345"]],
    *[(["count", "--notion", "pf", "--patterns", p, "--n", "6"], "") for p in ["21", "123,132", "312,321", "132"]],
    (["count", "--notion", "pk", "--patterns", "321", "--n", "6", "--format", "json"], ""),
    *[(["sequence", "--notion", notion, "--patterns", p, "--n-max", "6", "--format", "csv", "--timing"], "")
      for notion, p in [("pk", "213"), ("pk", "132"), ("pk", "123,213"), ("pk", "1324"), ("pf", "312,321")]],
    *[(["classes", "--family", family, "--m", "2", "--n-max", "4"], "")
      for family in ["hyposylvester-multi", "metasylvester-multi", "metasylvester-m", "hypoplactic-m", "hyposylvester-m"]],
    (["bijection", "--family", "123-132", "--direction", "forward"], FIG25),
    (["bijection", "--family", "123-213", "--direction", "forward"], FIG20),
    (["bijection", "--family", "123-132", "--direction", "backward"], "(()()(()))"),
    (["bijection", "--family", "123-213", "--direction", "backward"], "((())())"),
    (["verify", "--n-max", "5", "--verbose"], ""),
    (["count", "-h"], ""),
    (["sequence", "--notion", "pk", "--patterns", "12", "--n-max", "0"], ""),
]

CHILD = """
import io, json, sys

sys.path.insert(0, sys.argv[1])
ran = set()


def hook(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
from parkav import cli

streams = sys.stdin, sys.stdout, sys.stderr
for argv, text in json.loads(sys.argv[2]):
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    cli.main(argv)
sys.setprofile(None)
sys.stdin, sys.stdout, sys.stderr = streams
print(json.dumps(sorted(ran)))
"""

# functions that no command runs and that stay: (module, qualified name) -> why
KEPT = {
    ("parkav.__main__", "run"): "the process entry of `python -m parkav` and the `parkav` script around cli.main",
    ("parkav.cli", "__getattr__"): "perfbench/pin.py reads cli.CLASS_FAMILIES",
    ("parkav.bijections", "phi_123_132"): "the paper's {123, 132} map by name",
    ("parkav.bijections", "phi_123_213"): "the paper's {123, 213} map by name",
    ("parkav.bijections", "_Families.__missing__"): "forward and backward refuse an unknown family with a ValueError",
    ("parkav.oracle", "_avoiders"): "the oracle's branch for pattern sets with a pattern of size >= 4",
    ("parkav.permutations", "ell_factor"): "each factor of ell_weight, which the tracer times",
    ("parkav.counting", "_first_run_table"): "the table the triangle views that the tracer times read",
    ("parkav.paths", "enumerate_paths.<locals>.rec"): "the recursion of enumerate_paths, which the tracer counts",
    ("parkav.parking", "parse_prefs"): "parking_function, a public name, parses text with it",
    ("parkav.parking", "format_prefs"): "ParkingFunction prints with it",
}


def _functions() -> dict[tuple[str, int], tuple[str, str]]:
    """Every def in src/parkav: (file, first line) -> (module, qualified name)."""
    out = {}

    def walk(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = module, prefix + child.name
                walk(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, f"{prefix}{child.name}.")
            else:
                walk(child, module, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        module = "parkav" if path.stem == "__init__" else f"parkav.{path.stem}"
        walk(ast.parse(path.read_text()), module, str(path), "")
    return out


def _allowed() -> set[tuple[str, str]]:
    """What the benchmark's tracer names, the public API and every record's
    dunders and properties."""
    spec = importlib.util.spec_from_file_location("trace_child", ROOT / "perfbench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)  # defines the tables; main() runs only as a script
    targets = [t for ts in trace_child.LAYERS.values() for t in ts]
    targets += [*trace_child.GENERATORS.values(), *trace_child.COUNTED.values()]
    objects = [getattr(module, attr) for module, attr in targets]
    objects += [getattr(parkav, name) for name in parkav.__all__]
    allowed = set()
    for obj in objects:
        if isinstance(obj, type):  # a public class: each of its methods
            allowed |= {(obj.__module__, f"{obj.__qualname__}.{name}") for name in vars(obj)}
        else:
            allowed.add((obj.__module__, obj.__qualname__))
    for info in pkgutil.iter_modules(parkav.__path__):
        importlib.import_module(f"parkav.{info.name}")
    for cls in [Record, *Record.__subclasses__()]:
        if cls.__module__.startswith("parkav"):
            allowed |= {
                (cls.__module__, f"{cls.__qualname__}.{name}")
                for name, value in vars(cls).items()
                if (name.startswith("__") and name.endswith("__")) or isinstance(value, property)
            }
    return allowed


def test_every_function_runs_under_a_command_or_is_kept_for_a_reason():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC.parent), json.dumps(ARGVS)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    functions = _functions()
    ran = {functions[file, line] for file, line in json.loads(done.stdout) if (file, line) in functions}
    never = set(functions.values()) - ran
    assert set(KEPT) <= never, sorted(set(KEPT) - never)  # an entry that runs, or names nothing, goes
    unexplained = never - _allowed() - set(KEPT)
    assert not unexplained, sorted(unexplained)
