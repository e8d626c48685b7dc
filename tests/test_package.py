"""The package surface: the README quick tour runs against exactly the
root's names, every submodule name in `__all__` has a caller, every
module-level private name has a reader, the import loads only the
standard library, without the JSON codec or pathlib, and every
real-valued input follows the one number rule of `errors.py`."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semgame
from semgame.baselines import CobwebParams, run_cobweb
from semgame.errors import ValidationError
from semgame.evaluate import EvalReport, utilization
from semgame.game import GameParams
from semgame.generate import generate_network
from semgame.network import PairJudgment, build_network
from semgame.spreading import SpreadParams, seed_state

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"

# Exported names that no package or benchmark code calls, with the reason.
UNCALLED_BY_DESIGN = {
    "save_network": "writes the format load_network reads; the test fixtures use it",
}

ROOT_NAMES = {
    "GameParams",
    "SpreadParams",
    "ValidationError",
    "evaluate_pairs",
    "generate_network",
    "load_network",
    "load_pairs",
    "rank_nodes",
    "relatedness",
    "rescale_to_budget",
    "run_game",
    "run_pipeline",
    "run_spread",
    "verify_nash",
}


def test_readme_quick_tour_runs_on_the_root_names(capsys):
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\n.*?```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert 0.0 <= namespace["score"] <= 1.0
    assert capsys.readouterr().out.splitlines()[2] == "True"  # verify_nash
    assert len(semgame.__all__) == len(ROOT_NAMES) == 14
    assert set(semgame.__all__) == ROOT_NAMES
    assert all(hasattr(semgame, name) for name in semgame.__all__)


def test_public_names_have_callers():
    """Every name in a submodule's `__all__` is read somewhere in the
    package or the benchmark, so test-only surface does not grow back."""
    files = sorted((REPO / "src" / "semgame").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    used: set[str] = set()
    exported: dict[str, list[str]] = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent.name == "semgame" and path.name != "__init__.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported[path.stem] = ast.literal_eval(node.value)
    assert set(UNCALLED_BY_DESIGN) <= {name for names in exported.values() for name in names}
    uncalled = {
        f"{module}.{name}"
        for module, names in exported.items()
        for name in names
        if name not in used and name not in UNCALLED_BY_DESIGN
    }
    assert not uncalled


def test_private_names_are_used():
    """Every module-level private name in the package is read somewhere in
    the package outside its own definition, so a consolidation does not
    leave a helper behind."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted((REPO / "src" / "semgame").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id not in own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert defined
    assert not {f"{module}:{name}" for name, module in defined.items() if name not in used}


def test_package_imports_only_the_standard_library():
    """The package declares no dependencies: importing it and every
    entry module in a fresh interpreter loads no top-level module
    outside the standard library except semgame itself."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import semgame, semgame.cli, semgame.evaluate, semgame.baselines\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    loaded = set(json.loads(fresh_python(script)))
    assert "semgame" in loaded
    assert not {m for m in loaded if m != "semgame" and m not in sys.stdlib_module_names}


def fresh_python(script: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """What `script` prints when run with `args` in a fresh interpreter
    that finds the package under src/."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_the_json_codec_loads_with_the_first_network_file(tmp_path):
    """`import semgame` leaves `json` and `pathlib` unloaded; `load_network`
    loads the codec; and a save that runs first in its process writes a
    file that loads back equal. `-S` keeps site's start-up imports out of
    the check."""
    path = tmp_path / "net.json"
    save_first = (
        "import sys\n"
        "import semgame\n"
        "from semgame.network import save_network\n"
        "imported = 'json' in sys.modules\n"
        "net = semgame.generate_network(12, 0.3, 5)\n"
        "save_network(net, sys.argv[1])\n"
        "saved = 'json' in sys.modules\n"
        "back = semgame.load_network(sys.argv[1])\n"
        "print(imported, saved, back == net and back._dense == net._dense)\n"
    )
    assert fresh_python(save_first, str(path), flags=("-S",)).split() == ["False", "True", "True"]
    load_first = (
        "import sys\n"
        "import semgame\n"
        "imported = 'json' in sys.modules\n"
        "paths = 'pathlib' in sys.modules\n"
        "semgame.load_network(sys.argv[1])\n"
        "print(imported, paths, 'json' in sys.modules)\n"
    )
    assert fresh_python(load_first, str(path), flags=("-S",)).split() == ["False", "False", "True"]


def _real_inputs():
    """(id, message prefix, call) for every real-valued field or function
    argument of the package; the call passes its one argument there."""
    net = generate_network(5, 0.5, 1)
    nodes = list(net.nodes)
    cobweb = CobwebParams(0.1, 0.1, 0.1)
    pairs = (("a", "b", 0.5, 0.5), ("c", "d", 0.2, 0.3))
    return [
        ("SpreadParams.delta", "delta", lambda v: SpreadParams(delta=v)),
        ("SpreadParams.fire_threshold", "fire_threshold", lambda v: SpreadParams(fire_threshold=v)),
        ("SpreadParams.budget", "budget", lambda v: SpreadParams(budget=v)),
        ("seed_state", "source 0: energy", lambda v: seed_state(net, {0: v})),
        ("GameParams.epsilon", "epsilon", lambda v: GameParams(epsilon=v)),
        ("GameParams.screen_threshold", "screen_threshold", lambda v: GameParams(screen_threshold=v)),
        ("GameParams.delta", "delta", lambda v: GameParams(delta=v)),
        ("GameParams.budget", "budget", lambda v: GameParams(budget=v)),
        ("build_network.weight", "edges[0]: edge (0, 1): weight", lambda v: build_network(nodes, [(0, 1, v)])),
        ("PairJudgment.human_score", "pair (a, b): score", lambda v: PairJudgment("a", "b", v)),
        ("CobwebParams.r", "r", lambda v: CobwebParams(v, 0.1, 0.1)),
        ("CobwebParams.demand_slope", "demand_slope", lambda v: CobwebParams(0.1, v, 0.1)),
        ("CobwebParams.supply_slope", "supply_slope", lambda v: CobwebParams(0.1, 0.1, v)),
        ("run_cobweb.initial", "cobweb initial value", lambda v: run_cobweb([(v, 1.0)], cobweb, 1.0)),
        ("run_cobweb.target", "cobweb target", lambda v: run_cobweb([(1.0, v)], cobweb, 1.0)),
        ("run_cobweb.budget", "budget", lambda v: run_cobweb([(1.0, 1.0)], cobweb, v)),
        ("EvalReport.rho", "rho", lambda v: EvalReport(v, pairs, False)),
        ("utilization.allocation", "utilization: allocation", lambda v: utilization({0: v}, {0: 1.0}, 1.0)),
        ("utilization.demand", "utilization: demand", lambda v: utilization({0: 1.0}, {0: v}, 1.0)),
        ("utilization.budget", "budget", lambda v: utilization({0: 1.0}, {0: 1.0}, v)),
        ("generate_network.edge_prob", "edge_prob", lambda v: generate_network(5, v, 1)),
    ]


REAL_INPUTS = _real_inputs()


@pytest.mark.parametrize("name, prefix, call", REAL_INPUTS, ids=[name for name, _, _ in REAL_INPUTS])
def test_non_numbers_raise_validation_error(name, prefix, call):
    """A str, None or complex given for a real number raised a bare
    TypeError from a comparison or from math.isfinite. None is skipped
    where it means "derive the value"."""
    optional = {"SpreadParams.fire_threshold", "GameParams.epsilon"}
    for value in ("0.5", None, 0.5j):
        if value is None and name in optional:
            continue
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{prefix} {value!r}')} is not a number$"):
            call(value)


def test_only_errors_py_tests_for_a_bool():
    """What counts as a number is said once, in errors.py: no other module
    tests for a bool with `is bool`, `== bool` or isinstance/issubclass."""
    def names_bool(node):
        return isinstance(node, ast.Name) and node.id == "bool"

    found = []
    for path in sorted((REPO / "src" / "semgame").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(names_bool(n) for n in (node.left, *node.comparators)):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("isinstance", "issubclass")
                  and any(names_bool(n) for n in ast.walk(node.args[1]))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_an_int_beyond_the_float_range_is_not_finite():
    """Such an int raised a bare OverflowError, from math.isfinite or
    where the package turned it into a float."""
    with pytest.raises(ValidationError, match="^budget 1(0)+ must be finite and positive$"):
        SpreadParams(budget=10**400)
    with pytest.raises(ValidationError, match="^source 0: energy -1(0)+ must be finite and >= 0$"):
        seed_state(generate_network(3, 0.5, 1), {0: -10**400})
    with pytest.raises(ValidationError, match="^utilization: allocation 1(0)+ must be finite and >= 0$"):
        utilization({0: 10**400}, {0: 1.0}, 1.0)
