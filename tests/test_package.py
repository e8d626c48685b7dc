"""The package root: the README quick tour runs against exactly its names."""

import re
from pathlib import Path

import semgame

README = Path(__file__).resolve().parents[1] / "README.md"

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
