"""Spreading activation and game-theoretic attention allocation over
weighted semantic networks, with baselines and an evaluation harness.

The package root holds the names of the README quick tour; everything
else is imported from its submodule (`semgame.network`, `semgame.game`, ...).
"""

from .errors import ValidationError
from .evaluate import evaluate_pairs, relatedness, run_pipeline
from .game import GameParams, rank_nodes, rescale_to_budget, run_game, verify_nash
from .generate import generate_network
from .network import load_network, load_pairs
from .spreading import SpreadParams, run_spread

__version__ = "0.1.0"

__all__ = [
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
]
