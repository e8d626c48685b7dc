"""Seeded benchmark inputs: a network JSON file and a judgment TSV file.

The generator is O(n + m): a random spanning tree keeps the graph
connected, then extra edges are drawn uniformly until the graph has m
edges. Weights lie in (0, 1]. It does not import semgame, so the inputs
stay the same whatever the package under test does. The package's own
`generate_network` visits all n^2 pairs and is too slow at n = 10^4.

    python3 perfbench/gen.py --nodes 1000 --edges 5000 --concepts 8 \\
        --pairing all --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path


def random_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int, float]]:
    """m undirected edges (a < b) over nodes 0..n-1, sorted by (a, b)."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot build a connected simple graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set()
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return [(a, b, 1.0 - rng.random()) for a, b in sorted(pairs)]


def judgment_pairs(n: int, concepts: int, pairing: str, rng: random.Random) -> list[tuple[int, int]]:
    """Node pairs to score.

    "all": every pair over `concepts` sampled nodes (each node appears
    in concepts - 1 pairs). "disjoint": `concepts` nodes paired off so
    that no node appears twice.
    """
    picked = rng.sample(range(n), concepts)
    if pairing == "all":
        return list(itertools.combinations(picked, 2))
    if pairing == "disjoint":
        return list(zip(picked[0::2], picked[1::2]))
    raise ValueError(f"unknown pairing {pairing!r}")


def write_inputs(
    out: Path, n: int, m: int, concepts: int, pairing: str, seed: int
) -> tuple[Path, Path | None]:
    """Write network.json (and pairs.tsv when concepts > 0) into out."""
    rng = random.Random(seed)
    edges = random_edges(n, m, rng)
    out.mkdir(parents=True, exist_ok=True)
    network = {
        "nodes": [{"id": i, "label": f"c{i}", "threshold": 0.0, "history": []} for i in range(n)],
        "edges": [{"a": a, "b": b, "w": w} for a, b, w in edges],
    }
    net_path = out / "network.json"
    # Same layout as semgame's save_network, so load cost matches real files.
    net_path.write_text(json.dumps(network, indent=2) + "\n", encoding="utf-8")
    if concepts == 0:
        return net_path, None
    rows = ["label_a\tlabel_b\tscore"]
    for a, b in judgment_pairs(n, concepts, pairing, rng):
        rows.append(f"c{a}\tc{b}\t{rng.random()!r}")
    pairs_path = out / "pairs.tsv"
    pairs_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return net_path, pairs_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--edges", type=int, required=True)
    parser.add_argument("--concepts", type=int, default=0, help="nodes in the pairs file (0: none)")
    parser.add_argument("--pairing", choices=["all", "disjoint"], default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.out, args.nodes, args.edges, args.concepts, args.pairing, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
