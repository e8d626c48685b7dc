"""Print how the adjacency of a loaded network lies on the heap.

    python3 tools/heap_layout.py --network FILE [--src DIR]

Loads FILE with the `semgame` package found in DIR (default: the `src/`
of the checkout holding this script, so a second checkout's package can
be measured with this copy of the script) and prints one JSON line: the
Python version and, for each kind of object the network's `_dense` rows
hold, the share of consecutive objects, in row and entry order, whose
`id()` ascends. The kinds are the position ints above 256 (smaller ints
are cached, so never allocated by the load), the weight floats and the
`(position, weight)` entry tuples. A kind with fewer than two objects
reads null.

The spreading kernel walks `_dense` in that order, so shares near 1 mean
it walks memory in order (ROADMAP item 4's heap-layout guard). The
shares depend on the whole process's heap, so measure each side in
fresh processes of its own, several times, with the same file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def ascending_share(objects: list) -> float | None:
    """The share of consecutive objects whose id() ascends."""
    ids = [id(o) for o in objects]
    if len(ids) < 2:
        return None
    return sum(b > a for a, b in zip(ids, ids[1:])) / (len(ids) - 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", type=Path, required=True)
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding the semgame package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from semgame.network import load_network

    dense = load_network(args.network)._dense
    entries = [entry for row in dense for entry in row]
    print(json.dumps({
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "ints": ascending_share([y for y, _ in entries if y > 256]),
        "floats": ascending_share([w for _, w in entries]),
        "tuples": ascending_share(entries),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
