"""In-memory span recorder for the traced benchmark run.

Spans are recorded by replacing, for the duration of a traced run, the
module-level names that semgame's own code calls through (for example
`semgame.evaluate.run_spread`). Nothing inside the package changes: the
wrappers sit at the boundaries between its modules. Each span keeps its
name, start, end, parent span and op id; self times are derived from
the parent links once the run ends.

The wrappers also read per-layer counts off the objects that pass
through them: firing sets on the way into `step`, final states out of
`run_spread` and `GameOutcome`s out of `run_game`.
"""

from __future__ import annotations

import csv
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

from semgame.game import Strategy

# (module, attribute the package calls through, span name). A span's layer
# is the first dotted component of its name.
WRAPPED = (
    ("semgame.spreading", "step", "spreading.step"),
    ("semgame.evaluate", "run_spread", "spreading.run_spread"),
    ("semgame.baselines", "run_spread", "spreading.run_spread"),
    ("semgame.evaluate", "relatedness", "evaluate.relatedness"),
    ("semgame.evaluate", "run_pipeline", "evaluate.run_pipeline"),
    ("semgame.evaluate", "spearman", "evaluate.spearman"),
    ("semgame.evaluate", "run_game", "game.run_game"),
    ("semgame.evaluate", "rescale_to_budget", "game.rescale"),
    ("semgame.evaluate", "generate_network", "generate"),
    ("semgame.evaluate", "run_traditional", "baselines.run_traditional"),
    ("semgame.game", "gain", "game.gain"),
    ("semgame.game", "cost", "game.cost"),
    ("semgame.game", "rescale_to_budget", "game.rescale"),
    ("semgame.generate", "build_network", "network.build"),
    ("semgame.network", "build_network", "network.build"),
)

# Spans the benchmark opens itself, around calls no package code wraps.
OWN_SPANS = ("network.load", "evaluate.evaluate_pairs", "evaluate.load_balance_experiment")

SPAN_NAMES = tuple(sorted({name for _, _, name in WRAPPED} | set(OWN_SPANS)))

# Self-time metrics: the time inside these spans not covered by a child span.
SELF_METRICS = {
    "generate.self_s": ("generate",),
    "game.self_s": ("game.run_game",),
    "evaluate.self_s": tuple(n for n in SPAN_NAMES if n.startswith("evaluate.")),
}

COUNTS = (
    "spreading.cap_hits",
    "spreading.firing_nodes",
    "spreading.edges_touched",
    "game.rounds",
    "game.participants",
    "game.accepts",
    "game.converged",
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}_s", "s", "lower"))
    out += [(name, "s", "lower") for name in SELF_METRICS]
    out += [
        ("network.input_bytes", "bytes", "lower"),
        ("spreading.cap_hits", "count", "lower"),
        ("spreading.firing_nodes", "count", "lower"),
        ("spreading.edges_touched", "count", "lower"),
        ("spreading.edge_updates_per_s", "1/s", "higher"),
        ("spreading.distinct_source_ratio", "ratio", "higher"),
        ("game.rounds", "count", "lower"),
        ("game.participants", "count", "lower"),
        ("game.accepts", "count", "higher"),
        ("game.accept_ratio", "ratio", "higher"),
        ("game.converged_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Recorder:
    """Spans and counts of one traced run. Not thread-safe; the benchmark has one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.current = -1
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.sources: set[tuple] = set()  # (op id, id(net), sources): distinct spreads per op
        self.spread_finals: list[tuple] = []  # (final state, SpreadParams)
        self.outcomes: list[tuple] = []  # (net, GameOutcome, GameParams)
        self._nets: dict[int, object] = {}  # keeps every traced network alive, so ids stay unique
        self._degrees: dict[int, dict[int, int]] = {}  # id(net) -> {node: degree}

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span."""
        index = len(self.spans)
        parent = self.current
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self.current = index
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.current = parent

    @contextmanager
    def recording(self):
        """Record spans and counts inside the block, with every WRAPPED name replaced."""
        saved = []
        for modname, attr, name in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attr))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, attr: str):
        before = self._before_step if attr == "step" else None
        after = {"run_spread": self._after_spread, "run_game": self._after_game}.get(attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_step(self, net, state, params) -> None:
        degrees = self._degrees.get(id(net))
        if degrees is None:
            self._nets[id(net)] = net
            degrees = self._degrees[id(net)] = {nid: len(net.neighbors(nid)) for nid in net.node_ids()}
        self.counts["spreading.firing_nodes"] += len(state.activated)
        self.counts["spreading.edges_touched"] += sum(degrees[x] for x in state.activated)

    def _after_spread(self, final, net, sources, params) -> None:
        # run_spread stops at quiescence (nothing fired) or at max_steps.
        if final.activated:
            self.counts["spreading.cap_hits"] += 1
        self._nets[id(net)] = net
        self.sources.add((self.op, id(net), tuple(sorted(sources.items()))))
        self.spread_finals.append((final, params))

    def _after_game(self, outcome, net, initial, params) -> None:
        c = self.counts
        c["game.rounds"] += len(outcome.history)
        for rec in outcome.history:
            c["game.participants"] += len(rec.strategies)
            c["game.accepts"] += sum(1 for s in rec.strategies.values() if s is Strategy.ACCEPT)
        c["game.converged"] += bool(outcome.converged)
        self.outcomes.append((net, outcome, params))

    def take_checked(self) -> tuple[list, list]:
        """Hand over the spread finals and game outcomes seen since the last call."""
        finals, outcomes = self.spread_finals, self.outcomes
        self.spread_finals, self.outcomes = [], []
        return finals, outcomes

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, input_bytes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics; a span that was never entered reports zero."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        selfs = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            selfs[name] += own
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}_s"] = total[span]
        for metric, names in SELF_METRICS.items():
            out[metric] = sum(selfs[n] for n in names)
        c = self.counts
        step_s = total["spreading.step"]
        spreads = calls["spreading.run_spread"]
        games = calls["game.run_game"]
        out.update(
            {
                "network.input_bytes": input_bytes,
                "spreading.cap_hits": c["spreading.cap_hits"],
                "spreading.firing_nodes": c["spreading.firing_nodes"],
                "spreading.edges_touched": c["spreading.edges_touched"],
                "spreading.edge_updates_per_s": c["spreading.edges_touched"] / step_s if step_s else 0.0,
                "spreading.distinct_source_ratio": len(self.sources) / spreads if spreads else 0.0,
                "game.rounds": c["game.rounds"],
                "game.participants": c["game.participants"],
                "game.accepts": c["game.accepts"],
                "game.accept_ratio": c["game.accepts"] / c["game.participants"] if c["game.participants"] else 0.0,
                "game.converged_ratio": c["game.converged"] / games if games else 0.0,
                "trace.overhead_s": overhead_s,
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start, end, parent index, op id, self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "op", "self_s"])
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                writer.writerow([i, *span, own])
