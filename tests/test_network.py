"""Network data model, file I/O, and weight-sum operations."""

import dataclasses
import gc
import json
import math
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgame.cli import main
from semgame.errors import ValidationError
from semgame.evaluate import evaluate_pairs, relatedness
from semgame.game import GameParams
from semgame.generate import generate_network
from semgame.network import (
    ConceptNode,
    PairJudgment,
    SemanticNetwork,
    WeightedEdge,
    build_network,
    load_network,
    load_pairs,
    save_network,
)
from semgame.spreading import SpreadParams

from conftest import MALFORMED_NETWORK_FILES, quick_net


def write_net(tmp_path, payload):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {
    "nodes": [{"id": 0, "label": "cat"}, {"id": 1, "label": "dog"}],
    "edges": [{"a": 0, "b": 1, "w": 0.5}],
}


class TestLoadNetwork:
    def test_minimal_two_node_file(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert net.n == 2
        assert net.neighbors(0) == ((1, 0.5),)
        assert net.neighbors(1) == ((0, 0.5),)

    def test_nodes_hold_only_id_and_label(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert [f.name for f in dataclasses.fields(ConceptNode)] == ["id", "label"]
        assert net.nodes == (ConceptNode(0, "cat"), ConceptNode(1, "dog"))

    def test_retired_node_keys_still_load(self, tmp_path):
        """A file whose nodes carry `threshold` and `history` (as
        perfbench/gen.py writes them, or with other values) loads to the
        network the same file without them gives, and the CLI without
        --source writes the same artefacts for all three."""
        rng = random.Random(3)
        edges = [{"a": a, "b": b, "w": rng.random()} for a in range(12) for b in range(a + 1, 12)
                 if rng.random() < 0.4]
        extras = {"generated": {"threshold": 0.0, "history": []},
                  "set": {"threshold": 5.0, "history": [1.0, 2.0]},
                  "absent": {}}
        nets, artefacts = [], []
        for name, extra in extras.items():
            nodes = [{"id": k, "label": f"c{k}", **extra} for k in range(12)]
            path = write_net(tmp_path, {"nodes": nodes, "edges": edges})
            nets.append(load_network(path))
            out = tmp_path / name
            assert main(["game", "--network", str(path), "--budget", "1", "--trace", "--out", str(out)]) == 0
            artefacts.append([(out / f).read_bytes() for f in ("summary.json", "trace.csv")])
        assert nets[0] == nets[1] == nets[2]
        assert [net._dense for net in nets[1:]] == [nets[0]._dense] * 2
        assert artefacts[1:] == [artefacts[0]] * 2
        assert json.loads(artefacts[0][0])["sources"] == {"0": 1.0}
        saved = tmp_path / "saved.json"
        save_network(nets[1], saved)
        data = json.loads(saved.read_text(encoding="utf-8"))
        assert [sorted(node) for node in data["nodes"]] == [["id", "label"]] * 12
        assert load_network(saved) == nets[0]

    def test_weight_out_of_range(self, tmp_path):
        bad = {"nodes": MINIMAL["nodes"], "edges": [{"a": 0, "b": 1, "w": 1.5}]}
        with pytest.raises(ValidationError, match=r"edges\[0\].*1\.5"):
            load_network(write_net(tmp_path, bad))

    def test_dangling_endpoint(self, tmp_path):
        bad = {"nodes": MINIMAL["nodes"], "edges": [{"a": 0, "b": 9, "w": 0.5}]}
        with pytest.raises(ValidationError, match=r"edges\[0\].*9"):
            load_network(write_net(tmp_path, bad))
        # Non-integer endpoints are rejected, not truncated or parsed onto node 1.
        for endpoint in (1.2, True, "1"):
            bad = {"nodes": MINIMAL["nodes"], "edges": [{"a": 0, "b": endpoint, "w": 0.5}]}
            with pytest.raises(ValidationError, match=r"edges\[0\]: endpoint .* not an integer"):
                load_network(write_net(tmp_path, bad))
        # A weight is a JSON number, not a numeric string or a bool.
        for weight in ("0.5", True):
            bad = {"nodes": MINIMAL["nodes"], "edges": [{"a": 0, "b": 1, "w": weight}]}
            with pytest.raises(ValidationError, match=r"edges\[0\]: weight .* not a number"):
                load_network(write_net(tmp_path, bad))

    def test_non_integer_node_id(self, tmp_path):
        """Ids must be integral numbers: 1.9 is not truncated, Infinity does not
        overflow, and the strings " 1 " and "2" are not parsed."""
        for node_id in ("1.9", "true", "Infinity", "NaN", '" 1 "', '"2"'):
            path = tmp_path / "net.json"
            path.write_text('{"nodes": [{"id": 0, "label": "a"}, {"id": %s, "label": "b"}], '
                            '"edges": []}' % node_id)
            with pytest.raises(ValidationError, match=r"nodes\[1\]: id .* not an integer"):
                load_network(path)
        # An integral float is still a valid id.
        net = load_network(write_net(tmp_path, {"nodes": [{"id": 1.0, "label": "a"}], "edges": []}))
        assert net.node_ids() == (1,)
        # The other node fields are not coerced either.
        for field, value, message in (
            ("label", 5, "label 5 is not a string"),
        ):
            node = {"id": 1, "label": "b", field: value}
            bad = {"nodes": [{"id": 0, "label": "a"}, node], "edges": []}
            with pytest.raises(ValidationError, match=r"nodes\[1\]: " + message):
                load_network(write_net(tmp_path, bad))

    @pytest.mark.parametrize("data", [
        {"nodes": 5, "edges": []},
        {"nodes": None, "edges": []},
        {"nodes": {"id": 0, "label": "a"}, "edges": []},
        {"nodes": [{"id": 0, "label": "a"}], "edges": 3},
    ])
    def test_nodes_and_edges_must_be_lists(self, tmp_path, data):
        with pytest.raises(ValidationError, match="must be lists"):
            load_network(write_net(tmp_path, data))

    @pytest.mark.parametrize("data, message", [
        ([], "network file must be an object with 'nodes' and 'edges'"),
        ({"nodes": [], "edges": []}, "network has no nodes"),
    ], ids=["list", "no-nodes"])
    def test_file_must_hold_an_object_with_nodes(self, tmp_path, data, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_network(write_net(tmp_path, data))

    def test_duplicate_node_id(self, tmp_path):
        bad = {"nodes": [{"id": 0, "label": "a"}, {"id": 0, "label": "b"}], "edges": []}
        with pytest.raises(ValidationError, match=r"nodes\[1\].*duplicate"):
            load_network(write_net(tmp_path, bad))

    def test_self_loop(self, tmp_path):
        bad = {"nodes": MINIMAL["nodes"], "edges": [{"a": 1, "b": 1, "w": 0.5}]}
        with pytest.raises(ValidationError, match="self-loop"):
            load_network(write_net(tmp_path, bad))

    def test_duplicate_edge_pair(self, tmp_path):
        bad = {
            "nodes": MINIMAL["nodes"],
            "edges": [{"a": 0, "b": 1, "w": 0.5}, {"a": 1, "b": 0, "w": 0.2}],
        }
        with pytest.raises(ValidationError, match=r"^edges\[1\]: duplicate edge for pair \(0, 1\)$"):
            load_network(write_net(tmp_path, bad))
        # Reversed again, with another edge in between and equal weights.
        nodes = [{"id": k, "label": f"c{k}"} for k in range(3)]
        edges = [{"a": 1, "b": 2, "w": 0.5}, {"a": 0, "b": 1, "w": 0.5}, {"a": 2, "b": 1, "w": 0.5}]
        with pytest.raises(ValidationError, match=r"^edges\[2\]: duplicate edge for pair \(1, 2\)$"):
            load_network(write_net(tmp_path, {"nodes": nodes, "edges": edges}))

    @pytest.mark.parametrize("entries, message", [
        ([(0, 1), (1, 0), (0, 9)], r"^edges\[1\]: duplicate edge for pair \(0, 1\)$"),
        ([(0, 1), (0, 9), (1, 0)], r"^edges\[1\]: endpoint 9 references no node$"),
        ([(0, 1), (1, 1), (1, 0)], r"^edges\[1\]: edge \(1, 1\): self-loop$"),
        ([(0, 1), (1, 0), (0, 0)], r"^edges\[1\]: duplicate edge for pair \(0, 1\)$"),
        ([(0, 1), (1, 0), (0, 1, 2.0)], r"^edges\[1\]: duplicate edge for pair \(0, 1\)$"),
        ([(0, 1), (1, 0, 2.0)], r"^edges\[1\]: edge \(1, 0\): weight 2\.0 outside \[0, 1\]$"),
        ([(0, 1), (9, 9)], r"^edges\[1\]: endpoint 9 references no node$"),
        ([(0, 1), (1, 0), (0, 1, "0.5")], r"^edges\[2\]: weight '0\.5' is not a number$"),
    ], ids=["duplicate-first", "unknown-endpoint-first", "self-loop-first", "duplicate-before-self-loop",
            "duplicate-before-bad-weight", "own-weight-before-own-duplicate",
            "own-unknown-endpoint-before-own-self-loop", "malformed-entry-before-any-build-fault"])
    def test_first_faulty_edge_in_edge_order_is_reported(self, tmp_path, entries, message):
        """Of the build's faults, the first faulty edge in edge order is
        reported, and within one edge an unknown endpoint, a self-loop, a
        bad weight and a repeated pair in that order. A malformed entry
        (here a weight that is not a number) is found while the file is
        read, before any of those."""
        edges = [{"a": a, "b": b, "w": w[0] if w else 0.5} for a, b, *w in entries]
        with pytest.raises(ValidationError, match=message):
            load_network(write_net(tmp_path, {"nodes": MINIMAL["nodes"], "edges": edges}))

    @pytest.mark.parametrize("as_float", [False, True], ids=["int-endpoints", "integral-float-endpoints"])
    def test_edge_endpoints_are_the_node_id_ints(self, tmp_path, as_float):
        """Every endpoint is its node's own `id` object, not an equal int the
        JSON parser made (ints above 256 are not cached, so equal ints made
        apart are distinct objects)."""
        ids = [1000 + 7 * k for k in range(6)]
        nodes = [{"id": nid, "label": f"c{nid}"} for nid in ids]
        edges = [{"a": float(a) if as_float else a, "b": float(b) if as_float else b, "w": 0.5}
                 for a, b in zip(ids, ids[1:])]
        net = load_network(write_net(tmp_path, {"nodes": nodes, "edges": edges}))
        assert [(e.a, e.b) for e in net.edges] == list(zip(ids, ids[1:]))
        for e, a, b in zip(net.edges, net.nodes, net.nodes[1:]):
            assert e.a is a.id and e.b is b.id

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"nodes": [,]}')
        with pytest.raises(ValidationError, match="line 1"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_network(tmp_path / "absent.json")

    @pytest.mark.parametrize("case", MALFORMED_NETWORK_FILES)
    def test_undecodable_file_raises_validation_error_naming_it(self, tmp_path, case):
        """A non-UTF-8 byte, nesting past the recursion limit and an int
        literal past the digit limit are malformed files, not runtime faults."""
        data, start, fragment = MALFORMED_NETWORK_FILES[case]
        path = tmp_path / "net.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError) as exc:
            load_network(path)
        assert str(exc.value).startswith(start.format(path=path)) and fragment in str(exc.value)

    def test_round_trip_identity(self, tmp_path):
        original = load_network(write_net(tmp_path, {
            "nodes": [
                {"id": 3, "label": "x"},
                {"id": 7, "label": "y"},
            ],
            "edges": [{"a": 3, "b": 7, "w": 0.125}],
        }))
        out = tmp_path / "copy.json"
        save_network(original, out)
        reloaded = load_network(out)
        assert reloaded.nodes == original.nodes
        assert reloaded.edges == original.edges
        again = tmp_path / "again.json"
        save_network(reloaded, again)
        assert again.read_bytes() == out.read_bytes()


@st.composite
def edges_with_one_duplicate(draw):
    """(node count, edges, index) where edges[index] repeats the pair of one
    earlier edge, in either orientation and with any weight; no other
    pair repeats."""
    n = draw(st.integers(2, 12))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    edges = [WeightedEdge(*draw(st.permutations(pair)), draw(st.floats(0.0, 1.0))) for pair in pairs]
    original = draw(st.integers(0, len(edges) - 1))
    index = draw(st.integers(original + 1, len(edges)))
    a, b = draw(st.permutations((edges[original].a, edges[original].b)))
    edges.insert(index, WeightedEdge(a, b, draw(st.floats(0.0, 1.0))))
    return n, edges, index


@settings(max_examples=60, deadline=None)
@given(edges_with_one_duplicate())
def test_duplicate_edge_error_names_its_index(case):
    n, edges, index = case
    e = edges[index]
    nodes = [ConceptNode(id=k, label=f"c{k}") for k in range(n)]
    with pytest.raises(ValidationError) as info:
        build_network(nodes, edges)
    assert str(info.value) == f"edges[{index}]: duplicate edge for pair {(min(e.a, e.b), max(e.a, e.b))}"


def test_load_peak_stays_near_the_json_parse_or_the_kept_network(tmp_path):
    """`load_network`'s traced memory peak stays within 1.4 times the larger
    of two sizes: the peak of `json.loads` on the same text, and what the
    returned network keeps. The parsed JSON is dropped before the build and
    duplicate pairs are found per node row, so the two never add up."""
    rng = random.Random(0)
    n, m = 2000, 10000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    payload = {
        "nodes": [{"id": k, "label": f"c{k}", "threshold": 0.0, "history": []} for k in range(n)],
        "edges": [{"a": a, "b": b, "w": rng.random()} for a, b in sorted(pairs)],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload, indent=2))
    text = path.read_text(encoding="utf-8")
    del payload, pairs

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        data = json.loads(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
        del data, text
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        net = load_network(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    kept, load_peak = current - base, peak - base
    assert net.n == n and len(net.edges) == m
    assert load_peak <= 1.4 * max(parse_peak, kept), (load_peak, parse_peak, kept)


class TestSlottedRecords:
    RECORDS = [
        ConceptNode(id=3, label="c3"),
        WeightedEdge(0, 1, 0.25),
        PairJudgment("cat", "dog", 0.75),
    ]
    BAD_CHANGES = {
        ConceptNode: {"label": ""},
        WeightedEdge: {"weight": 1.5},
        PairJudgment: {"human_score": 2.0},
    }

    @pytest.mark.parametrize("record", RECORDS, ids=type)
    def test_no_instance_dict_and_frozen(self, record):
        """Every field rejects assignment, and a new name has nowhere to go.
        (For a new name, a slotted frozen dataclass's `__setattr__` raises
        TypeError, not FrozenInstanceError, on CPython 3.10-3.13.)"""
        assert not hasattr(record, "__dict__")
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
        assert not hasattr(record, "extra")

    # A bool passes every range check as 1 or 0, so it is refused by name.
    BOOL_CHANGES = {
        ConceptNode: [],
        WeightedEdge: [("weight", "edge (0, 1): weight {!r} is not a number")],
        PairJudgment: [("human_score", "pair (cat, dog): score {!r} is not a number")],
    }

    @pytest.mark.parametrize("record", RECORDS, ids=type)
    def test_replace_still_validates(self, record):
        with pytest.raises(ValidationError):
            dataclasses.replace(record, **self.BAD_CHANGES[type(record)])
        for field, message in self.BOOL_CHANGES[type(record)]:
            for flag in (True, False):
                with pytest.raises(ValidationError, match=f"^{re.escape(message.format(flag))}$"):
                    dataclasses.replace(record, **{field: flag})
        assert dataclasses.replace(record) == record

    @pytest.mark.parametrize("record", RECORDS, ids=type)
    def test_pickle_round_trips(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert copy == record and type(copy) is type(record)


class TestNodeInvariants:
    def test_empty_label(self):
        with pytest.raises(ValidationError, match="label"):
            ConceptNode(id=0, label="")


class TestLoadPairs:
    def test_five_point_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t4\n")
        assert load_pairs(path, scale="five-point") == [PairJudgment("cat", "dog", 0.75)]

    def test_unit_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.6\n")
        assert load_pairs(path, scale="unit") == [PairJudgment("a", "b", 0.6)]

    def test_score_outside_scale(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t6\n")
        with pytest.raises(ValidationError, match="outside five-point"):
            load_pairs(path, scale="five-point")

    def test_header_row_skipped_and_order_preserved(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("label_a\tlabel_b\tscore\nx\ty\t1\nu\tv\t5\n")
        pairs = load_pairs(path, scale="five-point")
        assert [(p.label_a, p.human_score) for p in pairs] == [("x", 0.0), ("u", 1.0)]

    @pytest.mark.parametrize("text", [
        "a\tb\t0.5\n",
        "label_a\tlabel_b\tscore\na\tb\t0.5\n",
    ], ids=["no-header", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, text):
        """A spreadsheet-saved TSV starts with a UTF-8 BOM; it is dropped
        before the first row, whether that row is a header or data."""
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_pairs(path) == [PairJudgment("a", "b", 0.5)]

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\nc d 0.2\n")
        with pytest.raises(ValidationError, match=":2:"):
            load_pairs(path)

    def test_non_numeric_score_past_header(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\nc\td\toops\n")
        with pytest.raises(ValidationError, match="not a number"):
            load_pairs(path)

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read"),
        ("a\tb\t1.5\n", ":1: score 1.5 outside unit scale"),
    ], ids=["missing-file", "unit-score-1.5"])
    def test_unreadable_file_or_score_off_scale(self, tmp_path, text, message):
        path = tmp_path / "pairs.tsv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_pairs(path, scale="unit")

    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("\na\tb\t0.5\n  \n\t\nc\td\t0.25\n\n")
        assert load_pairs(path) == [PairJudgment("a", "b", 0.5), PairJudgment("c", "d", 0.25)]

    def test_non_utf8_file_raises_validation_error_naming_it(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"a\tb\t0.5\n\xff\tc\t0.2\n")
        message = f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_pairs(path)

    def test_rows_split_only_at_newlines(self, tmp_path):
        """A label holding a character `str.splitlines` breaks at (U+2028,
        U+0085, form feed, U+001E) stays in its row: the pairs load and are
        scored, and a malformed row after them reports its own line number."""
        labels = ["a\u2028b", "c\x85d", "e\x0cf", "g\x1eh"]
        net = build_network([ConceptNode(k, label) for k, label in enumerate(labels)],
                            [(0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.3)])
        rows = ["label_a\tlabel_b\tscore", f"{labels[0]}\t{labels[1]}\t0.9", f"{labels[2]}\t{labels[3]}\t0.1",
                f"{labels[0]}\t{labels[3]}\t0.2"]
        path = tmp_path / "pairs.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        pairs = load_pairs(path)
        assert pairs == [PairJudgment(labels[0], labels[1], 0.9), PairJudgment(labels[2], labels[3], 0.1),
                         PairJudgment(labels[0], labels[3], 0.2)]
        report = evaluate_pairs(net, pairs, SpreadParams(budget=1.0), None)
        assert [row[:2] for row in report.pairs] == [(p.label_a, p.label_b) for p in pairs]
        path.write_text("\n".join([*rows, "x\ty"]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r":5: expected 3 tab-separated columns, got 2$"):
            load_pairs(path)

    def test_unknown_scale(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\n")
        with pytest.raises(ValidationError, match="unknown scale"):
            load_pairs(path, scale="ten-point")


class TestWeightSums:
    def test_unknown_node(self):
        net = quick_net(2, [])
        with pytest.raises(ValidationError, match="^unknown node id 5$"):
            net.neighbors(5)

    def test_handshake_identity(self):
        """Adjacency is symmetric, and the per-node incident weights sum to
        twice the total edge weight."""
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randrange(2, 12)
            edges = [
                (a, b, rng.random())
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            ]
            net = quick_net(n, edges)
            for x in net.node_ids():
                for y, w in net.neighbors(x):
                    assert (x, w) in net.neighbors(y)
            per_node = sum(w for x in net.node_ids() for _, w in net.neighbors(x))
            total = sum(w for _, _, w in edges)
            assert per_node == pytest.approx(2.0 * total, rel=1e-12)


def shuffled_payload(seed: int) -> dict:
    """A 40-node network file with gapped ids, nodes and edges in shuffled
    order, a -0.0 weight and a weight of exactly 1.0."""
    rng = random.Random(seed)
    ids = rng.sample(range(1000), 40)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.2]
    weights = [-0.0, 1.0] + [rng.random() for _ in pairs[2:]]
    edges = [{"a": a, "b": b, "w": w} for (a, b), w in zip(pairs, weights)]
    rng.shuffle(edges)
    nodes = [{"id": nid, "label": f"c{nid}"} for nid in ids]
    rng.shuffle(nodes)
    return {"nodes": nodes, "edges": edges}


def ascending_edges(payload: dict) -> list[dict]:
    """A payload's edges in ascending (a, b) order, each from its lower id."""
    edges = [{"a": min(e["a"], e["b"]), "b": max(e["a"], e["b"]), "w": e["w"]} for e in payload["edges"]]
    return sorted(edges, key=lambda e: (e["a"], e["b"]))


class TestDenseAdjacency:
    def test_entries_are_the_edges_by_float_hex(self):
        """Each node's row holds one entry per incident edge, in ascending
        position, with the neighbour's position and the edge's weight bit
        for bit (the sign of -0.0 included); the weights are copies, not
        the float objects handed to `build_network`."""
        for seed in range(3):
            payload = shuffled_payload(seed)
            triples = [(e["a"], e["b"], e["w"]) for e in payload["edges"]]
            net = build_network([ConceptNode(nd["id"], nd["label"]) for nd in payload["nodes"]], triples)
            positions = net._positions
            expected: dict[int, list[tuple[int, str]]] = {k: [] for k in range(net.n)}
            for a, b, w in triples:
                x, y = positions[a], positions[b]
                expected[x].append((y, w.hex()))
                expected[y].append((x, w.hex()))
            weight_objects = {id(w) for _, _, w in triples}
            for k, row in enumerate(net._dense):
                assert [(y, w.hex()) for y, w in row] == sorted(expected[k])
                assert all(type(y) is int and type(w) is float for y, w in row)
                assert not any(id(w) in weight_objects for _, w in row)
            assert "-0x0.0p+0" in {w.hex() for row in net._dense for _, w in row}

    def test_load_then_save_round_trips_exactly(self, tmp_path):
        """The saved file is the loaded one with its edges in ascending
        (a, b) order, each from its lower id, and every weight bit for bit."""
        for seed in range(3):
            payload = shuffled_payload(seed)
            out = tmp_path / "saved.json"
            save_network(load_network(write_net(tmp_path, payload)), out)
            got = json.loads(out.read_text(encoding="utf-8"))
            expected = {"nodes": payload["nodes"], "edges": ascending_edges(payload)}
            assert json.dumps(got) == json.dumps(expected)
            assert [e["w"].hex() for e in got["edges"]] == [e["w"].hex() for e in expected["edges"]]

    def test_edges_ascend_from_the_lower_id_with_every_weight_bit(self, tmp_path):
        """`edges` lists each edge once, from its lower id, in ascending
        (a, b) order, whatever order and orientation the file gave, and
        each weight keeps its `float.hex` (-0.0 included)."""
        for seed in range(3):
            payload = shuffled_payload(seed)
            net = load_network(write_net(tmp_path, payload))
            expected = ascending_edges(payload)
            assert [(e.a, e.b) for e in net.edges] == [(e["a"], e["b"]) for e in expected]
            assert all(e.a < e.b for e in net.edges)
            assert [e.weight.hex() for e in net.edges] == [e["w"].hex() for e in expected]
            assert "-0x0.0p+0" in {e.weight.hex() for e in net.edges}

    def test_the_same_edges_in_any_order_save_the_same_bytes(self, tmp_path):
        """Networks built from the same edges, listed in another order and
        orientation, have equal `edges` and save byte-identical files."""
        nodes = [ConceptNode(k, f"c{k}") for k in range(5)]
        triples = [(0, 1, 0.5), (3, 1, 0.25), (2, 4, -0.0), (0, 4, 1.0)]
        listed = build_network(nodes, triples)
        turned = build_network(nodes, [(b, a, w) for a, b, w in reversed(triples)])
        assert turned.edges == listed.edges
        assert [tuple(e) for e in listed.edges] == [(0, 1, 0.5), (0, 4, 1.0), (1, 3, 0.25), (2, 4, -0.0)]
        save_network(listed, tmp_path / "listed.json")
        save_network(turned, tmp_path / "turned.json")
        assert (tmp_path / "turned.json").read_bytes() == (tmp_path / "listed.json").read_bytes()

    def test_ascending_files_and_generated_networks_save_back_byte_for_byte(self, tmp_path):
        """A file in `perfbench/gen.py`'s layout (indented JSON, edges in
        ascending (a, b) order with a < b), with the node keys the package
        reads, saves back byte for byte, and so does any reordering of its
        edges; a `generate_network` network saves the same bytes after a
        load."""
        for seed in range(3):
            rng = random.Random(seed)
            pairs = sorted({tuple(sorted(rng.sample(range(50), 2))) for _ in range(120)})
            payload = {
                "nodes": [{"id": k, "label": f"c{k}"} for k in range(50)],
                "edges": [{"a": a, "b": b, "w": 1.0 - rng.random()} for a, b in pairs],
            }
            text = json.dumps(payload, indent=2) + "\n"
            shuffled = [{"a": e["b"], "b": e["a"], "w": e["w"]} if rng.random() < 0.5 else e
                        for e in payload["edges"]]
            rng.shuffle(shuffled)
            for edges in (payload["edges"], shuffled):
                net = load_network(write_net(tmp_path, {"nodes": payload["nodes"], "edges": edges}))
                save_network(net, tmp_path / "saved.json")
                assert (tmp_path / "saved.json").read_text(encoding="utf-8") == text

            save_network(generate_network(40, 0.2, seed), tmp_path / "generated.json")
            first = (tmp_path / "generated.json").read_bytes()
            save_network(load_network(tmp_path / "generated.json"), tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == first


class TestEdgeColumns:
    def test_loads_generators_and_evaluation_make_no_edge_records(self, tmp_path, monkeypatch):
        """A network keeps its edges as columns: loading a file and
        generating a network construct no `WeightedEdge`, and `relatedness`
        and `evaluate_pairs` never read `net.edges`, which builds one record
        per edge on each read."""
        path = tmp_path / "net.json"
        save_network(generate_network(30, 0.2, 7), path)
        counts = {"made": 0, "read": 0}
        post_init, edges = WeightedEdge.__post_init__, SemanticNetwork.edges

        def counted_post_init(record):
            counts["made"] += 1
            post_init(record)

        def counted_edges(net):
            counts["read"] += 1
            return edges.fget(net)

        monkeypatch.setattr(WeightedEdge, "__post_init__", counted_post_init)
        monkeypatch.setattr(SemanticNetwork, "edges", property(counted_edges))
        net = load_network(path)
        generated = generate_network(30, 0.2, 7)
        sp, gp = SpreadParams(), GameParams()
        relatedness(net, 0, 1, sp, gp)
        pairs = [PairJudgment("c0", "c1", 0.2), PairJudgment("c2", "c3", 0.9), PairJudgment("c0", "c3", 0.5)]
        evaluate_pairs(generated, pairs, sp, None)
        assert counts == {"made": 0, "read": 0}
        # The counters see what they count.
        records = net.edges
        assert counts == {"made": len(records), "read": 1} and records

    def test_equal_and_hash_equal_on_nodes_and_weighted_edges(self, tmp_path):
        """Two loads of one file are equal and hash equal; one weight moved
        by one ulp makes them unequal; the same edges in another order and
        orientation compare equal and have equal `edges`."""
        payload = shuffled_payload(0)
        first, second = (load_network(write_net(tmp_path, payload)) for _ in range(2))
        assert first == second and hash(first) == hash(second)

        moved = json.loads(json.dumps(payload))
        edge = next(e for e in moved["edges"] if 0.0 < e["w"] < 1.0)
        edge["w"] = math.nextafter(edge["w"], 0.0)
        assert load_network(write_net(tmp_path, moved)) != first

        shuffled = json.loads(json.dumps(payload))
        shuffled["edges"] = [{"a": e["b"], "b": e["a"], "w": e["w"]} for e in reversed(shuffled["edges"])]
        other = load_network(write_net(tmp_path, shuffled))
        assert other == first and hash(other) == hash(first)
        assert other.edges == first.edges

    def test_build_reads_any_one_pass_iterable_of_triples(self):
        """Plain tuples from a generator build the network that the same
        edges as records give, and its faults carry the edge index."""
        nodes = [ConceptNode(id=k, label=f"c{k}") for k in range(4)]
        triples = [(0, 1, 0.5), (2, 1, 1), (3, 0, 0.25)]
        built = build_network(nodes, (t for t in triples))
        assert built == build_network(nodes, [WeightedEdge(*t) for t in triples])
        assert [tuple(e) for e in built.edges] == [(0, 1, 0.5), (0, 3, 0.25), (1, 2, 1.0)]
        assert all(type(e.weight) is float for e in built.edges)
        with pytest.raises(ValidationError, match=r"^edges\[1\]: edge \(2, 2\): self-loop$"):
            build_network(nodes, iter([(0, 1, 0.5), (2, 2, 0.5)]))
        with pytest.raises(ValidationError, match=r"^edges\[0\]: edge \(0, 1\): weight True is not a number$"):
            build_network(nodes, iter([(0, 1, True)]))


class TestLabelLookup:
    def test_by_label(self):
        net = quick_net(3, [])
        assert net.id_by_label("n2") == 2

    def test_missing_label(self):
        net = quick_net(2, [])
        with pytest.raises(ValidationError, match="no node labeled"):
            net.id_by_label("zebra")

    def test_ambiguous_label(self):
        net = build_network(
            [ConceptNode(id=0, label="same"), ConceptNode(id=1, label="same")], []
        )
        with pytest.raises(ValidationError, match="ambiguous"):
            net.id_by_label("same")
