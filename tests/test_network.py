"""Network data model, file I/O, and weight-sum operations."""

import json
import math
import random

import pytest

from semgame.errors import ValidationError
from semgame.network import (
    ConceptNode,
    PairJudgment,
    WeightedEdge,
    build_network,
    load_network,
    load_pairs,
    network_from_dict,
    network_to_dict,
    save_network,
    total_weight_sum,
)

from conftest import quick_net


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

    def test_defaults_for_threshold_and_history(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert net.node(0).threshold == 0.0
        assert net.node(0).history == ()

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
        net = network_from_dict({"nodes": [{"id": 1.0, "label": "a"}], "edges": []})
        assert net.node_ids() == (1,)
        # The other node fields are not coerced either.
        for field, value, message in (
            ("label", 5, "label 5 is not a string"),
            ("threshold", "0.5", "threshold '0.5' is not a number"),
            ("threshold", True, "threshold True is not a number"),
            ("history", "12", "history entry '1' is not a number"),
            ("history", [1.0, False], "history entry False is not a number"),
        ):
            node = {"id": 1, "label": "b", field: value}
            bad = {"nodes": [{"id": 0, "label": "a"}, node], "edges": []}
            with pytest.raises(ValidationError, match=r"nodes\[1\]: " + message):
                load_network(write_net(tmp_path, bad))

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
        with pytest.raises(ValidationError, match="duplicate edge"):
            load_network(write_net(tmp_path, bad))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"nodes": [,]}')
        with pytest.raises(ValidationError, match="line 1"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_network(tmp_path / "absent.json")

    def test_round_trip_identity(self, tmp_path):
        original = load_network(write_net(tmp_path, {
            "nodes": [
                {"id": 3, "label": "x", "threshold": 0.25, "history": [1.0, 2.5]},
                {"id": 7, "label": "y"},
            ],
            "edges": [{"a": 3, "b": 7, "w": 0.125}],
        }))
        out = tmp_path / "copy.json"
        save_network(original, out)
        reloaded = load_network(out)
        assert reloaded.nodes == original.nodes
        assert reloaded.edges == original.edges
        assert network_to_dict(reloaded) == network_to_dict(original)


class TestNodeInvariants:
    def test_negative_threshold(self):
        for threshold in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="threshold"):
                ConceptNode(id=0, label="a", threshold=threshold)

    def test_unsorted_history(self):
        with pytest.raises(ValidationError, match="sorted"):
            ConceptNode(id=0, label="a", history=(2.0, 1.0))

    def test_negative_or_non_finite_history(self):
        for stamp in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="non-finite history"):
                ConceptNode(id=0, label="a", history=(stamp,))

    def test_empty_label(self):
        with pytest.raises(ValidationError, match="label"):
            ConceptNode(id=0, label="")

    def test_history_from_dict(self):
        net = network_from_dict({
            "nodes": [{"id": 0, "label": "a", "history": [0.5, 1.5]}],
            "edges": [],
        })
        assert net.node(0).history == (0.5, 1.5)


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

    def test_unknown_scale(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\n")
        with pytest.raises(ValidationError, match="unknown scale"):
            load_pairs(path, scale="ten-point")


class TestWeightSums:
    def test_unknown_node(self):
        net = quick_net(2, [])
        with pytest.raises(ValidationError, match="unknown node"):
            net.neighbors(5)

    def test_edgeless_total(self):
        assert total_weight_sum(quick_net(3, [])) == 0.0

    def test_two_edge_total(self):
        net = quick_net(3, [(0, 1, 0.2), (1, 2, 0.7)])
        assert total_weight_sum(net) == pytest.approx(0.9)

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
            assert per_node == pytest.approx(2.0 * total_weight_sum(net), rel=1e-12)


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
