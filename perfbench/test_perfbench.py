"""Self-tests of the benchmark. Run with: python3 -m pytest perfbench -q"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import DESK, GraphSpec, Workload, WORKLOADS, planted_partition, write_dataset  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, None, 7, "op", 0.0, 10.0),
        Span(1, 0, 7, "a", 1.0, 5.0),
        Span(2, 1, 7, "c", 2.0, 3.0),
        Span(3, 1, 7, "c", 3.5, 4.0),
        Span(4, 0, 7, "b", 6.0, 9.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 3.0}


def test_inputs_are_deterministic_per_seed(tmp_path):
    for name, seed in (("first", 3), ("again", 3), ("other", 4)):
        write_dataset(str(tmp_path / name), DESK, seed)
    for file in ("edges.tsv", "features.csv", "labels.csv"):
        assert (tmp_path / "first" / file).read_bytes() == (tmp_path / "again" / file).read_bytes()
    assert (tmp_path / "first" / "edges.tsv").read_bytes() != (tmp_path / "other" / "edges.tsv").read_bytes()
    edges, features, labels = planted_partition(DESK, 3)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert features.shape == (DESK.nodes, DESK.feature_dim)
    assert sorted(set(labels.tolist())) == list(range(DESK.communities))


def _write_report(path, cells):
    header = ["run", "target_accuracy", "shadow_accuracy", "auc_a1", "auc_b1"]
    path.write_text(",".join(header) + "\n" + ",".join(str(c) for c in cells) + "\n")
    return str(path)


def test_output_check(tmp_path):
    attacks = ("a1", "b1")
    good = _write_report(tmp_path / "good.csv", [0, 0.9, 0.8, 0.81, 0.52])
    assert checks.report_problems(good, attacks, num_classes=4) == []
    nan = _write_report(tmp_path / "nan.csv", [0, 0.9, 0.8, float("nan"), 0.52])
    assert checks.report_problems(nan, attacks, num_classes=4)
    low = _write_report(tmp_path / "low.csv", [0, 0.9, 0.8, 0.74, 0.52])
    assert checks.report_problems(low, attacks, num_classes=4)
    chance = _write_report(tmp_path / "chance.csv", [0, 0.25, 0.8, 0.81, 0.52])
    assert checks.report_problems(chance, attacks, num_classes=4)
    assert checks.report_problems(str(tmp_path / "missing.csv"), attacks, num_classes=4)
    assert checks.auc_changes({"a1": 0.81, "b1": 0.5}, {"a1": 0.81 + 2e-9}) == (1, 1)


TINY = Workload("tiny", GraphSpec(nodes=120, communities=4, p_in=0.15, p_out=0.01, feature_dim=8),
                ("a0", "a1", "a8"), ("--epochs", "3", "--attack-epochs", "3"))


def _traced_op(tmp_path, tracer, op_id):
    from linklab.cli import main

    data = str(tmp_path / "data")
    write_dataset(data, TINY.graph, seed=5)
    with redirect_stdout(io.StringIO()), tracer:
        assert tracer.run(op_id, main, TINY.argv(data, 5, str(tmp_path / f"out{op_id}"))) == 0
    return tracer.op_metrics()


def test_counts_repeat_across_traced_runs(tmp_path):
    tracer = Tracer()
    first = _traced_op(tmp_path, tracer, 0)
    second = _traced_op(tmp_path, tracer, 1)
    for name in ("gnn.khop_query.calls", "gnn.khop_query.unique", "nn.matmul.calls",
                 "nn.matmul.gflop", "graph.khop_subgraph.calls", "data.build_pair_dataset.pairs"):
        assert first[name] == second[name] > 0, name
    assert 0 < first["gnn.khop_query.unique_ratio"] < 1
    assert first["gnn.train_gnn.calls"] == 2
    assert tracer.absent == []
    assert all(s.op_id == 1 for s in tracer.spans)
    assert math.isclose(sum(self_times(tracer.spans).values()),
                        tracer.spans[0].end - tracer.spans[0].start)


def test_tracer_patches_lookup_sites_and_restores(monkeypatch):
    import linklab.defenses
    import linklab.features
    import linklab.gnn
    import linklab.nn

    originals = (linklab.gnn.khop_query, linklab.nn.Tensor.backward, linklab.nn.matmul)
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + ("graph.removed_function",))
    tracer = Tracer()
    with tracer:
        assert linklab.defenses.khop_query is not originals[0]
        assert linklab.features.khop_query is linklab.defenses.khop_query
        assert linklab.nn.Tensor.backward is not originals[1]
        assert linklab.nn.matmul is not originals[2]
    assert tracer.absent == ["graph.removed_function"]
    assert tracer.op_metrics()["graph.removed_function.calls"] == 0
    assert linklab.defenses.khop_query is originals[0]
    assert linklab.features.khop_query is originals[0]
    assert (linklab.gnn.khop_query, linklab.nn.Tensor.backward, linklab.nn.matmul) == originals


def test_benchmark_json_declares_what_run_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
