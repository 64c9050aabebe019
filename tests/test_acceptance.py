"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (the verbose test names are
the per-criterion lines) or ``-s`` to see the explicit prints.
"""

import time

import numpy as np
import pytest
from gnn_oracles import leaky_relu, masked_row_softmax, outer_sum
from graph_oracles import adjacency_sets, single_khop

from linklab import nn
from linklab.attacks import ALL_ATTACK_IDS, attack_dataset_inputs, link_scores, spec_for
from linklab.data import generate_planted_partition
from linklab.defenses import DefenseConfig, lap_graph, lap_graph_edge_estimate
from linklab.experiment import ExperimentConfig, run_defense_sweep
from linklab.features import PosteriorTable, graph_block
from linklab.gnn import ARCHITECTURES, MessageStructure, gnn_forward, init_gnn
from linklab.graph import normalize_edge
from linklab.metrics import auc, average_ranks, pearson_correlation
from linklab.nn import Parameter, Tensor
from linklab.rng import stream

from conftest import ACCEPTANCE_SYNTHETIC, cora_directory


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def spearman(x, y) -> float:
    return pearson_correlation(average_ranks(np.asarray(x)), average_ranks(np.asarray(y)))


# --------------------------------------------------------------------------
# Criterion 1: gradient suite under ten seconds.

def _fd_scalar_check(fn, params, h=1e-5, tol=1e-4):
    fn().backward()
    analytic = [np.array(p.grad) for p in params]
    for p in params:
        p.grad = None
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(fn().data)
            flat[i] = orig - h
            lo = float(fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            if abs(ana.reshape(-1)[i] - numeric) / max(abs(numeric), 1.0) >= tol:
                return False
    return True


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True

    a = Parameter(rng.normal(size=(3, 4)))
    b = Parameter(rng.normal(size=(4, 3)))
    bias = Parameter(rng.normal(size=3))
    s = Parameter(np.array([0.8]))
    labels3 = rng.integers(0, 3, size=3)
    labels6 = rng.integers(0, 6, size=3)
    primitives = [
        (lambda: nn.softmax_cross_entropy(nn.matmul(a, b), labels3)[0], [a, b]),
        (lambda: nn.softmax_cross_entropy(nn.add(nn.matmul(a, b), bias), labels3)[0], [a, b, bias]),
        (lambda: nn.softmax_cross_entropy(nn.relu_dropout(nn.matmul(a, b)), labels3)[0], [a, b]),
        (lambda: nn.softmax_cross_entropy(leaky_relu(nn.matmul(a, b), 0.2), labels3)[0], [a, b]),
        (lambda: nn.softmax_cross_entropy(nn.scalar_mul(nn.matmul(a, b), s), labels3)[0], [a, b, s]),
        (lambda: nn.softmax_cross_entropy(nn.concat_cols([nn.matmul(a, b), nn.matmul(a, b)]),
                                          labels6)[0], [a, b]),
        (lambda: nn.softmax_cross_entropy(
            nn.softmax_with_temperature(nn.matmul(a, b), 2.5), labels3)[0], [a, b]),
    ]
    col = Parameter(rng.normal(size=(3, 1)))
    row = Parameter(rng.normal(size=(3, 1)))
    primitives.append(
        (lambda: nn.softmax_cross_entropy(outer_sum(col, row), labels3)[0], [col, row])
    )
    scores = Parameter(rng.normal(size=(3, 3)))
    mask = np.array([[True, True, False], [True, True, True], [False, True, True]])
    primitives.append(
        (lambda: nn.softmax_cross_entropy(masked_row_softmax(scores, mask), labels3)[0], [scores])
    )
    z = Parameter(rng.normal(size=(3, 3)))
    a_dst = Parameter(rng.normal(size=(3, 1)))
    a_src = Parameter(rng.normal(size=(3, 1)))
    # the CSR rows of mask, which is symmetric
    indptr, indices = np.array([0, 2, 5, 7]), np.array([0, 1, 0, 1, 2, 1, 2])
    primitives.append(
        (lambda: nn.softmax_cross_entropy(
            nn.csr_attention(z, a_dst, a_src, indptr, indices, 0.2), labels3)[0], [z, a_dst, a_src])
    )
    for fn, params in primitives:
        ok = ok and _fd_scalar_check(fn, params)

    # all four layer kinds on a random 4-node graph; parameters jittered to a
    # generic point so no ReLU sits exactly on its kink
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    structure = MessageStructure(4, edges)
    jitter = np.random.default_rng(10)
    for kind in ARCHITECTURES:
        model = init_gnn(kind, 3, 2, np.random.default_rng(7), hidden=4)
        h0 = Tensor(np.random.default_rng(8).normal(size=(4, 3)))
        labels = np.random.default_rng(9).integers(0, 2, size=4)
        params = model.parameters()
        for p in params:
            p.data = p.data + jitter.normal(0.0, 0.3, p.data.shape)

        def layer_loss():
            logits = gnn_forward(model, h0, structure)
            return nn.softmax_cross_entropy(logits, labels)[0]

        ok = ok and _fd_scalar_check(layer_loss, params)

    elapsed = time.perf_counter() - started
    report_line("criterion-1 gradient suite", ok and elapsed < 10.0,
                f"all primitives and 4 layer kinds, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: oracle equivalence for AUC, k-hop subgraphs, proximity features.

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 220))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        ) / (len(pos) * len(neg))
        worst = max(worst, abs(auc(scores, labels) - oracle))
    auc_ok = worst < 1e-12

    khop_ok = True
    for _ in range(100):
        n = int(rng.integers(12, 36))
        p = float(rng.uniform(0.08, 0.25))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        from linklab.graph import Graph

        g = Graph(num_nodes=n, edges=sorted(edges),
                  features=rng.normal(size=(n, 3)), labels=np.zeros(n, dtype=int))
        v = int(rng.integers(n))
        k = int(rng.integers(0, 3))
        banned = None
        if edges and rng.random() < 0.7:
            banned = sorted(edges)[int(rng.integers(len(edges)))]
        # independent queue BFS
        adj = adjacency_sets(g)
        reached = {v}
        frontier = [v]
        for _ in range(k):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if banned and normalize_edge(u, w) == banned:
                        continue
                    if w not in reached:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        khop_ok = khop_ok and set(single_khop(g, v, k, banned)[0]) == reached

    prox_ok = True
    n = 60
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12}
    from linklab.graph import Graph

    g = Graph(num_nodes=n, edges=sorted(edges),
              features=rng.normal(size=(n, 3)), labels=np.zeros(n, dtype=int))
    adj = adjacency_sets(g)
    for _ in range(500):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        block = graph_block(g, [(u, v)])[0]
        nu = adj[u] - {u, v}
        nv = adj[v] - {u, v}
        cn = len(nu & nv)
        union = len(nu | nv)
        expected = np.array([float(cn), cn / union if union else 0.0,
                             float(len(nu) * len(nv))])
        prox_ok = prox_ok and np.array_equal(block, expected)

    report_line("criterion-2 oracle equivalence",
                auc_ok and khop_ok and prox_ok,
                f"AUC worst diff {worst:.1e}, 100 BFS cases, 500 proximity pairs")


# --------------------------------------------------------------------------
# Criterion 3: exact pair-order symmetry for every attack spec.

def test_criterion_3_symmetry_suite(symmetry_pipeline):
    graph, target, models = symmetry_pipeline
    rng = stream(303, "pairs")
    pairs = []
    while len(pairs) < 200:
        u, v = (int(x) for x in rng.choice(graph.num_nodes, size=2, replace=False))
        pairs.append((u, v))

    def score(attack_id, pair):
        # a fresh table per orientation, so no posterior is shared
        table = PosteriorTable(target, graph)
        return link_scores(models[attack_id],
                           attack_dataset_inputs(spec_for(attack_id), table, graph, [pair]))[0]

    mismatches = 0
    for attack_id in ALL_ATTACK_IDS:
        for u, v in pairs:
            if score(attack_id, (u, v)) != score(attack_id, (v, u)):
                mismatches += 1
    report_line("criterion-3 symmetry suite", mismatches == 0,
                f"{len(ALL_ATTACK_IDS)} specs x 200 pairs, {mismatches} mismatches")


# --------------------------------------------------------------------------
# Criterion 4: signal recovery at desk scale plus the no-signal control.

def test_criterion_4_signal_recovery(acceptance_pipeline):
    cfg, report, elapsed = acceptance_pipeline
    mean_a1 = report.mean_auc["a1"]
    art = report.artifacts
    scores = art.scores["a1"]
    labels = art.attack_test.labels
    shuffled = np.array(labels)
    stream(404, "shuffle").shuffle(shuffled)
    control = auc(scores, shuffled)
    single_run_ok = report.per_run_auc["a1"][0] > 0.75 and report.durations[0] < 60.0
    ok = (
        mean_a1 > 0.75
        and 0.45 <= control <= 0.55
        and mean_a1 > control
        and elapsed < 300.0
        and single_run_ok
    )
    report_line("criterion-4 signal recovery", ok,
                f"attack-1 mean AUC {mean_a1:.3f}, control {control:.3f}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# Criterion 5: paper-number reproduction on user-supplied Cora data.

@pytest.mark.skipif(cora_directory() is None,
                    reason="Cora dataset not supplied (set LINKLAB_CORA_DIR or data/cora)")
def test_criterion_5_cora_reproduction(cora_pipeline):
    report = cora_pipeline
    target_acc = float(np.mean(report.target_accuracies))
    a0 = report.mean_auc["a0"]
    a9 = report.mean_auc["a9"]
    b0 = report.mean_auc["b0"]
    ok = (
        abs(target_acc - 0.773) <= 0.03
        and abs(a0 - 0.859) <= 0.05
        and abs(a9 - 0.909) <= 0.05
        and abs(b0 - 0.748) <= 0.05
    )
    report_line("criterion-5 cora reproduction", ok,
                f"accuracy {target_acc:.3f}, A0 {a0:.3f}, A9 {a9:.3f}, B0 {b0:.3f}")


# --------------------------------------------------------------------------
# Criterion 6: combined attacks dominate posterior-only attacks (with slack).

def test_criterion_6_combined_ordering(acceptance_pipeline, cora_pipeline_if_available):
    cfg, report, _ = acceptance_pipeline
    a1 = report.mean_auc["a1"]
    a8 = report.mean_auc["a8"]
    ok = a8 >= a1 - 0.02 and a1 >= 0.6
    detail = f"planted: A8 {a8:.3f} vs A1 {a1:.3f}"
    if cora_pipeline_if_available is not None:
        cora = cora_pipeline_if_available
        a2 = cora.mean_auc["a2"]
        a9 = cora.mean_auc["a9"]
        ok = ok and a9 >= a2 - 0.02 and a2 >= 0.6
        detail += f"; cora: A9 {a9:.3f} vs A2 {a2:.3f}"
    report_line("criterion-6 combined ordering", ok, detail)


# --------------------------------------------------------------------------
# Criterion 7: defense behavior across the privacy-budget sweep.

@pytest.fixture(scope="session")
def edge_rand_sweep():
    cfg = ExperimentConfig(
        synthetic=ACCEPTANCE_SYNTHETIC,
        target_arch="gcn",
        shadow_arch="gcn",
        attacks=("a1",),
        defense=DefenseConfig(kind="edge_rand", epsilon=1.0),
        runs=1,
        seed=2,
    )
    return run_defense_sweep(cfg, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])


def test_criterion_7_defense_behavior(edge_rand_sweep):
    sweep = edge_rand_sweep
    eps = np.array(sweep.epsilons)
    acc_rho = spearman(eps, sweep.target_accuracies)
    auc_rho = spearman(eps, sweep.attack_aucs["a1"])
    utility_ok = abs(sweep.target_accuracies[-1] - sweep.undefended_accuracy) <= 0.05
    # strong perturbation at eps = 1 must hurt the attack
    utility_ok = utility_ok and sweep.attack_aucs["a1"][0] < sweep.undefended_auc["a1"]

    graph = generate_planted_partition(
        ACCEPTANCE_SYNTHETIC.nodes, ACCEPTANCE_SYNTHETIC.communities,
        ACCEPTANCE_SYNTHETIC.p_in, ACCEPTANCE_SYNTHETIC.p_out,
        ACCEPTANCE_SYNTHETIC.feature_dim, ACCEPTANCE_SYNTHETIC.noise, seed=77,
    )
    lap_ok = True
    for eps_value in range(1, 11):
        out = lap_graph(graph, float(eps_value), 0.01, seed=eps_value)
        estimate = lap_graph_edge_estimate(graph, float(eps_value), 0.01, seed=eps_value)
        lap_ok = lap_ok and out.num_edges == estimate

    ok = acc_rho > 0.6 and auc_rho > 0.6 and utility_ok and lap_ok
    report_line(
        "criterion-7 defense behavior", ok,
        f"spearman acc {acc_rho:.2f}, auc {auc_rho:.2f}, eps=10 utility gap "
        f"{abs(sweep.target_accuracies[-1] - sweep.undefended_accuracy):.3f}, lapgraph exact {lap_ok}",
    )


# --------------------------------------------------------------------------
# Criterion 8: byte-identical reports for identical config and seed.

def test_criterion_8_determinism(tmp_path):
    from linklab.cli import main as cli_main

    args = ["attack", "--runs", "2", "--seed", "5", "--attack", "a1,b1",
            "--epochs", "30", "--attack-epochs", "30"]
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    compared = []
    for name in ("report.csv", "summary.csv", "run0/target_train.txt",
                 "run0/shadow_train.txt", "run0/target.ckpt", "run0/shadow.ckpt"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        compared.append(b1 == b2)
    ok = all(compared)
    report_line("criterion-8 determinism", ok,
                f"{len(compared)} files byte-compared across two invocations")
