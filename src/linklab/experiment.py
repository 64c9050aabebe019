"""End-to-end experiment orchestration: seeded runs, ablations, reports.

A whole experiment is a pure function of (config, base seed). Each run
derives independent named streams for splitting, training, sampling, and
perturbation, so no stage's randomness can bleed into another. Wall-clock
timings are written to their own file so the report CSVs stay byte-identical
across repeated invocations.
"""

from __future__ import annotations

import ctypes
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .attacks import (
    ATTACK_SPECS,
    MultiInputMlp,
    attack_dataset_inputs,
    link_scores,
    posterior_columns,
    spec_for,
    train_attack,
)
from .data import (
    PairDataset,
    SplitBundle,
    build_pair_dataset,
    generate_planted_partition,
    make_splits,
    write_split_manifest,
)
from .defenses import DP_KINDS, DefenseConfig, perturb_graph, query_temperature
from .features import (
    PAIRWISE_OP_NAMES,
    PosteriorTable,
    graph_block_names,
    node_attr_block_names,
    proximity_counts,
    row_cosine,
)
from .gnn import ARCHITECTURES, TrainedGnn, evaluate_accuracy, save_gnn, train_gnn
from .graph import Graph, load_dataset
from .metrics import (
    auc,
    leading_probability_cdf,
    metric_groups,
    pearson_correlation,
    robustness_groups,
    surprising_links,
)
from .rng import derive_seed

PAIR_METRIC_NAMES = ("node_similarity", "common_neighbors", "preferential_attachment", "jaccard")

DEFENSE_ALIASES = {
    "none": "none",
    "label": "label_only",
    "label_only": "label_only",
    "soft": "soft_posterior",
    "soft_posterior": "soft_posterior",
    "edgerand": "edge_rand",
    "edge_rand": "edge_rand",
    "lapgraph": "lap_graph",
    "lap_graph": "lap_graph",
}

ARCH_ALIASES = {"gcn": "gcn", "sage": "sage", "graphsage": "sage", "gat": "gat", "gin": "gin"}


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-partition generator parameters."""

    nodes: int = 400
    communities: int = 4
    p_in: float = 0.1
    p_out: float = 0.005
    feature_dim: int = 32
    noise: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    target_arch: str = "sage"
    shadow_arch: str = "sage"
    attacks: tuple[str, ...] = ("a1",)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    hops: tuple[int | None, ...] | None = None
    shadow_fraction: float = 1.0
    runs: int = 5
    seed: int = 0
    epochs: int = 200
    attack_epochs: int = 200
    hidden: int = 128
    learning_rate: float = 0.001
    dropout: float = 0.5
    pairwise: str = "all"

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.target_arch not in ARCHITECTURES or self.shadow_arch not in ARCHITECTURES:
            raise ValueError("unknown GNN architecture")
        if not self.attacks:
            raise ValueError("attacks must name at least one attack id")
        for attack_id in self.attacks:
            if attack_id not in ATTACK_SPECS:
                raise ValueError(f"unknown attack id {attack_id!r}")
        if self.hops is not None:
            for hop in self.hops:
                if hop not in (0, 1, 2, None):
                    raise ValueError(f"hops must be 0, 1, 2 or None, got {hop!r}")
            if not self.active_attacks():
                raise ValueError(f"hops {self.hops} leave none of the attacks {self.attacks}")
        if not (0.0 < self.shadow_fraction <= 1.0):
            raise ValueError("shadow_fraction must be in (0, 1]")
        if self.pairwise not in ("all",) + PAIRWISE_OP_NAMES:
            raise ValueError(f"unknown pairwise_ops {self.pairwise!r}")
        for name in ("epochs", "attack_epochs", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def active_attacks(self) -> tuple[str, ...]:
        if self.hops is None:
            return self.attacks
        return tuple(a for a in self.attacks if ATTACK_SPECS[a].hop in self.hops)


@dataclass
class RunArtifacts:
    """Everything from one run the analyses need to replay. ``bundle`` is
    the run's one split record: the shadow side trained on its shadow
    half, which under cross-graph transfer is the shadow graph's."""

    bundle: SplitBundle
    target: TrainedGnn
    shadow: TrainedGnn
    attack_train: PairDataset
    attack_test: PairDataset
    test_inputs: dict[str, dict[str, np.ndarray]]
    scores: dict[str, np.ndarray]
    target_posteriors: dict[str, np.ndarray]
    posterior_columns: list[str]


def summary_mean(aucs) -> float:
    """The mean of one attack's per-run AUCs, as ``summary.csv`` reports
    it: ``np.mean`` of a 1-D array, whose pairwise sum sets the last bit."""
    return float(np.mean(np.asarray(aucs, dtype=np.float64)))


@dataclass
class RunReport:
    """Per-run attack AUCs plus their means and the model utilities."""

    attack_ids: tuple[str, ...]
    per_run_auc: dict[str, tuple[float, ...]]
    target_accuracies: tuple[float, ...]
    shadow_accuracies: tuple[float, ...]
    durations: tuple[float, ...]
    artifacts: RunArtifacts | None = None

    @property
    def mean_auc(self) -> dict[str, float]:
        return {a: summary_mean(self.per_run_auc[a]) for a in self.attack_ids}


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the failing stage named in the message."""
    try:
        yield
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str) and exc.args[0].startswith("[stage"):
            raise
        try:
            tagged = type(exc)(f"[stage {name}] {exc}")
        except Exception:
            raise RuntimeError(f"[stage {name}] {exc}") from exc
        raise tagged from exc


def load_or_generate(cfg: ExperimentConfig) -> Graph:
    if cfg.dataset:
        return load_dataset(cfg.dataset).graph
    s = cfg.synthetic
    return generate_planted_partition(
        s.nodes, s.communities, s.p_in, s.p_out, s.feature_dim, s.noise,
        derive_seed(cfg.seed, "synthetic-graph"),
    )


def train_target(cfg: ExperimentConfig, target_train: Graph, num_classes: int,
                 run_seed: int) -> TrainedGnn:
    """Perturb the target-train graph as the config's defense asks, then
    train the target GNN on it, on one OpenBLAS thread wherever it runs."""
    with _stage("defense"):
        graph = perturb_graph(target_train, cfg.defense, derive_seed(run_seed, "defense"))
    with _stage("target-train"), _one_blas_thread():
        return train_gnn(
            graph, cfg.target_arch, derive_seed(run_seed, "target-train"),
            num_classes=num_classes, hidden=cfg.hidden, epochs=cfg.epochs,
            learning_rate=cfg.learning_rate, dropout_rate=cfg.dropout,
        )


def openblas_threads():
    """The loaded OpenBLAS's ``get_num_threads`` and ``set_num_threads``
    functions, or None when no OpenBLAS with one of the known symbol names
    is mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count.

    Yields whether BLAS was pinned. The last bits of a weight-gradient
    product over all training rows (694 attack pairs on the default graph, a
    GNN's 1,083 nodes at Cora size) depend on OpenBLAS's thread count, so
    every model trains on one thread, in this process or in a worker forked
    from it, and which of the two trains it cannot change a bit.
    """
    blas = openblas_threads()
    if blas is None:
        yield False
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield True
    finally:
        set_(threads)


# The worker count measured: two workers on a 2-core host. Each worker
# holds its own copy of the process (45-48 MB on the default graph), so
# more are not made until a many-core host has been measured.
_MAX_WORKERS = 2


@contextmanager
def _attack_pool():
    """Yield ``submit(fn, *args)`` for one run's trainings, all on one
    OpenBLAS thread (``_one_blas_thread``), so where a model trains cannot
    change a bit. It is a forked pool's: one worker per CPU, at most
    ``_MAX_WORKERS``, each inheriting the pin so none contends for the cores.
    With one CPU or no OpenBLAS to pin, ``_Finished`` trains here.
    """
    with _one_blas_thread() as pinned:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(cpus, _MAX_WORKERS) if pinned else 1
        if workers < 2:
            yield _Finished
            return
        # Imported here, so runs that train in-process never load them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked, not spawned: workers start with this module's globals, patches
        # and the BLAS pin included. The pool forks them all before it starts
        # its own thread, and OpenBLAS stops its threads across a fork.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            yield pool.submit
        finally:
            pool.shutdown(cancel_futures=True)


def _train_job(attack_id, inputs, labels, seed, epochs, learning_rate, dropout_rate):
    """``train_attack`` looked up as this module's global when it runs, so
    a patched ``experiment.train_attack`` also acts in a forked worker."""
    return train_attack(attack_id, inputs, labels, seed, epochs=epochs,
                        learning_rate=learning_rate, dropout_rate=dropout_rate)


class _Finished:
    """A training already run in this process, read like a pool's future."""

    def __init__(self, fn, *args):
        self._model = fn(*args)

    def result(self):
        return self._model


def _shadow_side(cfg: ExperimentConfig, shadow_train: Graph, shadow_test: Graph,
                 num_classes: int, run_seed: int, transfer: bool, submit):
    """Train the shadow GNN and one attack classifier per active attack.

    Returns (shadow GNN, its test accuracy, attack-training pairs,
    classifiers). The target half is not an argument, so attack training
    sees shadow-side data only. Nothing here reads a DP defense's budget.

    This process trains the shadow GNN and assembles each attack's inputs
    in turn; each training goes to ``submit`` (``_attack_pool``) and runs
    while later inputs are assembled.
    """
    with _stage("shadow-train"):
        shadow = train_gnn(
            shadow_train, cfg.shadow_arch, derive_seed(run_seed, "shadow-train"),
            num_classes=num_classes, hidden=cfg.hidden, epochs=cfg.epochs,
            learning_rate=cfg.learning_rate, dropout_rate=cfg.dropout,
        )
    with _stage("pair-sampling"):
        attack_train = build_pair_dataset(shadow_train, derive_seed(run_seed, "attack-train-pairs"))
    table = PosteriorTable(shadow, shadow_train, query_temperature(cfg.defense))
    trainings = {}
    for attack_id in cfg.active_attacks():
        with _stage(f"attack-{attack_id}"):
            inputs = attack_dataset_inputs(
                spec_for(attack_id), table, shadow_train, attack_train.pairs,
                defense=cfg.defense, transfer=transfer, pairwise=cfg.pairwise,
            )
            trainings[attack_id] = submit(
                _train_job, attack_id, inputs, attack_train.labels,
                derive_seed(run_seed, "attack-train", attack_id),
                cfg.attack_epochs, cfg.learning_rate, cfg.dropout,
            )
    models: dict[str, MultiInputMlp] = {}
    for attack_id, training in trainings.items():
        with _stage(f"attack-{attack_id}"):
            models[attack_id] = training.result()
    return shadow, evaluate_accuracy(shadow, shadow_test), attack_train, models


def _target_side(cfg: ExperimentConfig, bundle: SplitBundle, target: TrainedGnn, run_seed: int,
                 transfer: bool, models: dict[str, MultiInputMlp], keep: bool):
    """Score ``models`` on pairs drawn from the unperturbed target half,
    querying ``target``, trained under ``cfg.defense``.

    Returns (AUC per attack, target test accuracy, and the target-side
    ``RunArtifacts`` fields if ``keep``, else None).
    """
    with _stage("pair-sampling"):
        attack_test = build_pair_dataset(bundle.target_train,
                                         derive_seed(run_seed, "attack-test-pairs"))
    table = PosteriorTable(target, bundle.target_train, query_temperature(cfg.defense))
    aucs, scores, inputs, posteriors = {}, {}, {}, {}
    for attack_id, model in models.items():
        spec = spec_for(attack_id)
        with _stage(f"attack-{attack_id}"):
            inputs[attack_id] = attack_dataset_inputs(
                spec, table, bundle.target_train, attack_test.pairs, defense=cfg.defense,
                transfer=transfer, pairwise=cfg.pairwise,
            )
            scores[attack_id] = link_scores(model, inputs[attack_id])
            aucs[attack_id] = auc(scores[attack_id], attack_test.labels)
        if keep and spec.uses_posteriors and cfg.defense.kind != "label_only":
            # cached queries; the leading-probability CDF ignores row order
            posteriors[attack_id] = np.vstack(table.pair_posteriors(attack_test.pairs, spec.hop))
    target_acc = evaluate_accuracy(target, bundle.target_test)
    if not keep:
        return aucs, target_acc, None
    return aucs, target_acc, dict(
        target=target, attack_test=attack_test, test_inputs=inputs, scores=scores,
        target_posteriors=posteriors,
        posterior_columns=posterior_columns(target.num_classes, cfg.defense, transfer,
                                            cfg.pairwise),
    )


def _graphs_equal(a: Graph, b: Graph) -> bool:
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


def _run_defenses(cfg: ExperimentConfig, defenses, shadow: ExperimentConfig | None = None,
                  keep_artifacts: bool = False) -> list[RunReport]:
    """The multi-run pipeline, with one report per defense in ``defenses``.

    Each run splits once and calls the shadow side once; the target side
    runs once per defense against the same attack classifiers. That is
    exact only for defenses whose queries match ``cfg.defense``'s.

    Each run has one pool for its trainings (``_attack_pool``). The targets
    go in first, so a worker trains one while this process trains the
    shadow GNN.
    """
    if shadow is not None and cfg.defense.kind == "label_only":
        raise ValueError("label-only defense is incompatible with transfer features")
    graph = load_or_generate(cfg)
    shadow_graph = graph
    if shadow is not None:
        other = load_or_generate(shadow)
        if not _graphs_equal(graph, other):
            shadow_graph = other
    attacks = cfg.active_attacks()
    for attack_id in attacks:
        if spec_for(attack_id).uses_node_attrs and graph.feature_dim != shadow_graph.feature_dim:
            raise ValueError(
                f"{attack_id} needs matching attribute dims for transfer, "
                f"got {graph.feature_dim} vs {shadow_graph.feature_dim}"
            )
    transfer = shadow is not None
    # the shadow side splits at its own config's fraction, which leaves the
    # target half of an equal graph's split as it is
    fraction = (shadow or cfg).shadow_fraction
    configs = [replace(cfg, defense=defense) for defense in defenses]
    per_defense = [[] for _ in configs]
    shadow_accs, durations = [], []
    for run_idx in range(cfg.runs):
        started = time.perf_counter()
        run_seed = cfg.seed + run_idx
        keep = keep_artifacts and run_idx == 0
        with _stage("split"):
            bundle = make_splits(graph, derive_seed(run_seed, "split"), fraction)
            if shadow_graph is not graph:
                # the run's one split record takes its shadow half from the shadow graph
                own = make_splits(shadow_graph, derive_seed(run_seed, "split-shadow"), fraction)
                bundle = replace(bundle, shadow_train=own.shadow_train, shadow_test=own.shadow_test,
                                 shadow_train_ids=own.shadow_train_ids,
                                 shadow_test_ids=own.shadow_test_ids)
        with _attack_pool() as submit:
            targets = [submit(train_target, run_cfg, bundle.target_train, graph.num_classes,
                              run_seed) for run_cfg in configs]
            shadow_model, shadow_acc, attack_train, models = _shadow_side(
                cfg, bundle.shadow_train, bundle.shadow_test,
                shadow_graph.num_classes, run_seed, transfer, submit,
            )
            for results, run_cfg, target in zip(per_defense, configs, targets):
                aucs, target_acc, kept = _target_side(run_cfg, bundle, target.result(), run_seed,
                                                      transfer, models, keep)
                if kept is not None:
                    kept = RunArtifacts(bundle=bundle, shadow=shadow_model,
                                        attack_train=attack_train, **kept)
                results.append((aucs, target_acc, kept))
        shadow_accs.append(shadow_acc)
        durations.append(time.perf_counter() - started)
    reports = []
    for results in per_defense:
        per_run = {a: tuple(r[0][a] for r in results) for a in attacks}
        reports.append(RunReport(
            attack_ids=attacks,
            per_run_auc=per_run,
            target_accuracies=tuple(r[1] for r in results),
            shadow_accuracies=tuple(shadow_accs),
            durations=tuple(durations),
            artifacts=results[0][2],
        ))
    return reports


def run_experiment(cfg: ExperimentConfig, keep_artifacts: bool = False,
                   shadow: ExperimentConfig | None = None) -> RunReport:
    """The full multi-run pipeline.

    With ``shadow``, the shadow model comes from that config's dataset, a
    possibly different distribution, and posterior features switch to the
    class-count-independent transfer block. A shadow dataset equal to the
    target's shares the target's split, so only the features change; the
    shadow half is subsampled at ``shadow.shadow_fraction``.
    """
    (report,) = _run_defenses(cfg, (cfg.defense,), shadow, keep_artifacts)
    return report


@dataclass(frozen=True)
class SweepReport:
    """Utility and each attack's mean AUC per privacy budget, plus the
    undefended reference."""

    defense_kind: str
    epsilons: tuple[float, ...]
    target_accuracies: tuple[float, ...]
    attack_aucs: dict[str, tuple[float, ...]]
    undefended_accuracy: float
    undefended_auc: dict[str, float]


def run_defense_sweep(cfg: ExperimentConfig, epsilons) -> SweepReport:
    """Retrain the target undefended and at each privacy budget, and score
    the config's active attacks on each.

    Every point answers queries at T=1 with full posteriors, so each run
    trains its shadow side and attack classifiers once for all points.
    """
    if cfg.defense.kind not in DP_KINDS:
        raise ValueError("defense sweep needs an edge_rand or lap_graph defense")
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons:
        raise ValueError("need at least one epsilon")
    undefended, *defended = _run_defenses(
        cfg, [DefenseConfig()] + [replace(cfg.defense, epsilon=eps) for eps in epsilons])
    return SweepReport(
        defense_kind=cfg.defense.kind,
        epsilons=epsilons,
        target_accuracies=tuple(float(np.mean(rep.target_accuracies)) for rep in defended),
        attack_aucs={a: tuple(rep.mean_auc[a] for rep in defended) for a in undefended.attack_ids},
        undefended_accuracy=float(np.mean(undefended.target_accuracies)),
        undefended_auc=undefended.mean_auc,
    )


def pair_metric_values(graph: Graph, pairs) -> dict[str, np.ndarray]:
    """The four robustness metrics for each pair, pair edge excluded."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    cns, jacs, pas = proximity_counts(graph, pairs)
    return {
        "node_similarity": row_cosine(graph.features[pairs[:, 0]], graph.features[pairs[:, 1]]),
        "common_neighbors": cns.astype(np.float64),
        "preferential_attachment": pas.astype(np.float64),
        "jaccard": jacs,
    }


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: list[str], rows) -> None:
    """The one CSV writer: a header, then each row's cells as ``str`` gives
    them (``repr`` for a Python float); a row as wide as the header."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"{path}: a row of {len(row)} cells under {len(header)} columns")
            fh.write(",".join(str(c) for c in row) + "\n")


def _write_summary(path: str, per_run_auc: dict[str, tuple[float, ...]]) -> None:
    _write_csv(path, ["attack", "mean_auc"],
               [[a, _fmt(summary_mean(aucs))] for a, aucs in per_run_auc.items()])


def write_reports(report: RunReport, outdir: str) -> None:
    """Deterministic report/summary CSVs; wall times go to a separate file."""
    os.makedirs(outdir, exist_ok=True)
    header = ["run", "target_accuracy", "shadow_accuracy"] + [f"auc_{a}" for a in report.attack_ids]
    rows = []
    for i in range(len(report.target_accuracies)):
        row = [i, _fmt(report.target_accuracies[i]), _fmt(report.shadow_accuracies[i])]
        row += [_fmt(report.per_run_auc[a][i]) for a in report.attack_ids]
        rows.append(row)
    _write_csv(os.path.join(outdir, "report.csv"), header, rows)
    _write_summary(os.path.join(outdir, "summary.csv"), report.per_run_auc)
    _write_csv(
        os.path.join(outdir, "timing.csv"),
        ["run", "seconds"],
        [[i, f"{d:.3f}"] for i, d in enumerate(report.durations)],
    )


def write_sweep_report(sweep: SweepReport, outdir: str) -> None:
    """One block of rows per attack: undefended, then each privacy budget."""
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for attack_id, aucs in sweep.attack_aucs.items():
        rows.append([attack_id, "undefended", _fmt(sweep.undefended_accuracy),
                     _fmt(sweep.undefended_auc[attack_id])])
        rows += [[attack_id, _fmt(eps), _fmt(acc), _fmt(a)]
                 for eps, acc, a in zip(sweep.epsilons, sweep.target_accuracies, aucs)]
    _write_csv(os.path.join(outdir, "sweep.csv"),
               ["attack", "epsilon", "target_accuracy", "attack_auc"], rows)


def write_run_artifacts(report: RunReport, outdir: str) -> None:
    """Split manifest, model checkpoints, and per-pair scores for the retained run."""
    art = report.artifacts
    if art is None:
        return
    run_dir = os.path.join(outdir, "run0")
    os.makedirs(run_dir, exist_ok=True)
    write_split_manifest(art.bundle, run_dir)
    save_gnn(art.target, os.path.join(run_dir, "target.ckpt"))
    save_gnn(art.shadow, os.path.join(run_dir, "shadow.ckpt"))
    labels = art.attack_test.labels
    pairs = art.attack_test.pairs.tolist()
    for attack_id, scores in art.scores.items():
        _write_csv(
            os.path.join(run_dir, f"scores_{attack_id}.csv"),
            ["u", "v", "label", "score"],
            [[u, v, int(lbl), _fmt(sc)] for (u, v), lbl, sc in zip(pairs, labels, scores)],
        )


# The robustness analysis splits the positive test pairs into ten metric groups.
ANALYSIS_GROUPS = 10


def write_analyses(report: RunReport, outdir: str) -> None:
    """Robustness groups, correlation, surprising links, and the leading-
    probability CDF, computed from the retained run's scored pairs."""
    art = report.artifacts
    if art is None:
        raise ValueError("analyses need a report with retained artifacts")
    os.makedirs(outdir, exist_ok=True)
    graph = art.attack_test.graph
    labels = art.attack_test.labels
    metric_values = pair_metric_values(graph, art.attack_test.pairs)
    pos_mask = labels == 1
    neg_mask = labels == 0

    group_rows = []
    pcc_rows = []
    for attack_id in report.attack_ids:
        scores = art.scores[attack_id]
        for metric in PAIR_METRIC_NAMES:
            values = metric_values[metric]
            if int(pos_mask.sum()) >= ANALYSIS_GROUPS:
                rep = robustness_groups(scores[pos_mask], values[pos_mask],
                                        scores[neg_mask], metric, groups=ANALYSIS_GROUPS)
                for g, (a, (hi, lo), size) in enumerate(
                        zip(rep.group_aucs, rep.boundaries, rep.group_sizes)):
                    group_rows.append([attack_id, metric, g, _fmt(a), _fmt(hi), _fmt(lo), size])
            pcc_rows.append([
                attack_id, metric,
                _fmt(pearson_correlation(scores[pos_mask], values[pos_mask])),
                _fmt(pearson_correlation(scores[neg_mask], values[neg_mask])),
            ])
    _write_csv(os.path.join(outdir, "groups.csv"),
               ["attack", "metric", "group", "auc", "metric_max", "metric_min", "size"],
               group_rows)
    _write_csv(os.path.join(outdir, "pcc.csv"),
               ["attack", "metric", "positive_pcc", "negative_pcc"], pcc_rows)

    surprising_rows = []
    baselines = [b for b in ("b0", "b1") if b in art.scores]
    posterior_attacks = [a for a in report.attack_ids if ATTACK_SPECS[a].uses_posteriors]
    last_groups = {}
    if int(pos_mask.sum()) >= ANALYSIS_GROUPS:
        last_groups = {metric: metric_groups(metric_values[metric][pos_mask], ANALYSIS_GROUPS)[-1]
                       for metric in PAIR_METRIC_NAMES}
    for attack_id in posterior_attacks:
        for baseline_id in baselines:
            for metric, idx in last_groups.items():
                result = surprising_links(
                    (art.scores[attack_id][pos_mask] >= 0.5).astype(int),
                    (art.scores[baseline_id][pos_mask] >= 0.5).astype(int),
                    idx,
                )
                surprising_rows.append([
                    attack_id, baseline_id, metric,
                    _fmt(result.last_group_rate), _fmt(result.overall_rate),
                ])
    _write_csv(os.path.join(outdir, "surprising.csv"),
               ["attack", "baseline", "metric", "last_group_rate", "overall_rate"],
               surprising_rows)

    cdf_rows = []
    for attack_id, posts in art.target_posteriors.items():
        values, fractions = leading_probability_cdf(posts)
        for v, f in zip(values, fractions):
            cdf_rows.append([attack_id, _fmt(v), _fmt(f)])
    _write_csv(os.path.join(outdir, "leading_cdf.csv"),
               ["attack", "leading_probability", "cumulative_fraction"], cdf_rows)


def export_test_features(report: RunReport, outdir: str) -> None:
    """CSV per attack naming every feature column of the retained test set."""
    art = report.artifacts
    if art is None:
        raise ValueError("feature export needs retained artifacts")
    os.makedirs(outdir, exist_ok=True)
    names = {
        "node_attr": node_attr_block_names(art.attack_test.graph.feature_dim),
        "posterior": art.posterior_columns,
        "graph": graph_block_names(),
    }
    for attack_id, inputs in art.test_inputs.items():
        kinds = [kind for kind in names if kind in inputs]
        matrix = np.concatenate([inputs[kind] for kind in kinds], axis=1, dtype=np.float64)
        _write_csv(os.path.join(outdir, f"features_{attack_id}.csv"),
                   [name for kind in kinds for name in names[kind]], matrix.tolist())


def summarize_report_csv(report_path: str, summary_path: str) -> None:
    """Rebuild ``summary.csv`` from a stored per-run report: each ``auc_*``
    column's mean, as ``write_reports`` wrote it."""
    with open(report_path) as fh:
        header, *rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError("report has no runs")
    _write_summary(summary_path, {name[4:]: tuple(float(row[i]) for row in rows)
                                  for i, name in enumerate(header) if name.startswith("auc_")})


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file; lists are comma-separated."""
    mapping: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _parse_hops(text: str) -> tuple[int | None, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return tuple(None if part == "none" else int(part) for part in parts)
    except ValueError:
        raise ValueError(f"hops must list 0, 1, 2 or none, got {text!r}") from None


# Each config key once, its default read off ExperimentConfig(): SyntheticSpec's
# fields as synthetic_*, the numbers of DefenseConfig and ExperimentConfig.
_DEFAULT = ExperimentConfig()
_NUMBER_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                     if type(getattr(_DEFAULT, f.name)) in (int, float))
_DEFENSE_KEYS = tuple(f.name for f in fields(DefenseConfig) if f.name != "kind")
CONFIG_KEYS = frozenset((
    *(f"synthetic_{f.name}" for f in fields(SyntheticSpec)), *_NUMBER_KEYS, *_DEFENSE_KEYS,
    "dataset", "target_arch", "shadow_arch", "attacks", "defense", "hops", "pairwise_ops",
))


def _parsed(mapping: dict[str, str], key: str, default):
    """``mapping[key]`` read as the type of ``default`` (a number, or None
    for a float), or ``default`` when absent."""
    if key not in mapping:
        return default
    kind = float if default is None else type(default)
    try:
        return kind(mapping[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {mapping[key]!r}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a typed config from string keys; unknown keys are rejected and
    absent ones take ``ExperimentConfig()``'s values."""
    unknown = set(mapping) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    get = mapping.get
    synthetic = SyntheticSpec(**{
        f.name: _parsed(mapping, f"synthetic_{f.name}", getattr(_DEFAULT.synthetic, f.name))
        for f in fields(SyntheticSpec)
    })
    defense_kind = DEFENSE_ALIASES.get(get("defense", _DEFAULT.defense.kind))
    if defense_kind is None:
        raise ValueError(f"unknown defense {mapping['defense']!r}")
    defense = DefenseConfig(kind=defense_kind, **{
        key: _parsed(mapping, key, getattr(_DEFAULT.defense, key)) for key in _DEFENSE_KEYS
    })
    attacks = _DEFAULT.attacks
    if "attacks" in mapping:
        attacks = tuple(a.strip() for a in mapping["attacks"].split(",") if a.strip())
    target_arch = ARCH_ALIASES.get(get("target_arch", _DEFAULT.target_arch))
    shadow_arch = ARCH_ALIASES.get(get("shadow_arch", _DEFAULT.shadow_arch))
    if target_arch is None or shadow_arch is None:
        raise ValueError("unknown GNN architecture in config")
    return ExperimentConfig(
        dataset=get("dataset") or _DEFAULT.dataset,
        synthetic=synthetic,
        target_arch=target_arch,
        shadow_arch=shadow_arch,
        attacks=attacks,
        defense=defense,
        hops=_parse_hops(mapping["hops"]) if "hops" in mapping else _DEFAULT.hops,
        pairwise=get("pairwise_ops", _DEFAULT.pairwise),
        **{key: _parsed(mapping, key, getattr(_DEFAULT, key)) for key in _NUMBER_KEYS},
    )
