"""Orchestration: configs, determinism, threat model, transfer, sweep, CLI."""

import argparse
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import replace

import feature_oracles
import numpy as np
import pytest
from graph_oracles import adjacency_sets, proximity_oracle

from linklab import cli, experiment
from linklab.attacks import ALL_ATTACK_IDS
from linklab.cli import main as cli_main
from linklab.data import make_splits, read_split_manifest
from linklab.defenses import DefenseConfig
from linklab.experiment import (
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    config_from_mapping,
    load_or_generate,
    pair_metric_values,
    parse_config_file,
    run_defense_sweep,
    run_experiment,
    summarize_report_csv,
    write_analyses,
    write_reports,
)
from linklab.graph import Graph, save_dataset
from linklab.rng import derive_seed

FAST = dict(runs=1, epochs=25, attack_epochs=25)
SMALL = SyntheticSpec(nodes=120, communities=3, p_in=0.2, p_out=0.02, feature_dim=10, noise=1.0)


def small_cfg(**kw):
    base = dict(synthetic=SMALL, attacks=("a1",), seed=3, **FAST)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_follow_reporting_convention(self):
        cfg = ExperimentConfig()
        assert cfg.runs == 5
        assert cfg.epochs == 200
        assert cfg.hidden == 128
        assert cfg.learning_rate == 0.001

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(attacks=("a77",))
        with pytest.raises(ValueError):
            ExperimentConfig(target_arch="cnn")
        with pytest.raises(ValueError):
            ExperimentConfig(shadow_fraction=0.0)
        with pytest.raises(ValueError, match="pairwise_ops"):
            ExperimentConfig(pairwise="product")
        for bad in ({"epochs": 0}, {"attack_epochs": 0}, {"hidden": 0},
                    {"learning_rate": 0.0}, {"learning_rate": -1.0},
                    {"dropout": -0.1}, {"dropout": 1.0}, {"attacks": ()},
                    {"hops": (1, 3)}, {"hops": (-1, 1)}, {"hops": ("1",)},
                    {"hops": (0,), "attacks": ("a1", "b0")}, {"hops": ()}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ExperimentConfig(**bad)
        for key, value in (("attacks", ","), ("hops", "x"), ("hops", "1,3")):
            with pytest.raises(ValueError, match=key):
                config_from_mapping({key: value})
        for key, value, kind in (("runs", "x", "an integer"), ("seed", "1.5", "an integer"),
                                 ("synthetic_nodes", "", "an integer"),
                                 ("synthetic_p_in", "abc", "a number"),
                                 ("epsilon", "1,2", "a number"),
                                 ("learning_rate", "fast", "a number")):
            with pytest.raises(ValueError, match=f"^{key} must be {kind}, got {value!r}$"):
                config_from_mapping({key: value})
        for defense, key in (("edgerand", "epsilon"), ("lapgraph", "epsilon"),
                             ("soft", "temperature")):
            for value in ("nan", "inf", "-inf", "0"):
                with pytest.raises(ValueError, match=key):
                    config_from_mapping({"defense": defense, key: value})

    def test_hop_filter(self):
        cfg = ExperimentConfig(attacks=("a0", "a1", "a2", "b0"), hops=(1, 2))
        assert cfg.active_attacks() == ("a1", "a2")
        cfg2 = ExperimentConfig(attacks=("a0", "b0"), hops=(None,))
        assert cfg2.active_attacks() == ("b0",)

    def test_mapping_round_trip(self, tmp_path):
        text = (
            "# comment\n"
            "attacks = a0,a9\n"
            "target_arch = graphsage\n"
            "defense = soft\n"
            "temperature = 10\n"
            "runs = 2\n"
            "seed = 11\n"
            "synthetic_nodes = 80\n"
        )
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        cfg = config_from_mapping(parse_config_file(str(path)))
        assert cfg.attacks == ("a0", "a9")
        assert cfg.target_arch == "sage"
        assert cfg.defense.kind == "soft_posterior"
        assert cfg.defense.temperature == 10.0
        assert cfg.runs == 2
        assert cfg.synthetic.nodes == 80

    def test_empty_mapping_is_the_default_config(self):
        assert config_from_mapping({}) == ExperimentConfig()

    def test_every_common_flag_sets_a_config_key(self):
        # a flag whose dest is not a key would be dropped without a word
        parser = argparse.ArgumentParser()
        cli._add_common_flags(parser)
        dests = {action.dest for action in parser._actions} - {"help", "config"}
        assert dests - CONFIG_KEYS == {"out"}

    def test_unknown_key_rejected(self):
        # analyses and export_features are flags of the attack verb, not config keys
        for key in ("atacks", "analyses", "export_features"):
            with pytest.raises(ValueError, match=key):
                config_from_mapping({key: "true"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs 3\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))


class TestRunExperiment:
    def test_reports_every_requested_attack(self):
        cfg = small_cfg(attacks=("a1", "b1"))
        rep = run_experiment(cfg)
        assert rep.attack_ids == ("a1", "b1")
        assert set(rep.per_run_auc) == {"a1", "b1"}
        assert len(rep.target_accuracies) == 1

    def test_mean_matches_per_run_values(self):
        cfg = small_cfg(runs=2)
        rep = run_experiment(cfg)
        for attack_id in rep.attack_ids:
            assert rep.mean_auc[attack_id] == pytest.approx(
                float(np.mean(rep.per_run_auc[attack_id]))
            )

    def test_deterministic_reports(self):
        cfg = small_cfg()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.per_run_auc == r2.per_run_auc
        assert r1.target_accuracies == r2.target_accuracies

    def test_artifact_provenance(self):
        rep = run_experiment(small_cfg(), keep_artifacts=True)
        art = rep.artifacts
        assert art.attack_train.graph is art.bundle.shadow_train
        assert art.attack_test.graph is art.bundle.target_train
        # disjoint node universes at the source level
        train_ids = set(art.bundle.shadow_train_ids)
        test_ids = set(art.bundle.target_train_ids)
        assert train_ids.isdisjoint(test_ids)

    def test_attack_models_never_see_the_target_half(self, monkeypatch):
        cfg = small_cfg(attacks=("a0", "a1", "a4", "a9", "b1"))
        original_shadow_side = experiment._shadow_side
        original_splits = experiment.make_splits
        original_pool = experiment._attack_pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # one shared pool

        def trained_models():
            # read in this process: the trainings may run in forked workers
            models, bundles, jobs = [], [], []
            splits = experiment.make_splits

            def recording(*args, **kwargs):
                side = original_shadow_side(*args, **kwargs)
                models.extend(side[3].values())
                return side

            def recorded_splits(*args, **kwargs):
                bundles.append(splits(*args, **kwargs))
                return bundles[-1]

            @contextmanager
            def recorded_pool():
                with original_pool() as submit:
                    def recorded_submit(fn, *args):
                        jobs.append((fn, args))
                        return submit(fn, *args)

                    yield recorded_submit

            monkeypatch.setattr(experiment, "_shadow_side", recording)
            monkeypatch.setattr(experiment, "make_splits", recorded_splits)
            monkeypatch.setattr(experiment, "_attack_pool", recorded_pool)
            report = run_experiment(cfg)
            (bundle,) = bundles
            # the target half goes to one job only: the target training
            assert [fn for fn, args in jobs if any(a is bundle.target_train for a in args)] == [
                experiment.train_target]
            assert [fn for fn, _ in jobs] == [experiment.train_target] + [
                experiment._train_job] * len(cfg.attacks)
            return report, [[p.data.tobytes() for p in m.parameters()] for m in models]

        def poisoned_splits(graph, seed, shadow_fraction=1.0):
            # same node count; random edges, permuted features and labels
            bundle = original_splits(graph, seed, shadow_fraction)
            half = bundle.target_train
            rng = np.random.default_rng(seed)
            perm = rng.permutation(half.num_nodes)
            edges = rng.integers(0, half.num_nodes, size=(half.num_edges, 2))
            poison = Graph(num_nodes=half.num_nodes, edges=edges[edges[:, 0] != edges[:, 1]],
                           features=half.features[perm], labels=half.labels[perm])
            return replace(bundle, target_train=poison)

        clean_report, clean = trained_models()
        monkeypatch.setattr(experiment, "make_splits", poisoned_splits)
        poisoned_report, poisoned = trained_models()
        assert poisoned_report.per_run_auc != clean_report.per_run_auc
        assert poisoned_report.shadow_accuracies == clean_report.shadow_accuracies
        assert len(clean) == len(cfg.attacks)
        assert poisoned == clean

    def test_stage_tagged_diagnostics(self):
        # six communities across twelve nodes leaves the splits edgeless
        cfg = small_cfg(synthetic=SyntheticSpec(nodes=12, communities=6, p_in=0.9,
                                                p_out=0.0, feature_dim=4, noise=0.5))
        with pytest.raises(ValueError, match=r"\[stage "):
            run_experiment(cfg)

    def test_defended_run_all_attacks_smoke(self):
        for kind, extra in (
            ("label_only", {}),
            ("soft_posterior", {"temperature": 20.0}),
            ("edge_rand", {"epsilon": 5.0}),
            ("lap_graph", {"epsilon": 5.0}),
        ):
            cfg = small_cfg(
                attacks=("a0", "a4", "a6", "a9", "b2"),
                defense=DefenseConfig(kind=kind, **extra),
            )
            rep = run_experiment(cfg)
            assert set(rep.mean_auc) == {"a0", "a4", "a6", "a9", "b2"}


def _blas_threads() -> int:
    """The loaded OpenBLAS's thread count; at module level, so a pool
    worker can run it."""
    get, _ = experiment.openblas_threads()
    return int(get())


class TestAttackPool:
    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def pools(monkeypatch):
        """Whether each run's ``_attack_pool`` was a pool of workers."""
        made = []
        original = experiment._attack_pool

        @contextmanager
        def recording():
            with original() as submit:
                made.append(submit is not experiment._Finished)
                yield submit

        monkeypatch.setattr(experiment, "_attack_pool", recording)
        return made

    @staticmethod
    def parameter_bytes(model):
        return [p.data.tobytes() for p in model.parameters()]

    @classmethod
    def shadow_models(cls, cfg, graph, bundle):
        with experiment._attack_pool() as submit:
            *_, pairs, models = experiment._shadow_side(
                cfg, bundle.shadow_train, bundle.shadow_test, graph.num_classes, cfg.seed,
                False, submit)
        assert list(models) == list(cfg.attacks)
        return len(pairs.labels), {a: cls.parameter_bytes(m) for a, m in models.items()}

    def test_pooled_models_match_in_process_models(self, monkeypatch):
        # At 1,083 training nodes OpenBLAS's thread count changes a GNN's
        # last bits, so the pooled and in-process paths must both pin it.
        cora = SyntheticSpec(nodes=2708, communities=7, p_in=0.0083, p_out=0.0003,
                             feature_dim=32, noise=1.0)
        cfg = small_cfg(synthetic=cora, attacks=ALL_ATTACK_IDS, epochs=5, attack_epochs=5)
        made = self.pools(monkeypatch)
        original_shadow_side = experiment._shadow_side
        runs = []

        def recording(*args, **kwargs):
            side = original_shadow_side(*args, **kwargs)
            runs[-1].update({a: self.parameter_bytes(m) for a, m in side[3].items()})
            return side

        monkeypatch.setattr(experiment, "_shadow_side", recording)
        for cpus in (2, 1):
            self.cpus(monkeypatch, cpus)
            runs.append({})
            art = run_experiment(cfg, keep_artifacts=True).artifacts
            assert art.bundle.target_train.num_nodes == 1083
            runs[-1].update(target=self.parameter_bytes(art.target),
                            shadow=self.parameter_bytes(art.shadow))
        pinned = experiment.openblas_threads() is not None
        assert made == ([True, False] if pinned else [False, False])
        assert list(runs[0]) == list(cfg.attacks) + ["target", "shadow"]
        assert runs[0] == runs[1]
        assert multiprocessing.active_children() == []

    def test_joint_run_matches_single_attack_runs_at_default_size(self, monkeypatch):
        # The default graph gives enough training pairs that OpenBLAS
        # threads its weight-gradient products on a multi-core host, so the
        # pooled and the in-process path must both train on one thread.
        cfg = ExperimentConfig(attacks=("a0", "a2", "a6", "b1"), runs=1, seed=4,
                               epochs=10, attack_epochs=10)
        graph = load_or_generate(cfg)
        bundle = make_splits(graph, derive_seed(cfg.seed, "split"))
        pairs, joint = self.shadow_models(cfg, graph, bundle)
        assert pairs >= 694
        self.cpus(monkeypatch, 1)
        for attack_id in cfg.attacks:
            _, alone = self.shadow_models(replace(cfg, attacks=(attack_id,)), graph, bundle)
            assert alone == {attack_id: joint[attack_id]}

    def test_one_cpu_trains_in_process_and_one_attack_gets_a_pool(self, monkeypatch):
        made = self.pools(monkeypatch)
        cfg = small_cfg(epochs=5, attack_epochs=5)
        assert cfg.active_attacks() == ("a1",)
        self.cpus(monkeypatch, 1)
        run_experiment(cfg)
        # one attack and one defense are two jobs: a target and an attack
        self.cpus(monkeypatch, 4)
        run_experiment(cfg)
        pinned = experiment.openblas_threads() is not None
        assert made == [False, pinned]
        assert multiprocessing.active_children() == []

    def test_worker_count_is_capped(self, monkeypatch):
        if experiment.openblas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        self.cpus(monkeypatch, 64)
        with experiment._attack_pool() as submit:
            assert submit.__self__._max_workers == experiment._MAX_WORKERS
        assert multiprocessing.active_children() == []

    def test_worker_error_names_its_stage(self, monkeypatch):
        original_train = experiment.train_attack

        def failing(attack_id, *args, **kwargs):
            if attack_id == "a4":
                raise FloatingPointError("diverged")
            return original_train(attack_id, *args, **kwargs)

        monkeypatch.setattr(experiment, "train_attack", failing)  # forked workers inherit it
        self.cpus(monkeypatch, 2)
        with pytest.raises(FloatingPointError, match=r"^\[stage attack-a4\] diverged$"):
            run_experiment(small_cfg(attacks=("a1", "a4", "b1"), epochs=5, attack_epochs=5))
        assert multiprocessing.active_children() == []
        run_experiment(small_cfg(attacks=("a1", "b1"), epochs=5, attack_epochs=5))
        assert multiprocessing.active_children() == []

    def test_input_too_large_for_float32_names_its_stage(self, monkeypatch):
        original_inputs = experiment.attack_dataset_inputs

        def overflowing(spec, *args, **kwargs):
            inputs = original_inputs(spec, *args, **kwargs)
            if spec.attack_id == "a4":
                inputs["node_attr"][2, 0] = 1e39
            return inputs

        monkeypatch.setattr(experiment, "attack_dataset_inputs", overflowing)
        self.cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match=r"^\[stage attack-a4\] node_attr input row 2 "
                                             r"is not finite in float32$"):
            run_experiment(small_cfg(attacks=("a1", "a4"), epochs=5, attack_epochs=5))
        assert multiprocessing.active_children() == []

    def test_target_training_error_in_a_worker_names_its_stage(self, monkeypatch):
        if experiment.openblas_threads() is None:
            pytest.skip("no OpenBLAS loaded, so no pool")
        cfg = small_cfg(epochs=5, attack_epochs=5)
        target_seed = derive_seed(cfg.seed, "target-train")
        main_pid = os.getpid()
        original_train = experiment.train_gnn

        def failing(graph, arch, seed, **kwargs):
            if seed == target_seed:
                where = "the main process" if os.getpid() == main_pid else "a worker"
                raise FloatingPointError(f"diverged in {where}")
            return original_train(graph, arch, seed, **kwargs)

        monkeypatch.setattr(experiment, "train_gnn", failing)  # forked workers inherit it
        self.cpus(monkeypatch, 2)
        with pytest.raises(FloatingPointError,
                           match=r"^\[stage target-train\] diverged in a worker$"):
            run_experiment(cfg)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_every_training_runs_on_one_blas_thread(self, monkeypatch, cpus, tmp_path):
        if experiment.openblas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        trained = multiprocessing.Value("i", 0)  # counted in the workers too
        for name in ("train_attack", "train_gnn"):
            def checked(*args, _original=getattr(experiment, name), **kwargs):
                if _blas_threads() != 1:
                    raise AssertionError(f"trained on {_blas_threads()} BLAS threads")
                with trained.get_lock():
                    trained.value += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, checked)  # forked workers inherit it
        self.cpus(monkeypatch, cpus)
        before = _blas_threads()
        made = self.pools(monkeypatch)
        run_experiment(small_cfg(attacks=("a1", "a4", "b1"), epochs=5, attack_epochs=5))
        assert made == [cpus > 1]
        # `linklab train` pins the same way, so its checkpoint is the run's
        assert cli_main(["train", "--epochs", "2", "--out", str(tmp_path)]) == 0
        assert trained.value == 3 + 2 + 1
        assert _blas_threads() == before


class TestTransfer:
    def test_same_dataset_matches_diagonal_protocol(self):
        cfg = small_cfg()
        rep = run_experiment(cfg, keep_artifacts=True, shadow=cfg)
        assert "a1" in rep.mean_auc
        # transfer posterior branch is the 7-wide similarity block
        assert rep.artifacts.test_inputs["a1"]["posterior"].shape[1] == 7
        # diagonal shares the standard halving: shadow and target ids disjoint
        art = rep.artifacts
        assert set(art.bundle.shadow_train_ids).isdisjoint(art.bundle.target_train_ids)

    def test_same_source_shares_the_standard_split(self):
        cfg = small_cfg(runs=2)
        plain = run_experiment(cfg, keep_artifacts=True)
        # The shadow dataset is loaded on its own; being equal, it shares the split.
        transfer = run_experiment(cfg, keep_artifacts=True, shadow=cfg)
        assert transfer.artifacts.bundle.split_ids() == plain.artifacts.bundle.split_ids()
        assert np.array_equal(transfer.artifacts.attack_train.pairs,
                              plain.artifacts.attack_train.pairs)
        assert transfer.target_accuracies == plain.target_accuracies
        assert transfer.shadow_accuracies == plain.shadow_accuracies

    def test_cross_distribution_recovers_signal(self):
        spec_a = SyntheticSpec(nodes=200, communities=3, p_in=0.15, p_out=0.015,
                               feature_dim=12, noise=1.0)
        spec_b = SyntheticSpec(nodes=200, communities=5, p_in=0.2, p_out=0.015,
                               feature_dim=12, noise=1.0)
        cfg_t = ExperimentConfig(synthetic=spec_a, attacks=("a1",), runs=1, seed=3,
                                 epochs=60, attack_epochs=60)
        cfg_s = ExperimentConfig(synthetic=spec_b, attacks=("a1",), runs=1, seed=9,
                                 epochs=60, attack_epochs=60)
        same = run_experiment(cfg_t, shadow=cfg_t)
        cross = run_experiment(cfg_t, shadow=cfg_s)
        assert cross.mean_auc["a1"] > 0.6
        assert abs(cross.mean_auc["a1"] - same.mean_auc["a1"]) < 0.15

    def test_attr_attacks_need_matching_dims(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a GNN trained before the attribute check")

        monkeypatch.setattr(experiment, "train_gnn", no_training)
        cfg_t = small_cfg(attacks=("a4",))
        cfg_s = small_cfg(synthetic=SyntheticSpec(nodes=120, communities=3, p_in=0.2,
                                                  p_out=0.02, feature_dim=6, noise=1.0))
        with pytest.raises(ValueError, match="a4 needs matching attribute dims"):
            run_experiment(cfg_t, shadow=cfg_s)

    def test_label_only_rejected(self):
        cfg = small_cfg(defense=DefenseConfig(kind="label_only"))
        with pytest.raises(ValueError):
            run_experiment(cfg, shadow=cfg)


class TestDefenseSweep:
    def test_single_epsilon_row(self):
        cfg = small_cfg(defense=DefenseConfig(kind="edge_rand", epsilon=1.0))
        sweep = run_defense_sweep(cfg, [5.0])
        assert sweep.epsilons == (5.0,)
        assert len(sweep.attack_aucs) == 1
        assert 0 <= sweep.undefended_accuracy <= 1

    def test_requires_dp_defense(self):
        with pytest.raises(ValueError):
            run_defense_sweep(small_cfg(), [1.0])

    def test_trains_each_attack_once_per_run(self, monkeypatch):
        # shared counters: the trainings may run in forked workers
        calls = {"train_attack": multiprocessing.Value("i", 0),
                 "train_gnn": multiprocessing.Value("i", 0)}
        for name, count in calls.items():
            def counting(*args, _count=count, _original=getattr(experiment, name), **kwargs):
                with _count.get_lock():
                    _count.value += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counting)
        cfg = small_cfg(runs=2, epochs=5, attack_epochs=5,
                        defense=DefenseConfig(kind="edge_rand", epsilon=1.0))
        run_defense_sweep(cfg, [1.0, 2.0, 5.0])
        # per run: one shadow GNN and one attack model, then 1 + 3 target GNNs
        assert {name: count.value for name, count in calls.items()} == {
            "train_attack": 2, "train_gnn": 10}

    def test_each_attack_matches_its_single_attack_sweep(self):
        cfg = small_cfg(attacks=("a1", "a4", "b1"), epochs=10, attack_epochs=10,
                        defense=DefenseConfig(kind="lap_graph", epsilon=1.0))
        joint = run_defense_sweep(cfg, [1.0, 4.0])
        assert list(joint.attack_aucs) == list(joint.undefended_auc) == ["a1", "a4", "b1"]
        for attack_id in cfg.attacks:
            alone = run_defense_sweep(replace(cfg, attacks=(attack_id,)), [1.0, 4.0])
            assert alone.attack_aucs == {attack_id: joint.attack_aucs[attack_id]}
            assert alone.undefended_auc == {attack_id: joint.undefended_auc[attack_id]}
            assert alone.target_accuracies == joint.target_accuracies
            assert alone.undefended_accuracy == joint.undefended_accuracy

    @pytest.mark.parametrize("defense", ["edgerand", "lapgraph"])
    def test_cli_sweep_runs_the_given_attack(self, tmp_path, capsys, defense):
        config = tmp_path / "small.cfg"
        config.write_text("synthetic_nodes = 120\nsynthetic_communities = 3\n"
                          "synthetic_p_in = 0.2\nsynthetic_p_out = 0.02\n")
        flags = ["--config", str(config), "--attack", "a9,b1", "--runs", "1", "--seed", "3",
                 "--epochs", "15", "--attack-epochs", "15"]
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--defense", defense, "--epsilons", "2",
                         "--out", str(out)] + flags) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["a9", "undefended"], ["a9", "2.0"],
                                             ["b1", "undefended"], ["b1", "2.0"]]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed[:2]] == ["undefended", "epsilon 2"]
        assert all(", a9 AUC " in line and ", b1 AUC " in line for line in printed[:2])
        # the oracle: the full attack pipeline, run once per sweep point
        for point, oracle_defense in (("undefended", "none"), ("2.0", defense)):
            run = tmp_path / oracle_defense
            assert cli_main(["attack", "--defense", oracle_defense, "--epsilon", "2",
                             "--out", str(run)] + flags) == 0
            summary = dict(line.split(",") for line in
                           (run / "summary.csv").read_text().splitlines()[1:])
            accuracy = (run / "report.csv").read_text().splitlines()[1].split(",")[1]
            assert [row for row in rows if row[1] == point] == [
                [a, point, accuracy, summary[a]] for a in ("a9", "b1")]


class TestPairMetricValues:
    def test_matches_direct_computation(self):
        g = load_or_generate(small_cfg())
        pairs = [(0, 1), (5, 9), (20, 40)]
        values = pair_metric_values(g, pairs)
        for i, (u, v) in enumerate(pairs):
            assert values["node_similarity"][i] == feature_oracles.cosine_similarity(
                g.features[u], g.features[v])
            cn, jac, pa = proximity_oracle(adjacency_sets(g), u, v)
            assert values["common_neighbors"][i] == cn
            assert values["jaccard"][i] == jac
            assert values["preferential_attachment"][i] == pa


class TestReportFiles:
    def test_report_and_summary_layout(self, tmp_path):
        rep = run_experiment(small_cfg(attacks=("a1", "b1"), runs=2))
        write_reports(rep, str(tmp_path))
        report_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert report_lines[0] == "run,target_accuracy,shadow_accuracy,auc_a1,auc_b1"
        assert len(report_lines) == 3
        summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "attack,mean_auc"
        assert summary[1].startswith("a1,")

    def test_summarize_reproduces_means(self, tmp_path):
        rep = run_experiment(small_cfg(attacks=("a1",), runs=2))
        write_reports(rep, str(tmp_path))
        stored = (tmp_path / "summary.csv").read_bytes()
        summarize_report_csv(str(tmp_path / "report.csv"), str(tmp_path / "summary2.csv"))
        assert (tmp_path / "summary2.csv").read_bytes() == stored

    def test_analyses_outputs(self, tmp_path):
        cfg = small_cfg(attacks=("a1", "b0", "b1"))
        rep = run_experiment(cfg, keep_artifacts=True)
        write_analyses(rep, str(tmp_path))
        groups = (tmp_path / "groups.csv").read_text().strip().split("\n")
        assert groups[0] == "attack,metric,group,auc,metric_max,metric_min,size"
        assert len(groups) > 1
        pcc = (tmp_path / "pcc.csv").read_text().strip().split("\n")
        assert len(pcc) == 1 + 3 * 4
        surprising = (tmp_path / "surprising.csv").read_text().strip().split("\n")
        assert surprising[0] == "attack,baseline,metric,last_group_rate,overall_rate"
        assert len(surprising) == 1 + 2 * 4  # one posterior attack x two baselines x four metrics
        cdf = (tmp_path / "leading_cdf.csv").read_text().strip().split("\n")
        assert len(cdf) > 1


class TestCli:
    def test_attack_verb_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main([
            "attack", "--runs", "1", "--seed", "4", "--attack", "a1",
            "--epochs", "20", "--attack-epochs", "20", "--out", str(out),
            "--export-features",
        ])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "run0" / "target.ckpt").exists()
        assert (out / "run0" / "target_train.txt").exists()
        scores = (out / "run0" / "scores_a1.csv").read_text().strip().split("\n")
        assert scores[0] == "u,v,label,score"
        features = (out / "features_a1.csv").read_text().split("\n", 1)[0]
        assert features.startswith("posterior_hadamard_0")
        assert "mean AUC" in capsys.readouterr().out

    def test_export_names_single_pairwise_op(self, tmp_path):
        config = tmp_path / "hadamard.cfg"
        config.write_text("pairwise_ops = hadamard\nsynthetic_communities = 3\n")
        out = tmp_path / "out"
        code = cli_main([
            "attack", "--config", str(config), "--attack", "a1", "--runs", "1",
            "--epochs", "10", "--attack-epochs", "10", "--out", str(out), "--export-features",
        ])
        assert code == 0
        lines = (out / "features_a1.csv").read_text().strip().split("\n")
        assert lines[0].split(",") == [f"posterior_hadamard_{c}" for c in range(3)]
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    @pytest.mark.parametrize("flag", ["--analyses", "--export-features"])
    def test_file_flags_need_out(self, tmp_path, flag):
        # the dataset cannot load, so the exit shows the check runs first
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(SystemExit, match="--out"):
            cli_main(["attack", "--dataset", missing, "--runs", "1", flag])

    def test_train_verb(self, tmp_path, capsys):
        out = tmp_path / "model"
        code = cli_main([
            "train", "--arch", "gcn", "--seed", "2", "--epochs", "15", "--out", str(out),
        ])
        assert code == 0
        assert (out / "target.ckpt").exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_train_verb_applies_the_defense(self, tmp_path):
        flags = ["--arch", "gcn", "--seed", "2", "--epochs", "5", "--epsilon", "0.5"]
        ckpt = {}
        for defense in ("edgerand", "none"):
            assert cli_main(["train", "--defense", defense, "--out", str(tmp_path / defense)]
                            + flags) == 0
            ckpt[defense] = (tmp_path / defense / "target.ckpt").read_bytes()
            assert cli_main(["attack", "--defense", defense, "--runs", "1", "--attack", "a1",
                             "--attack-epochs", "2", "--out", str(tmp_path / f"run-{defense}")]
                            + flags) == 0
            run0 = (tmp_path / f"run-{defense}" / "run0" / "target.ckpt").read_bytes()
            assert ckpt[defense] == run0
        assert ckpt["edgerand"] != ckpt["none"]

    def test_dataset_flag_round_trip(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        g = load_or_generate(small_cfg())
        save_dataset(g, str(data_dir))
        code = cli_main([
            "attack", "--dataset", str(data_dir), "--runs", "1", "--seed", "1",
            "--attack", "b1", "--epochs", "10", "--attack-epochs", "10",
        ])
        assert code == 0

    def test_dataset_with_non_finite_feature_fails_at_load(self, tmp_path):
        data_dir = tmp_path / "data"
        save_dataset(load_or_generate(small_cfg()), str(data_dir))
        rows = (data_dir / "features.csv").read_text().splitlines()
        rows[-1] = ",".join(["nan"] + rows[-1].split(",")[1:])
        (data_dir / "features.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"^features\.csv row {len(rows) - 1} "):
            cli_main(["attack", "--dataset", str(data_dir), "--runs", "1", "--attack", "a1",
                      "--epochs", "2", "--attack-epochs", "2", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_report_verb_without_report_names_the_file(self, tmp_path):
        missing = os.path.join(str(tmp_path), "report.csv")
        with pytest.raises(SystemExit, match=f"^report needs {missing}, which does not exist$"):
            cli_main(["report", "--out", str(tmp_path)])
        assert not (tmp_path / "summary.csv").exists()

    def test_report_verb(self, tmp_path):
        rep = run_experiment(small_cfg(runs=2))
        write_reports(rep, str(tmp_path))
        os.remove(tmp_path / "summary.csv")
        assert cli_main(["report", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "summary.csv").exists()

    def test_sweep_verb(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main([
            "sweep", "--defense", "edgerand", "--epsilons", "5",
            "--runs", "1", "--seed", "2", "--epochs", "15", "--attack-epochs", "15",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "attack,epsilon,target_accuracy,attack_auc"
        assert [line.split(",")[:2] for line in lines[1:]] == [["a1", "undefended"], ["a1", "5.0"]]
        assert "a1 AUC" in capsys.readouterr().out
        assert len(lines) == 3  # undefended + one epsilon

    def test_sweep_rejects_epsilon_before_loading(self, tmp_path):
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(SystemExit, match="--epsilons"):
            cli_main(["sweep", "--dataset", missing, "--epsilon", "7", "--epsilons", "2"])

    @pytest.mark.parametrize("verb", ["attack", "train", "transfer"])
    def test_config_epsilons_rejected_outside_sweep(self, tmp_path, verb):
        # only sweep reads epsilons; the dataset cannot load, so the error
        # shows the key is refused first
        config = tmp_path / "bad.cfg"
        config.write_text("epsilons = 1\n")
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(ValueError, match=r"unknown config keys: \['epsilons'\]"):
            cli_main([verb, "--config", str(config), "--dataset", missing])

    @pytest.mark.parametrize("line, match", [
        ("runs = x", "runs must be an integer, got 'x'"),
        ("synthetic_p_in = abc", "synthetic_p_in must be a number, got 'abc'"),
    ])
    def test_config_value_that_does_not_parse_names_its_key(self, tmp_path, line, match):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(ValueError, match=match):
            cli_main(["attack", "--config", str(config), "--dataset", missing])

    @pytest.mark.parametrize("flags, error, match", [
        (["attack", "--defense", "edgerand", "--epsilon", "nan"], ValueError, "epsilon > 0, got nan"),
        (["attack", "--defense", "lapgraph", "--epsilon", "inf"], ValueError, "epsilon > 0, got inf"),
        (["attack", "--defense", "soft", "--temperature", "nan"], ValueError,
         "temperature must be finite and positive, got nan"),
        (["sweep", "--epsilons", "nan"], ValueError, "epsilon > 0, got nan"),
        (["sweep", "--epsilons", "1,inf"], ValueError, "epsilon > 0, got inf"),
        (["sweep", "--epsilons", "1,x"], SystemExit, "--epsilons takes comma-separated numbers"),
    ])
    def test_non_finite_budgets_rejected_before_loading(self, tmp_path, flags, error, match):
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(error, match=match):
            cli_main(flags + ["--dataset", missing])

    def test_sweep_rejects_config_epsilon_before_loading(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("epsilon = 9\n")
        missing = str(tmp_path / "no-such-dataset")
        with pytest.raises(SystemExit, match="from --epsilons, not --epsilon"):
            cli_main(["sweep", "--config", str(config), "--dataset", missing, "--epsilons", "2"])

    @pytest.mark.parametrize("flag, expected", [(["--epsilons", "2"], [2.0]), ([], [7.0, 8.0])])
    def test_sweep_reads_config_epsilons_unless_flagged(self, tmp_path, monkeypatch,
                                                        flag, expected):
        seen = []

        def no_run(cfg, epsilons):
            seen.append(epsilons)
            raise RuntimeError("stop before the pipeline")

        monkeypatch.setattr(cli, "run_defense_sweep", no_run)
        config = tmp_path / "sweep.cfg"
        config.write_text("epsilons = 7,8\n")
        with pytest.raises(RuntimeError, match="stop before the pipeline"):
            cli_main(["sweep", "--config", str(config)] + flag)
        assert seen == [expected]

    def test_transfer_verb(self, tmp_path, capsys):
        shadow_cfg = tmp_path / "shadow.cfg"
        shadow_cfg.write_text("synthetic_communities = 5\nsynthetic_p_in = 0.25\nseed = 8\n")
        code = cli_main([
            "transfer", "--runs", "1", "--seed", "3", "--attack", "a1",
            "--epochs", "15", "--attack-epochs", "15",
            "--shadow-config", str(shadow_cfg),
        ])
        assert code == 0
        assert "transfer" in capsys.readouterr().out

    def test_transfer_shadow_fraction_on_the_same_graph(self, tmp_path):
        # the shadow side becomes a subsample of the same shadow half, at the
        # shadow config's fraction; the target half stays as it was
        shadow_cfg = tmp_path / "shadow.cfg"
        shadow_cfg.write_text("shadow_fraction = 0.5\n")
        argv = ["transfer", "--runs", "1", "--attack", "a1", "--epochs", "2",
                "--attack-epochs", "2"]
        assert cli_main(argv + ["--out", str(tmp_path / "full")]) == 0
        assert cli_main(argv + ["--shadow-config", str(shadow_cfg),
                                "--out", str(tmp_path / "half")]) == 0
        full, half = (read_split_manifest(str(tmp_path / name / "run0"))
                      for name in ("full", "half"))
        assert half["target_train"] == full["target_train"]
        assert half["target_test"] == full["target_test"]
        shadow_half = set(half["shadow_train"]) | set(half["shadow_test"])
        assert shadow_half < set(full["shadow_train"]) | set(full["shadow_test"])
        assert len(half["shadow_train"]) < len(full["shadow_train"])

    @pytest.mark.parametrize("named, flag, expected", [
        ("", ["--shadow-fraction", "0.5"], 0.5),
        ("shadow_fraction = 0.25\n", ["--shadow-fraction", "0.5"], 0.25),
    ])
    def test_transfer_shadow_fraction_on_another_graph(self, tmp_path, monkeypatch,
                                                       named, flag, expected):
        splits = []

        def recorded(graph, seed, fraction):
            splits.append((seed, fraction))
            return make_splits(graph, seed, fraction)

        monkeypatch.setattr(experiment, "make_splits", recorded)
        shadow_cfg = tmp_path / "shadow.cfg"
        shadow_cfg.write_text("synthetic_communities = 5\n" + named)
        assert cli_main(["transfer", "--runs", "1", "--seed", "3", "--attack", "a1",
                         "--epochs", "2", "--attack-epochs", "2",
                         "--shadow-config", str(shadow_cfg)] + flag) == 0
        assert (derive_seed(3, "split-shadow"), expected) in splits

    def test_transfer_rejects_shadow_keys_it_ignores(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        shadow_cfg = tmp_path / "shadow.cfg"
        shadow_cfg.write_text(
            "synthetic_communities = 5\nseed = 8\nshadow_arch = gcn\nepochs = 3\n"
            "hidden = 16\nlearning_rate = 0.01\ndropout = 0.1\n"
        )
        with pytest.raises(ValueError) as err:
            cli_main(["transfer", "--runs", "1", "--shadow-config", str(shadow_cfg)])
        message = str(err.value)
        for key in ("shadow_arch", "epochs", "hidden", "learning_rate", "dropout"):
            assert repr(key) in message
        for key in ("synthetic_communities", "seed"):
            assert repr(key) not in message

