"""Session fixtures shared across the acceptance and property tests."""

import os
import time

import pytest

from linklab.attacks import ATTACK_SPECS, attack_dataset_inputs, spec_for, train_attack
from linklab.data import build_pair_dataset, generate_planted_partition, make_splits
from linklab.experiment import ExperimentConfig, SyntheticSpec, run_experiment
from linklab.features import PosteriorTable
from linklab.gnn import train_gnn

# The desk-scale reference graph used by the signal-recovery criteria.
ACCEPTANCE_SYNTHETIC = SyntheticSpec(
    nodes=400, communities=4, p_in=0.1, p_out=0.005, feature_dim=32, noise=1.0
)


@pytest.fixture(scope="session")
def acceptance_pipeline():
    """Five seeded runs of the GraphSAGE/GraphSAGE planted-partition pipeline."""
    cfg = ExperimentConfig(
        synthetic=ACCEPTANCE_SYNTHETIC,
        target_arch="sage",
        shadow_arch="sage",
        attacks=("a1", "a8"),
        runs=5,
        seed=0,
    )
    started = time.perf_counter()
    report = run_experiment(cfg, keep_artifacts=True)
    elapsed = time.perf_counter() - started
    return cfg, report, elapsed


@pytest.fixture(scope="session")
def symmetry_pipeline():
    """A compact trained pipeline with one classifier per attack spec."""
    g = generate_planted_partition(220, 4, 0.12, 0.01, 16, 1.0, seed=41)
    bundle = make_splits(g, seed=17)
    shadow = train_gnn(bundle.shadow_train, "sage", seed=5, num_classes=g.num_classes, epochs=60)
    target = train_gnn(bundle.target_train, "sage", seed=6, num_classes=g.num_classes, epochs=60)
    attack_train = build_pair_dataset(bundle.shadow_train, seed=7)
    table = PosteriorTable(shadow, attack_train.graph)
    models = {}
    for attack_id in ATTACK_SPECS:
        inputs = attack_dataset_inputs(spec_for(attack_id), table, attack_train.graph,
                                       attack_train.pairs)
        models[attack_id] = train_attack(attack_id, inputs, attack_train.labels, seed=8, epochs=60)
    return bundle.target_train, target, models


def cora_directory():
    candidate = os.environ.get("LINKLAB_CORA_DIR", os.path.join("data", "cora"))
    required = ("edges.tsv", "features.csv", "labels.csv")
    if all(os.path.exists(os.path.join(candidate, name)) for name in required):
        return candidate
    return None


@pytest.fixture(scope="session")
def cora_report_or_none():
    """The five-run GraphSAGE/GraphSAGE Cora pipeline, when data is supplied."""
    directory = cora_directory()
    if directory is None:
        return None
    cfg = ExperimentConfig(
        dataset=directory,
        target_arch="sage",
        shadow_arch="sage",
        attacks=("a0", "a2", "a9", "b0"),
        runs=5,
        seed=0,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def cora_pipeline(cora_report_or_none):
    if cora_report_or_none is None:
        pytest.skip("Cora dataset not supplied (set LINKLAB_CORA_DIR or data/cora)")
    return cora_report_or_none


@pytest.fixture(scope="session")
def cora_pipeline_if_available(cora_report_or_none):
    return cora_report_or_none
