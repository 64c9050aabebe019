"""Desk-scale laboratory for link stealing attacks on inductive GNNs."""

from .attacks import (
    ATTACK_SPECS,
    AttackSpec,
    MultiInputMlp,
    attack_dataset_inputs,
    build_attack_model,
    link_scores,
    train_attack,
)
from .data import (
    PairDataset,
    SplitBundle,
    build_pair_dataset,
    generate_planted_partition,
    make_splits,
)
from .defenses import (
    DefenseConfig,
    edge_rand,
    label_only_feature,
    lap_graph,
    perturb_graph,
)
from .experiment import (
    ExperimentConfig,
    RunReport,
    SyntheticSpec,
    run_defense_sweep,
    run_experiment,
)
from .features import (
    PosteriorTable,
    graph_block,
    node_attr_block,
    pairwise_ops,
    transfer_block,
)
from .gnn import (
    TrainedGnn,
    evaluate_accuracy,
    layer_forward,
    load_gnn,
    save_gnn,
    train_gnn,
)
from .graph import Graph, load_dataset
from .metrics import (
    GroupReport,
    auc,
    leading_probability_cdf,
    pearson_correlation,
    robustness_groups,
    surprising_links,
)

__version__ = "0.1.0"
