"""Command-line entry points: train, attack, sweep, transfer, report."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import make_splits
from .experiment import (
    CONFIG_KEYS,
    config_from_mapping,
    export_test_features,
    load_or_generate,
    parse_config_file,
    run_defense_sweep,
    run_experiment,
    summarize_report_csv,
    train_target,
    write_analyses,
    write_reports,
    write_run_artifacts,
    write_sweep_report,
)
from .gnn import evaluate_accuracy, save_gnn
from .rng import derive_seed


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--dataset", help="dataset directory, or omit for the synthetic generator")
    parser.add_argument("--arch", dest="target_arch", help="target GNN architecture {gcn,sage,gat,gin}")
    parser.add_argument("--shadow-arch", help="shadow GNN architecture")
    parser.add_argument("--attack", dest="attacks", help="comma-separated attack ids {b0,b1,b2,a0..a9}")
    parser.add_argument("--hop", dest="hops", help="restrict to attacks at these hop counts, e.g. 0,1")
    parser.add_argument("--defense", help="defense {none,label,soft,edgerand,lapgraph}")
    parser.add_argument("--epsilon", type=float, help="privacy budget for DP defenses")
    parser.add_argument("--temperature", type=float, help="softmax temperature for the soft defense")
    parser.add_argument("--shadow-fraction", type=float, help="shadow node subsample fraction")
    parser.add_argument("--runs", type=int, help="number of seeded runs")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--epochs", type=int, help="GNN training epochs")
    parser.add_argument("--attack-epochs", type=int, help="attack model training epochs")
    parser.add_argument("--out", help="output directory for reports and artifacts")


def _merged_mapping(args: argparse.Namespace) -> dict[str, str]:
    """The config file's keys, overridden by every flag given; each flag's
    ``dest`` is its key, and ``out`` and sweep's ``epsilons`` ride along."""
    mapping = parse_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if value is not None and (key in CONFIG_KEYS or key in ("out", "epsilons")):
            mapping[key] = str(value)
    return mapping


def _build(args: argparse.Namespace):
    mapping = _merged_mapping(args)
    out = mapping.pop("out", None)
    cfg = config_from_mapping(mapping)
    return cfg, out


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, out = _build(args)
    graph = load_or_generate(cfg)
    bundle = make_splits(graph, derive_seed(cfg.seed, "split"), cfg.shadow_fraction)
    model = train_target(cfg, bundle.target_train, graph.num_classes, cfg.seed)
    train_acc = evaluate_accuracy(model, bundle.target_train)
    test_acc = evaluate_accuracy(model, bundle.target_test)
    print(f"target {cfg.target_arch}: train accuracy {train_acc:.4f}, test accuracy {test_acc:.4f}")
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "target.ckpt")
        save_gnn(model, path)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    cfg, out = _build(args)
    if not out and (args.analyses or args.export_features):
        raise SystemExit("--analyses and --export-features write under --out; give --out DIR")
    keep = bool(out)
    report = run_experiment(cfg, keep_artifacts=keep)
    for attack_id in report.attack_ids:
        print(f"{attack_id}: mean AUC {report.mean_auc[attack_id]:.4f}")
    print(f"target accuracy {np.mean(report.target_accuracies):.4f}, "
          f"shadow accuracy {np.mean(report.shadow_accuracies):.4f}")
    if out:
        write_reports(report, out)
        write_run_artifacts(report, out)
        if args.analyses:
            write_analyses(report, out)
        if args.export_features:
            export_test_features(report, out)
        print(f"reports written to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    mapping = _merged_mapping(args)
    if "epsilon" in mapping:  # from --epsilon or the config file
        raise SystemExit("sweep takes its privacy budgets from --epsilons, not --epsilon")
    out = mapping.pop("out", None)
    epsilons_text = mapping.pop("epsilons", None)
    if not epsilons_text:
        raise SystemExit("sweep needs --epsilons, e.g. --epsilons 1,2,5,10")
    mapping.setdefault("defense", "edgerand")
    mapping["epsilon"] = "1.0"  # placeholder; the sweep substitutes each value
    cfg = config_from_mapping(mapping)
    try:
        epsilons = [float(e) for e in str(epsilons_text).split(",") if e.strip()]
    except ValueError:
        raise SystemExit(
            f"--epsilons takes comma-separated numbers, got {epsilons_text!r}") from None
    sweep = run_defense_sweep(cfg, epsilons)
    points = [("undefended", sweep.undefended_accuracy, sweep.undefended_auc)] + [
        (f"epsilon {eps:g}", acc, {name: aucs[i] for name, aucs in sweep.attack_aucs.items()})
        for i, (eps, acc) in enumerate(zip(sweep.epsilons, sweep.target_accuracies))]
    for label, acc, aucs in points:
        print(f"{label}: accuracy {acc:.4f}, "
              + ", ".join(f"{name} AUC {a:.4f}" for name, a in aucs.items()))
    if out:
        write_sweep_report(sweep, out)
        print(f"sweep written to {out}")
    return 0


# The shadow side of ``transfer`` reads only its dataset, the seed of its
# synthetic draw and its shadow fraction (the target's when it names none);
# the shadow GNN, the attacks, the defense and the run count all come from
# the target config.
_SHADOW_CONFIG_KEYS = {key for key in CONFIG_KEYS if key.startswith("synthetic_")} | {
    "dataset", "seed", "shadow_fraction"}


def _cmd_transfer(args: argparse.Namespace) -> int:
    cfg, out = _build(args)
    shadow_mapping = parse_config_file(args.shadow_config) if args.shadow_config else {}
    ignored = sorted(set(shadow_mapping) - _SHADOW_CONFIG_KEYS)
    if ignored:
        raise ValueError(
            f"--shadow-config keys {ignored} are not read for the shadow side; "
            "set them in --config or on the command line"
        )
    if args.shadow_dataset:
        shadow_mapping["dataset"] = args.shadow_dataset
    shadow_mapping.setdefault("shadow_fraction", str(cfg.shadow_fraction))
    cfg_shadow = config_from_mapping(shadow_mapping)
    report = run_experiment(cfg, keep_artifacts=bool(out), shadow=cfg_shadow)
    for attack_id in report.attack_ids:
        print(f"{attack_id} (transfer): mean AUC {report.mean_auc[attack_id]:.4f}")
    if out:
        write_reports(report, out)
        write_run_artifacts(report, out)
        print(f"reports written to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report_path = os.path.join(args.out, "report.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    if not os.path.isfile(report_path):
        raise SystemExit(f"report needs {report_path}, which does not exist")
    summarize_report_csv(report_path, summary_path)
    print(f"summary rebuilt at {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linklab",
        description="Train small inductive GNNs and evaluate link stealing attacks and defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a target GNN and report accuracy")
    _add_common_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_attack = sub.add_parser("attack", help="run the full attack pipeline")
    _add_common_flags(p_attack)
    p_attack.add_argument("--analyses", action="store_true",
                          help="write robustness groups, PCC, surprising links, leading CDF")
    p_attack.add_argument("--export-features", action="store_true",
                          help="write the retained run's test feature matrices")
    p_attack.set_defaults(func=_cmd_attack)

    p_sweep = sub.add_parser("sweep", help="defense sweep over privacy budgets")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--epsilons", help="comma-separated privacy budgets")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_transfer = sub.add_parser("transfer", help="attack with a different-distribution shadow")
    _add_common_flags(p_transfer)
    p_transfer.add_argument("--shadow-config", help="config file for the shadow dataset")
    p_transfer.add_argument("--shadow-dataset", help="dataset directory for the shadow side")
    p_transfer.set_defaults(func=_cmd_transfer)

    p_report = sub.add_parser("report", help="re-aggregate a stored per-run report")
    p_report.add_argument("--out", required=True, help="directory holding report.csv")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
