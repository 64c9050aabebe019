"""Output checks on one operation's ``report.csv``.

The floors are the repository's acceptance bounds, restated here so that a
change to the package cannot loosen the benchmark's check.
"""

from __future__ import annotations

import csv
import math

POSTERIOR_ATTACKS = frozenset(f"a{i}" for i in range(10))
POSTERIOR_AUC_FLOOR = 0.75  # acceptance criterion 4
AUC_TOLERANCE = 1e-9  # the "same behaviour" rule for AUCs


def read_report(path: str) -> tuple[list[str], list[str]]:
    """Header and the single data row of a one-run ``report.csv``."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 2:
        raise ValueError(f"{path}: expected a header and one run, got {len(rows)} rows")
    return rows[0], rows[1]


def report_problems(path: str, attacks, num_classes: int) -> list[str]:
    """Every way the report fails the check; empty when it passes.

    Every accuracy and AUC must be finite and in [0, 1], every posterior
    attack must reach ``POSTERIOR_AUC_FLOOR``, and target accuracy must beat chance.
    """
    try:
        header, row = read_report(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    expected = ["run", "target_accuracy", "shadow_accuracy"] + [f"auc_{a}" for a in attacks]
    if header != expected or len(row) != len(header):
        return [f"report columns {header} != {expected}"]
    problems = []
    values = {}
    for name, cell in zip(header[1:], row[1:]):
        try:
            value = float(cell)
        except ValueError:
            problems.append(f"{name}={cell!r} is not a number")
            continue
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{name}={value} is not a finite value in [0, 1]")
        values[name] = value
    for attack in attacks:
        value = values.get(f"auc_{attack}")
        if attack in POSTERIOR_ATTACKS and value is not None and not value >= POSTERIOR_AUC_FLOOR:
            problems.append(f"auc_{attack}={value} is below the floor {POSTERIOR_AUC_FLOOR}")
    accuracy = values.get("target_accuracy")
    if accuracy is not None and not accuracy > 1.0 / num_classes:
        problems.append(f"target_accuracy={accuracy} does not beat chance 1/{num_classes}")
    return problems


def report_aucs(path: str) -> dict[str, float]:
    header, row = read_report(path)
    return {name[4:]: float(cell) for name, cell in zip(header, row) if name.startswith("auc_")}


def auc_changes(aucs: dict[str, float], reference: dict[str, float] | None) -> tuple[int, int]:
    """``(changed, unrecorded)``: attacks whose AUC moved by more than the
    tolerance from the recorded value, and attacks with no recorded value."""
    reference = reference or {}
    changed = sum(1 for a, v in aucs.items() if a in reference and abs(v - reference[a]) > AUC_TOLERANCE)
    unrecorded = sum(1 for a in aucs if a not in reference)
    return changed, unrecorded
