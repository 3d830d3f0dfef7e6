"""Dict-keyed reference for ``phase-analysis``: the join of pairs to predictions
that the per-pair arrays replaced, kept to check the array join against.

:func:`read_predictions` returns the scores of the wanted
``(target, indication)`` keys as a dict, and :func:`phase_analysis` groups
``(gene_id, disease_id, max_phase)`` triples by looking each pair up in it.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from trialtensor import ingest as ing
from trialtensor.errors import DataError
from trialtensor.io import check, parse_fields, tsv_blocks
from trialtensor.metrics import MAX_PHASE, bonferroni, mann_whitney_u


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """True for each row whose key tuple an earlier row already has."""
    *_, first = ing.merge((*keys, np.arange(len(keys[0]))), len(keys), (np.minimum,))
    repeat = np.ones(len(keys[0]), dtype=bool)
    repeat[first] = False
    return repeat


def _coded(column: np.ndarray, codes: dict[str, int]) -> np.ndarray:
    """Each row's code for its value, a new value taking the next free code."""
    values, rows = ing.factorize(column)
    return np.array([codes.setdefault(value, len(codes)) for value in values.tolist()], dtype=np.int64)[rows]


def read_predictions(path: Path, layer: str, keys: set[tuple[str, str]]) -> dict[tuple[str, str], float]:
    """The scores that the ``layer`` rows of a ``predictions.tsv`` hold for ``keys``; every row is checked."""
    codes: tuple[dict[str, int], dict[str, int]] = ({}, {})
    target_codes, indication_codes, numbers, scores = [], [], [], {}
    faults: tuple[list[DataError], list[DataError]] = ([], [])  # unreadable scores, then scores outside [0, 1]
    columns = {"target_id": str, "indication_id": str, "layer": str, "score": str}
    for targets, indications, layers, text, lines in tsv_blocks(path, columns):
        kept = layers == layer
        targets, indications, text, lines = targets[kept], indications[kept], text[kept], lines[kept]
        target_codes.append(_coded(targets, codes[0]))
        indication_codes.append(_coded(indications, codes[1]))
        numbers.append(lines)
        try:
            score = parse_fields(path, lines, text.tolist(), float, "score")
        except DataError as exc:
            faults[0].append(exc)
            continue
        try:
            check(path, lines, (score >= 0.0) & (score <= 1.0),
                  lambda r: f"bad score {text[r]!r}, expected a number in [0, 1]")
        except DataError as exc:
            faults[1].append(exc)
        wanted = np.fromiter((key in keys for key in zip(targets.tolist(), indications.tolist())), bool, len(targets))
        scores.update(zip(zip(targets[wanted].tolist(), indications[wanted].tolist()), score[wanted].tolist()))
    numbers = np.concatenate(numbers)
    if not numbers.size:
        raise DataError(f"{path}: no predictions for layer {layer!r}")
    target_codes, indication_codes = np.concatenate(target_codes), np.concatenate(indication_codes)
    names = [list(table) for table in codes]
    check(path, numbers, ~_repeats(target_codes, indication_codes),
          lambda r: f"duplicate prediction for {(names[0][target_codes[r]], names[1][indication_codes[r]])}")
    for found in faults:
        if found:
            raise found[0]
    return scores


def phase_analysis(
    predictions: Mapping[tuple[str, str], float],
    outcome_pairs: Iterable[tuple[str, str, int]],
) -> dict:
    """The ``phase_analysis.json`` payload of ``(gene_id, disease_id, max_phase)`` triples."""
    groups: dict[int, list[float]] = {phase: [] for phase in range(MAX_PHASE + 1)}
    unmatched = 0
    for gene_id, disease_id, max_phase in outcome_pairs:
        score = predictions.get((gene_id, disease_id))
        if score is None:
            unmatched += 1
            continue
        if not 0 <= max_phase <= MAX_PHASE:
            raise DataError(f"max_phase {max_phase} outside 0..{MAX_PHASE}")
        groups[max_phase].append(float(score))
    excluded = [phase for phase, scores in groups.items() if len(scores) < 2]
    tested = [phase for phase in groups if phase not in excluded]
    combos = list(itertools.combinations(tested, 2))
    tests = []
    for phase_a, phase_b in combos:
        u, p_value = mann_whitney_u(groups[phase_a], groups[phase_b])
        tests.append({
            "phase_a": phase_a,
            "phase_b": phase_b,
            "u": u,
            "p_raw": p_value,
            "p_corrected": bonferroni(p_value, len(combos)),
        })
    return {
        "groups": {str(phase): scores for phase, scores in groups.items()},
        "group_sizes": {str(phase): len(scores) for phase, scores in groups.items()},
        "tests": tests,
        "n_comparisons": len(tests),
        "excluded_phases": excluded,
        "unmatched_pairs": unmatched,
    }
