"""Parsers and curation rules turning evidence TSVs into the observation tensor.

Input files are UTF-8 TSVs with one header row, read by
:func:`trialtensor.io.read_tsv`; each parser names the columns it reads, and
README's "Input file formats" lists them all.

Curation rules: accepted rare-disease confidence tiers score 1.0; burden
rows are kept whether significant or not, a non-significant association is
an explicit 0.0 cell rather than a missing one; GWAS locus-to-gene scores
enter at their raw value when at or above the inclusion threshold. Outcome
labeling: approval anywhere wins (label 1); otherwise any terminated or
suspended trial, or a safety/efficacy stop class, labels the pair 0;
otherwise the pair stays unlabeled and its cell is missing. Each step adds
its row, drop, merge and conflict counts to a ``collections.Counter``.

Tables are tuples of equal-length numpy columns, identifiers as object arrays
of ``str``: evidence ``(gene_ids, disease_ids, layer, value)`` with ``layer``
indexing :data:`LAYER_ORDER`; trials ``(gene_ids, disease_ids, phase, status,
stop_rank)``, one row per trial, with ``stop_rank`` indexing
:data:`STOP_REASONS`; pairs ``(gene_ids, disease_ids, phase, statuses,
stop_rank, label)``, one row per (gene, disease) in that order, holding the
highest phase, the ``frozenset`` of statuses, the lowest stop rank and the
label (1, 0 or :data:`UNLABELED`).
"""

from __future__ import annotations

import logging
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .io import check, read_tsv
from .tensor import SparseTensor

logger = logging.getLogger(__name__)

OUTCOME_LAYER_NAME = "outcome"

# Fixed layer order: outcome is slice 0, evidence slices follow in this order.
LAYER_ORDER = ("rare_disease", "gene_burden", "gwas")

ACCEPTED_CONFIDENCE = ("definitive", "strong")
KNOWN_CONFIDENCE = ("definitive", "strong", "moderate", "limited", "disputed", "refuted")

KNOWN_STATUSES = ("approved", "terminated", "suspended", "completed", "active", "withdrawn")
NEGATIVE_STATUSES = ("terminated", "suspended")

# Stop classes in reporting precedence: a pair reports the first of its
# trials' classes, so a class's rank is its index. Ranks below
# NEGATIVE_STOP_RANKS (safety, efficacy) label a pair 0.
STOP_REASONS = ("safety", "efficacy", "business", "other", "none")
NEGATIVE_STOP_RANKS = 2

UNLABELED = -1  # below both labels, so a pair's label is the maximum of its trials'

MAX_PHASE = 4  # trial phases run from 0 (preclinical) to 4


def factorize(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a column in ascending order, and each row's index into them.
    Rows are hashed, not sorted, so only the distinct values are ever compared."""
    rows = column.tolist()
    values = sorted(set(rows))
    index = {value: code for code, value in enumerate(values)}
    return np.array(values, dtype=column.dtype), np.fromiter(map(index.__getitem__, rows), np.int64, len(rows))


def per_unique(column: np.ndarray, func) -> np.ndarray:
    """``func`` applied once per distinct value of an object column, broadcast back to the rows."""
    values, codes = factorize(column)
    return np.array([func(value) for value in values.tolist()], dtype=object)[codes]


def merge(table: tuple[np.ndarray, ...], keys: int, reducers: Sequence[np.ufunc]) -> tuple[np.ndarray, ...]:
    """One row per distinct tuple of the first ``keys`` columns, in ascending key order;
    each further column is reduced over the group's rows by the matching ufunc."""
    codes = [factorize(key)[1] for key in table[:keys]]
    order = np.lexsort(codes[::-1])  # stable: a group's rows keep their input order
    new = np.arange(len(order)) == 0  # the first row starts a group, and so does every key change
    for code in codes:
        new[1:] |= code[order][1:] != code[order][:-1]
    starts = np.flatnonzero(new)
    return (*(column[order][starts] for column in table[:keys]),
            *(reducer.reduceat(column[order], starts) for reducer, column in zip(reducers, table[keys:])))


def parse_rare_disease(path: str | Path, report: Counter | None = None) -> tuple[np.ndarray, ...]:
    """Curated gene-disease links; accepted confidence tiers become value 1.0."""
    report = report if report is not None else Counter()
    genes, diseases, confidence, lines = read_tsv(path, {"gene_id": str, "efo_id": str, "confidence": str})
    confidence = per_unique(confidence, lambda text: text.strip().lower())
    accepted = np.isin(confidence, ACCEPTED_CONFIDENCE)
    unknown = ~np.isin(confidence, KNOWN_CONFIDENCE)
    if unknown.any():
        logger.warning("%s: dropped %d rows with unknown confidence, the first %r at line %d",
                       path, unknown.sum(), confidence[unknown][0], lines[unknown][0])
    report["rare_disease_rows"] += len(genes)
    report["rare_disease_accepted"] += int(accepted.sum())
    report["rare_disease_dropped_confidence"] += int((~accepted & ~unknown).sum())
    report["rare_disease_unknown_confidence"] += int(unknown.sum())
    layer = np.full(accepted.sum(), LAYER_ORDER.index("rare_disease"))
    return genes[accepted], diseases[accepted], layer, np.ones(len(layer))


def parse_gene_burden(path: str | Path, report: Counter | None = None) -> tuple[np.ndarray, ...]:
    """Burden associations; below-threshold rows are explicit 0.0 observations.

    Keeping the non-significant rows as observed negatives, instead of
    missing cells, is what distinguishes this layer from the other two.
    """
    report = report if report is not None else Counter()
    genes, diseases, flag, lines = read_tsv(path, {"gene_id": str, "efo_id": str, "significant": str})
    flag = per_unique(flag, str.strip)
    check(path, lines, np.isin(flag, ("0", "1")), lambda r: f"significance flag {flag[r]!r} not in ['0', '1']")
    positive = flag == "1"
    report["burden_rows"] += len(genes)
    report["burden_positive"] += int(positive.sum())
    report["burden_negative"] += int((~positive).sum())
    return genes, diseases, np.full(len(genes), LAYER_ORDER.index("gene_burden")), positive.astype(np.float64)


def parse_gwas_l2g(
    path: str | Path, score_threshold: float = 0.5, report: Counter | None = None
) -> tuple[np.ndarray, ...]:
    """Locus-to-gene scores; rows below the threshold are dropped (missing)."""
    if not 0.0 <= score_threshold <= 1.0:
        raise DataError(f"score threshold must be in [0, 1], got {score_threshold}")
    report = report if report is not None else Counter()
    genes, diseases, score, lines = read_tsv(path, {"gene_id": str, "efo_id": str, "l2g_score": float})
    check(path, lines, (score >= 0.0) & (score <= 1.0), lambda r: f"l2g_score {score[r]} outside [0, 1]")
    kept = score >= score_threshold
    report["gwas_rows"] += len(genes)
    report["gwas_kept"] += int(kept.sum())
    report["gwas_below_threshold"] += int((~kept).sum())
    return genes[kept], diseases[kept], np.full(kept.sum(), LAYER_ORDER.index("gwas")), score[kept]


def parse_outcomes(path: str | Path, report: Counter | None = None) -> tuple[np.ndarray, ...]:
    """Read per-trial rows; stop reasons arrive pre-classified upstream."""
    report = report if report is not None else Counter()
    columns = {"gene_id": str, "efo_id": str, "phase": int, "status": str, "stop_reason_class": str}
    genes, diseases, phase, status, reason, lines = read_tsv(path, columns)
    check(path, lines, (phase >= 0) & (phase <= MAX_PHASE), lambda r: f"phase {phase[r]} outside 0..{MAX_PHASE}")
    reason = per_unique(reason, lambda text: text.strip().lower())
    check(path, lines, np.isin(reason, STOP_REASONS), lambda r: f"unknown stop_reason_class {reason[r]!r}")
    report["outcome_rows"] += len(genes)
    status = per_unique(status, lambda text: text.strip().lower())
    stop_rank = per_unique(reason, STOP_REASONS.index).astype(np.int64)
    return genes, diseases, phase, status, stop_rank


# A merged pair takes the highest phase, the union of the statuses, the lowest
# stop rank and the highest label, so approval still dominates.
_PAIR_REDUCERS = (np.maximum, np.bitwise_or, np.minimum, np.maximum)


def label_outcomes(trials: tuple[np.ndarray, ...], report: Counter | None = None) -> tuple[np.ndarray, ...]:
    """Collapse trial rows per pair and apply the labeling rule.

    Approval dominates every other signal; a failure label requires a
    terminated or suspended trial or a safety/efficacy stop class; anything
    else leaves the pair unlabeled. Unknown statuses are warned about and
    treated as non-negative evidence.
    """
    report = report if report is not None else Counter()
    genes, diseases, phase, status, stop_rank = trials
    unknown = ~np.isin(status, KNOWN_STATUSES)
    if unknown.any():
        logger.warning("%d trial rows with unknown trial status, treated as non-negative; the first is %r",
                       unknown.sum(), status[unknown][0])
        report["outcome_unknown_status"] += int(unknown.sum())
    failed = np.isin(status, NEGATIVE_STATUSES) | (stop_rank < NEGATIVE_STOP_RANKS)
    label = np.where(status == "approved", 1, np.where(failed, 0, UNLABELED))
    statuses = per_unique(status, lambda text: frozenset((text,)))
    pairs = merge((genes, diseases, phase, statuses, stop_rank, label), 2, _PAIR_REDUCERS)
    report["outcome_pairs"] += len(pairs[0])
    report["outcome_labeled_positive"] += int((pairs[5] == 1).sum())
    report["outcome_labeled_negative"] += int((pairs[5] == 0).sum())
    report["outcome_unlabeled"] += int((pairs[5] == UNLABELED).sum())
    return pairs


# --------------------------------------------------------------------------
# Ontology mapping.

def load_xref(path: str | Path) -> dict[str, str]:
    """EFO to MeSH cross-reference table; one EFO id must map to one MeSH id."""
    efo, mesh, lines = read_tsv(path, {"efo_id": str, "mesh_id": str})
    ids, first, inverse = np.unique(efo, return_index=True, return_inverse=True)
    first_mesh = mesh[first][inverse.reshape(-1)]
    check(path, lines, mesh == first_mesh,
           lambda r: f"ambiguous mapping for {efo[r]}: {first_mesh[r]} vs {mesh[r]}")
    return dict(zip(ids.tolist(), mesh[first].tolist()))


def map_ontology(
    evidence: tuple[np.ndarray, ...],
    pairs: tuple[np.ndarray, ...],
    xref: dict[str, str],
    report: Counter | None = None,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Replace EFO disease ids with MeSH ids in both tables, merging rows that collide.

    Unmapped ids are dropped and counted. When several input ids land on one
    MeSH id, evidence rows merge per (gene, disease, layer) to the maximum
    value, and pairs merge their trial histories with approval still
    dominating. One conflict is counted per merged evidence cell whose values
    are not all equal and per merged pair whose known labels differ. Both
    tables come out in key order.
    """
    report = report if report is not None else Counter()
    ids, codes = factorize(np.concatenate([evidence[1], pairs[1]]))
    # An id that is already a MeSH id maps to itself, so mapping twice changes nothing.
    lookup = {**{mesh: mesh for mesh in xref.values()}, **xref}
    mesh = np.array([lookup.get(ident, "") for ident in ids.tolist()], dtype=object)[codes]
    kept = mesh != ""
    report["unmapped_dropped"] += int((~kept).sum())
    n = len(evidence[1])
    evidence = tuple(column[kept[:n]] for column in (evidence[0], mesh[:n], *evidence[2:]))
    pairs = tuple(column[kept[n:]] for column in (pairs[0], mesh[n:], *pairs[2:]))

    genes, diseases, layer, top, low = merge((*evidence, evidence[3]), 3, (np.maximum, np.minimum))
    conflicts = top != low
    if conflicts.any():
        logger.warning("%d merged evidence cells had conflicting values; kept the maximum", conflicts.sum())
    report["merged_records"] += len(evidence[0]) - len(genes)
    *merged, saw_zero = merge((*pairs, pairs[5] == 0), 2, (*_PAIR_REDUCERS, np.logical_or))
    report["merged_pairs"] += len(pairs[0]) - len(merged[0])
    report["merge_conflicts"] += int(conflicts.sum() + ((merged[5] == 1) & saw_zero).sum())
    return (genes, diseases, layer, top), tuple(merged)


# --------------------------------------------------------------------------
# Tensor assembly.

def build_tensor(
    evidence: tuple[np.ndarray, ...],
    pairs: tuple[np.ndarray, ...],
    layer_selection: Sequence[str] = LAYER_ORDER,
) -> tuple[SparseTensor, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]:
    """Assemble the rank-3 tensor: outcome labels at layer 0, evidence after.

    Mode universes are the union of identifiers appearing in the selected
    evidence layers and in the outcome pairs (labeled or not; unlabeled
    pairs are prediction targets), deduplicated and sorted so that the
    tensor is the same whatever order the input rows came in. Returns the
    tensor and each mode's identifiers in index order. A duplicate cell at
    this stage means an unresolved curation conflict and raises.
    """
    selection = [layer for layer in LAYER_ORDER if layer in set(layer_selection)]
    if not selection:
        raise DataError("layer selection is empty")
    genes, diseases, layer, value = evidence
    pair_genes, pair_diseases, _, _, _, label = pairs
    labeled = label != UNLABELED
    if not labeled.any():
        raise DataError("empty outcome layer: no labeled pairs")
    # Each evidence layer's tensor slice, 0 for a layer left out.
    slices = np.array([selection.index(name) + 1 if name in selection else 0 for name in LAYER_ORDER])
    kept = slices[layer] > 0
    targets, i = factorize(np.concatenate([pair_genes, genes[kept]]))
    indications, j = factorize(np.concatenate([pair_diseases, diseases[kept]]))
    k = np.concatenate([np.zeros(len(label), dtype=np.int64), slices[layer[kept]]])
    cells = np.concatenate([labeled, np.ones(kept.sum(), dtype=bool)])
    coords = np.column_stack([i, j, k])[cells]
    values = np.concatenate([label.astype(np.float64), value[kept]])[cells]
    modes = (tuple(targets.tolist()), tuple(indications.tolist()), (OUTCOME_LAYER_NAME, *selection))
    return SparseTensor((len(targets), len(indications), len(modes[2])), coords, values), modes
