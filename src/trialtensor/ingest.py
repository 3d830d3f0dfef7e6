"""Parsers and curation rules turning evidence TSVs into the observation tensor.

Input files (UTF-8, tab-delimited, one header row):

* ``rare_disease.tsv``: gene_id, efo_id, confidence
* ``gene_burden.tsv``: gene_id, efo_id, significant (0/1)
* ``gwas_l2g.tsv``: gene_id, efo_id, l2g_score in [0, 1]
* ``outcomes.tsv``: gene_id, efo_id, phase (0-4), status, stop_reason_class
* ``xref.tsv``: efo_id, mesh_id

Curation rules: accepted rare-disease confidence tiers score 1.0; burden
rows are kept whether significant or not, a non-significant association is
an explicit 0.0 cell rather than a missing one; GWAS locus-to-gene scores
enter at their raw value when at or above the inclusion threshold. Outcome
labeling: approval anywhere wins (label 1); otherwise any terminated or
suspended trial, or a safety/efficacy stop class, labels the pair 0;
otherwise the pair stays unlabeled and its cell is missing.
"""

from __future__ import annotations

import csv
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .io import read_text
from .tensor import Mode, ModeIndex, SparseTensor, build_index

logger = logging.getLogger(__name__)

OUTCOME_LAYER_NAME = "outcome"


class Layer(Enum):
    RARE_DISEASE = "rare_disease"
    GENE_BURDEN = "gene_burden"
    GWAS = "gwas"


# Fixed layer order: outcome is slice 0, evidence slices follow in this order.
LAYER_ORDER = (Layer.RARE_DISEASE, Layer.GENE_BURDEN, Layer.GWAS)

DEFAULT_ACCEPTED_CONFIDENCE = frozenset({"definitive", "strong"})
KNOWN_CONFIDENCE = frozenset(
    {"definitive", "strong", "moderate", "limited", "disputed", "refuted"}
)

KNOWN_STATUSES = frozenset(
    {"approved", "terminated", "suspended", "completed", "active", "withdrawn"}
)
NEGATIVE_STATUSES = frozenset({"terminated", "suspended"})


class StopReason(Enum):
    SAFETY = "safety"
    EFFICACY = "efficacy"
    BUSINESS = "business"
    OTHER = "other"
    NONE = "none"


NEGATIVE_STOP_REASONS = frozenset({StopReason.SAFETY, StopReason.EFFICACY})
# Reporting precedence when one pair aggregates several stop classes.
_STOP_PRECEDENCE = (
    StopReason.SAFETY,
    StopReason.EFFICACY,
    StopReason.BUSINESS,
    StopReason.OTHER,
    StopReason.NONE,
)


@dataclass(frozen=True)
class EvidenceRecord:
    gene_id: str
    disease_id: str
    layer: Layer
    value: float

    def __post_init__(self):
        if self.layer is Layer.RARE_DISEASE and self.value != 1.0:
            raise DataError(f"rare-disease value must be 1.0, got {self.value}")
        if self.layer is Layer.GENE_BURDEN and self.value not in (0.0, 1.0):
            raise DataError(f"gene-burden value must be 0 or 1, got {self.value}")
        if not 0.0 <= self.value <= 1.0:
            raise DataError(f"evidence value outside [0, 1]: {self.value}")


@dataclass(frozen=True)
class TrialRow:
    gene_id: str
    disease_id: str
    phase: int
    status: str
    stop_reason: StopReason


@dataclass
class OutcomePair:
    """Aggregated trial history of one (gene, disease) pair."""

    gene_id: str
    disease_id: str
    status_set: frozenset[str]
    max_phase: int
    stop_reason_class: StopReason
    label: int | None


@dataclass
class IngestReport:
    """Drop, merge and conflict counters accumulated across the pipeline."""

    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def to_dict(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))


def _rows(path: str | Path, required: Sequence[str]):
    """Yield (line_number, row_dict) from a header-bearing TSV."""
    path = Path(path)
    with read_text(path, newline="") as handle:
        reader = csv.DictReader(handle, delimiter="\t")
        try:
            header = reader.fieldnames or []
            missing = [col for col in required if col not in header]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            for lineno, row in enumerate(reader, start=2):
                if any(row.get(col) in (None, "") for col in required):
                    raise DataError(f"{path}:{lineno}: malformed row, expected fields {list(required)}")
                yield lineno, row
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise DataError(f"{path}:{reader.reader.line_num}: {exc}") from exc


def parse_rare_disease(
    path: str | Path,
    report: IngestReport | None = None,
) -> list[EvidenceRecord]:
    """Curated gene-disease links; accepted confidence tiers become value 1.0."""
    report = report if report is not None else IngestReport()
    records = []
    for lineno, row in _rows(path, ("gene_id", "efo_id", "confidence")):
        confidence = row["confidence"].strip().lower()
        report.bump("rare_disease_rows")
        if confidence in DEFAULT_ACCEPTED_CONFIDENCE:
            records.append(
                EvidenceRecord(row["gene_id"], row["efo_id"], Layer.RARE_DISEASE, 1.0)
            )
            report.bump("rare_disease_accepted")
        elif confidence in KNOWN_CONFIDENCE:
            report.bump("rare_disease_dropped_confidence")
        else:
            logger.warning("%s:%d: unknown confidence %r, dropping row", path, lineno, confidence)
            report.bump("rare_disease_unknown_confidence")
    return records


DEFAULT_SIGNIFICANCE_POLICY = {"0": 0.0, "1": 1.0}


def parse_gene_burden(
    path: str | Path,
    report: IngestReport | None = None,
) -> list[EvidenceRecord]:
    """Burden associations; below-threshold rows are explicit 0.0 observations.

    Keeping the non-significant rows as observed negatives, instead of
    missing cells, is what distinguishes this layer from the other two.
    """
    report = report if report is not None else IngestReport()
    records = []
    for lineno, row in _rows(path, ("gene_id", "efo_id", "significant")):
        flag = row["significant"].strip()
        if flag not in DEFAULT_SIGNIFICANCE_POLICY:
            raise DataError(f"{path}:{lineno}: significance flag {flag!r} not in {sorted(DEFAULT_SIGNIFICANCE_POLICY)}")
        value = DEFAULT_SIGNIFICANCE_POLICY[flag]
        records.append(EvidenceRecord(row["gene_id"], row["efo_id"], Layer.GENE_BURDEN, value))
        report.bump("burden_rows")
        report.bump("burden_positive" if value == 1.0 else "burden_negative")
    return records


def parse_gwas_l2g(
    path: str | Path,
    score_threshold: float = 0.5,
    report: IngestReport | None = None,
) -> list[EvidenceRecord]:
    """Locus-to-gene scores; rows below the threshold are dropped (missing)."""
    if not 0.0 <= score_threshold <= 1.0:
        raise DataError(f"score threshold must be in [0, 1], got {score_threshold}")
    report = report if report is not None else IngestReport()
    records = []
    for lineno, row in _rows(path, ("gene_id", "efo_id", "l2g_score")):
        try:
            score = float(row["l2g_score"])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad l2g_score {row['l2g_score']!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise DataError(f"{path}:{lineno}: l2g_score {score} outside [0, 1]")
        report.bump("gwas_rows")
        if score >= score_threshold:
            records.append(EvidenceRecord(row["gene_id"], row["efo_id"], Layer.GWAS, score))
            report.bump("gwas_kept")
        else:
            report.bump("gwas_below_threshold")
    return records


def parse_outcomes(path: str | Path, report: IngestReport | None = None) -> list[TrialRow]:
    """Read per-trial rows; stop reasons arrive pre-classified upstream."""
    report = report if report is not None else IngestReport()
    rows = []
    for lineno, row in _rows(
        path, ("gene_id", "efo_id", "phase", "status", "stop_reason_class")
    ):
        try:
            phase = int(row["phase"])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad phase {row['phase']!r}") from exc
        if not 0 <= phase <= 4:
            raise DataError(f"{path}:{lineno}: phase {phase} outside 0..4")
        reason_text = row["stop_reason_class"].strip().lower()
        try:
            reason = StopReason(reason_text)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unknown stop_reason_class {reason_text!r}") from exc
        rows.append(
            TrialRow(row["gene_id"], row["efo_id"], phase, row["status"].strip().lower(), reason)
        )
        report.bump("outcome_rows")
    return rows


def label_outcomes(
    trial_rows: Iterable[TrialRow], report: IngestReport | None = None
) -> list[OutcomePair]:
    """Collapse trial rows per pair and apply the labeling rule.

    Approval dominates every other signal; a failure label requires a
    terminated or suspended trial or a safety/efficacy stop class; anything
    else leaves the pair unlabeled. Unknown statuses are warned about and
    treated as non-negative evidence.
    """
    report = report if report is not None else IngestReport()
    by_pair: dict[tuple[str, str], list[TrialRow]] = defaultdict(list)
    for row in trial_rows:
        if row.status not in KNOWN_STATUSES:
            logger.warning(
                "unknown trial status %r for (%s, %s); treated as non-negative",
                row.status,
                row.gene_id,
                row.disease_id,
            )
            report.bump("outcome_unknown_status")
        by_pair[(row.gene_id, row.disease_id)].append(row)
    pairs = []
    for (gene_id, disease_id), rows in sorted(by_pair.items()):
        statuses = frozenset(row.status for row in rows)
        reasons = {row.stop_reason for row in rows}
        stop_reason = next(r for r in _STOP_PRECEDENCE if r in reasons)
        if "approved" in statuses:
            label = 1
        elif statuses & NEGATIVE_STATUSES or reasons & NEGATIVE_STOP_REASONS:
            label = 0
        else:
            label = None
        pairs.append(
            OutcomePair(
                gene_id=gene_id,
                disease_id=disease_id,
                status_set=statuses,
                max_phase=max(row.phase for row in rows),
                stop_reason_class=stop_reason,
                label=label,
            )
        )
        report.bump("outcome_pairs")
        key = {1: "outcome_labeled_positive", 0: "outcome_labeled_negative", None: "outcome_unlabeled"}
        report.bump(key[label])
    return pairs


# --------------------------------------------------------------------------
# Ontology mapping.

def load_xref(path: str | Path) -> dict[str, str]:
    """EFO to MeSH cross-reference table; one EFO id must map to one MeSH id."""
    mapping: dict[str, str] = {}
    for lineno, row in _rows(path, ("efo_id", "mesh_id")):
        efo, mesh = row["efo_id"], row["mesh_id"]
        if efo in mapping and mapping[efo] != mesh:
            raise DataError(f"{path}:{lineno}: ambiguous mapping for {efo}: {mapping[efo]} vs {mesh}")
        mapping[efo] = mesh
    return mapping


def _map_disease_id(disease_id: str, xref: dict[str, str], mapped_ids: frozenset[str]) -> str | None:
    if disease_id in xref:
        return xref[disease_id]
    if disease_id in mapped_ids:
        return disease_id  # already MeSH; keeps mapping idempotent
    return None


def map_ontology(
    items: Sequence[EvidenceRecord] | Sequence[OutcomePair],
    xref: dict[str, str],
    report: IngestReport | None = None,
):
    """Replace EFO disease ids with MeSH ids, merging records that collide.

    Unmapped ids are dropped and counted. When several input ids land on one
    MeSH id, evidence records merge to the maximum value (conflicting binary
    values are reported), and outcome pairs merge their trial histories with
    approval still dominating.
    """
    report = report if report is not None else IngestReport()
    items = list(items)
    if not items:
        return []
    mapped_ids = frozenset(xref.values())
    if isinstance(items[0], EvidenceRecord):
        return _map_records(items, xref, mapped_ids, report)
    if isinstance(items[0], OutcomePair):
        return _map_pairs(items, xref, mapped_ids, report)
    raise DataError(f"cannot map ontology for {type(items[0]).__name__} items")


def _map_records(records, xref, mapped_ids, report) -> list[EvidenceRecord]:
    merged: dict[tuple[str, str, Layer], EvidenceRecord] = {}
    for record in records:
        mesh = _map_disease_id(record.disease_id, xref, mapped_ids)
        if mesh is None:
            report.bump("unmapped_dropped")
            continue
        key = (record.gene_id, mesh, record.layer)
        incoming = EvidenceRecord(record.gene_id, mesh, record.layer, record.value)
        existing = merged.get(key)
        if existing is None:
            merged[key] = incoming
        else:
            report.bump("merged_records")
            if existing.value != incoming.value:
                report.bump("merge_conflicts")
                logger.warning(
                    "merge conflict at (%s, %s, %s): %s vs %s, keeping max",
                    record.gene_id, mesh, record.layer.value, existing.value, incoming.value,
                )
            if incoming.value > existing.value:
                merged[key] = incoming
    return list(merged.values())


def _map_pairs(pairs, xref, mapped_ids, report) -> list[OutcomePair]:
    merged: dict[tuple[str, str], OutcomePair] = {}
    for pair in pairs:
        mesh = _map_disease_id(pair.disease_id, xref, mapped_ids)
        if mesh is None:
            report.bump("unmapped_dropped")
            continue
        key = (pair.gene_id, mesh)
        existing = merged.get(key)
        if existing is None:
            merged[key] = OutcomePair(
                gene_id=pair.gene_id,
                disease_id=mesh,
                status_set=pair.status_set,
                max_phase=pair.max_phase,
                stop_reason_class=pair.stop_reason_class,
                label=pair.label,
            )
            continue
        report.bump("merged_pairs")
        if existing.label is not None and pair.label is not None and existing.label != pair.label:
            report.bump("merge_conflicts")
        labels = {existing.label, pair.label}
        existing.status_set = existing.status_set | pair.status_set
        existing.max_phase = max(existing.max_phase, pair.max_phase)
        existing.stop_reason_class = next(
            r for r in _STOP_PRECEDENCE if r in {existing.stop_reason_class, pair.stop_reason_class}
        )
        existing.label = 1 if 1 in labels else (0 if 0 in labels else None)
    return list(merged.values())


# --------------------------------------------------------------------------
# Tensor assembly.

def build_tensor(
    evidence: Sequence[EvidenceRecord],
    outcomes: Sequence[OutcomePair],
    layer_selection: Iterable[Layer] = LAYER_ORDER,
) -> tuple[SparseTensor, tuple[ModeIndex, ModeIndex, ModeIndex]]:
    """Assemble the rank-3 tensor: outcome labels at layer 0, evidence after.

    Mode universes are the union of identifiers appearing in the selected
    evidence layers and in the outcome pairs (labeled or not; unlabeled
    pairs are prediction targets). A duplicate cell at this stage means an
    unresolved curation conflict and raises.
    """
    selection = [layer for layer in LAYER_ORDER if layer in set(layer_selection)]
    if not selection:
        raise DataError("layer selection is empty")
    evidence = [record for record in evidence if record.layer in selection]
    labeled = [pair for pair in outcomes if pair.label is not None]
    if not labeled:
        raise DataError("empty outcome layer: no labeled pairs")
    genes = [r.gene_id for r in evidence] + [p.gene_id for p in outcomes]
    diseases = [r.disease_id for r in evidence] + [p.disease_id for p in outcomes]
    targets = build_index(genes, Mode.TARGET)
    indications = build_index(diseases, Mode.INDICATION)
    layers = ModeIndex(Mode.LAYER, (OUTCOME_LAYER_NAME, *(layer.value for layer in selection)))
    entries = [
        (targets.forward[p.gene_id], indications.forward[p.disease_id], 0, float(p.label))
        for p in labeled
    ]
    entries += [
        (
            targets.forward[r.gene_id],
            indications.forward[r.disease_id],
            layers.forward[r.layer.value],
            r.value,
        )
        for r in evidence
    ]
    dims = (len(targets), len(indications), len(layers))
    tensor = SparseTensor.from_entries(dims, entries)
    return tensor, (targets, indications, layers)
