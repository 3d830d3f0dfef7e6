from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from trialtensor.ingest import (
    LAYER_ORDER,
    STOP_REASONS,
    UNLABELED,
    build_tensor,
    label_outcomes,
    load_xref,
    map_ontology,
    parse_gene_burden,
    parse_gwas_l2g,
    parse_outcomes,
    parse_rare_disease,
)
from trialtensor.tensor import SparseTensor

DATA_DIR = Path(__file__).parent / "data"

# The bundled curation fixture assembles into a 3 genes x 2 diseases x 4
# layers tensor with 12 observed cells (density 0.5).
FIXTURE_ENTRIES = [
    (0, 0, 0, 1.0),
    (0, 1, 0, 0.0),
    (1, 0, 0, 1.0),
    (2, 1, 0, 0.0),
    (0, 0, 1, 1.0),
    (1, 0, 1, 1.0),
    (2, 1, 1, 1.0),
    (0, 0, 2, 1.0),
    (1, 0, 2, 0.0),
    (2, 0, 2, 0.0),
    (0, 0, 3, 0.83),
    (1, 1, 3, 0.71),
]


def cell_value(tensor: SparseTensor, i: int, j: int, k: int) -> float | None:
    """Value of the observed cell ``(i, j, k)``, or None if it is unobserved."""
    match = (tensor.coords == (i, j, k)).all(axis=1)
    return float(tensor.values[match][0]) if match.any() else None


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def ingest_fixture(report: Counter | None = None):
    """Run the full curation pipeline over the bundled fixture files."""
    report = report if report is not None else Counter()
    xref = load_xref(DATA_DIR / "xref.tsv")
    evidence = concat_tables([
        parse_rare_disease(DATA_DIR / "rare_disease.tsv", report=report),
        parse_gene_burden(DATA_DIR / "gene_burden.tsv", report=report),
        parse_gwas_l2g(DATA_DIR / "gwas_l2g.tsv", report=report),
    ])
    pairs = label_outcomes(parse_outcomes(DATA_DIR / "outcomes.tsv", report=report), report=report)
    return map_ontology(evidence, pairs, xref, report=report)


def concat_tables(tables):
    """Row-wise concatenation of column tables of one kind."""
    return tuple(map(np.concatenate, zip(*tables)))


def evidence_table(rows) -> tuple:
    """An evidence table from ``(gene_id, disease_id, layer_name, value)`` rows."""
    genes, diseases, layers, values = zip(*rows) if rows else ((), (), (), ())
    layer = np.array([LAYER_ORDER.index(name) for name in layers], dtype=np.int64)
    return np.array(genes, dtype=object), np.array(diseases, dtype=object), layer, np.array(values, dtype=np.float64)


def trial_table(rows) -> tuple:
    """A trial table from ``(gene_id, disease_id, phase, status, stop_reason_class)`` rows."""
    genes, diseases, phases, statuses, reasons = zip(*rows)
    stop_rank = np.array([STOP_REASONS.index(reason) for reason in reasons], dtype=np.int64)
    return (np.array(genes, dtype=object), np.array(diseases, dtype=object), np.array(phases, dtype=np.int64),
            np.array(statuses, dtype=object), stop_rank)


# A pair table without rows, for mapping or assembling evidence alone.
NO_PAIRS = tuple(column[:0] for column in label_outcomes(trial_table([("G0", "EFO:0", 0, "completed", "none")])))


def evidence_rows(evidence) -> list:
    """An evidence table's rows as ``(gene_id, disease_id, layer_name, value)`` tuples."""
    genes, diseases, layer, value = (column.tolist() for column in evidence)
    return [(g, d, LAYER_ORDER[k], v) for g, d, k, v in zip(genes, diseases, layer, value)]


def pair_rows(pairs) -> list:
    """A pair table's rows as ``(gene_id, disease_id, label or None, max_phase, stop class, statuses)``."""
    genes, diseases, phase, statuses, stop_rank, label = (column.tolist() for column in pairs)
    return [
        (g, d, None if y == UNLABELED else y, p, STOP_REASONS[r], frozenset(s))
        for g, d, p, s, r, y in zip(genes, diseases, phase, statuses, stop_rank, label)
    ]


def tensor_from_entries(dims, entries) -> SparseTensor:
    """A tensor from ``(i, j, k, value)`` tuples."""
    rows = list(entries)
    coords = np.array([row[:3] for row in rows], dtype=np.int64).reshape(-1, 3)
    values = np.array([row[3] for row in rows], dtype=np.float64)
    return SparseTensor(dims, coords, values)


@pytest.fixture(scope="session")
def fixture_tensor():
    evidence, pairs = ingest_fixture()
    return build_tensor(evidence, pairs)


@pytest.fixture()
def tiny_tensor() -> SparseTensor:
    return tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES)


# Text edits for fuzzing file readers: replace up to 12 characters at some
# position (taken modulo the text length) by up to 12 arbitrary characters.
EDITS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 12), st.text(max_size=12)),
    min_size=1,
    max_size=3,
)


# The same edits over raw bytes, for fuzzing readers with files that need not be UTF-8.
BYTE_EDITS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 12), st.binary(max_size=12)),
    min_size=1,
    max_size=3,
)


def splice(text: str | bytes, edits):
    for position, length, insert in edits:
        position %= len(text) + 1
        text = text[:position] + insert + text[position + length :]
    return text
