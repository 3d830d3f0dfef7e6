from collections import Counter
from pathlib import Path

import pytest
from hypothesis import strategies as st

from trialtensor import (
    SparseTensor,
    build_tensor,
    label_outcomes,
    load_xref,
    map_ontology,
    parse_gene_burden,
    parse_gwas_l2g,
    parse_outcomes,
    parse_rare_disease,
)

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
    evidence = parse_rare_disease(DATA_DIR / "rare_disease.tsv", report=report)
    evidence += parse_gene_burden(DATA_DIR / "gene_burden.tsv", report=report)
    evidence += parse_gwas_l2g(DATA_DIR / "gwas_l2g.tsv", report=report)
    evidence = map_ontology(evidence, xref, report=report)
    pairs = label_outcomes(parse_outcomes(DATA_DIR / "outcomes.tsv", report=report), report=report)
    pairs = map_ontology(pairs, xref, report=report)
    return evidence, pairs


@pytest.fixture(scope="session")
def fixture_tensor():
    evidence, pairs = ingest_fixture()
    return build_tensor(evidence, pairs)


@pytest.fixture()
def tiny_tensor() -> SparseTensor:
    return SparseTensor.from_entries((3, 2, 4), FIXTURE_ENTRIES)


# Text edits for fuzzing file readers: replace up to 12 characters at some
# position (taken modulo the text length) by up to 12 arbitrary characters.
EDITS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 12), st.text(max_size=12)),
    min_size=1,
    max_size=3,
)


def splice(text: str, edits) -> str:
    for position, length, insert in edits:
        position %= len(text) + 1
        text = text[:position] + insert + text[position + length :]
    return text
