import logging
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialtensor import (
    DataError,
    EvidenceRecord,
    Layer,
    StopReason,
    build_tensor,
    label_outcomes,
    load_xref,
    map_ontology,
    parse_gene_burden,
    parse_gwas_l2g,
    parse_rare_disease,
)
from trialtensor.ingest import TrialRow, _rows

from conftest import DATA_DIR, EDITS, FIXTURE_ENTRIES, ingest_fixture, splice


class TestParseRareDisease:
    def test_fixture_acceptance_count(self, data_dir):
        report = Counter()
        records = parse_rare_disease(data_dir / "rare_disease.tsv", report=report)
        assert len(records) == 6
        assert report["rare_disease_rows"] == 8
        assert report["rare_disease_accepted"] == 6
        assert report["rare_disease_dropped_confidence"] == 1  # "limited"
        assert report["rare_disease_unknown_confidence"] == 1  # "tentative"
        assert all(r.value == 1.0 and r.layer is Layer.RARE_DISEASE for r in records)

    def test_unknown_confidence_warns(self, data_dir, caplog):
        with caplog.at_level(logging.WARNING):
            parse_rare_disease(data_dir / "rare_disease.tsv")
        assert any("unknown confidence" in record.message for record in caplog.records)

    def test_malformed_row_names_line(self, tmp_path):
        bad = tmp_path / "rare.tsv"
        bad.write_text("gene_id\tefo_id\tconfidence\nENSG1\tEFO:1\tdefinitive\nENSG2\t\n")
        with pytest.raises(DataError, match="rare.tsv:3"):
            parse_rare_disease(bad)

    def test_missing_column(self, tmp_path):
        bad = tmp_path / "rare.tsv"
        bad.write_text("gene_id\tconfidence\nENSG1\tdefinitive\n")
        with pytest.raises(DataError, match="missing columns"):
            parse_rare_disease(bad)


class TestParseGeneBurden:
    def test_negatives_are_observations(self, data_dir):
        records = parse_gene_burden(data_dir / "gene_burden.tsv")
        by_gene = {r.gene_id: r.value for r in records}
        assert by_gene == {"ENSG0001": 1.0, "ENSG0002": 0.0, "ENSG0003": 0.0}

    def test_imbalance_fixture(self, data_dir):
        report = Counter()
        records = parse_gene_burden(data_dir / "gene_burden_imbalance.tsv", report=report)
        assert len(records) == 120
        positives = sum(1 for r in records if r.value == 1.0)
        assert positives == 3
        assert positives / len(records) == pytest.approx(0.025)
        assert report["burden_negative"] == 117

    def test_bad_flag(self, tmp_path):
        bad = tmp_path / "burden.tsv"
        bad.write_text("gene_id\tefo_id\tsignificant\nENSG1\tEFO:1\tmaybe\n")
        with pytest.raises(DataError, match="significance flag"):
            parse_gene_burden(bad)


class TestParseGwas:
    def test_threshold_gates_inclusion(self, data_dir):
        report = Counter()
        records = parse_gwas_l2g(data_dir / "gwas_l2g.tsv", report=report)
        values = sorted(r.value for r in records)
        assert values == [0.71, 0.83]
        assert report["gwas_below_threshold"] == 1

    def test_custom_threshold(self, data_dir):
        records = parse_gwas_l2g(data_dir / "gwas_l2g.tsv", score_threshold=0.1)
        assert len(records) == 3

    def test_out_of_range_score(self, tmp_path):
        bad = tmp_path / "gwas.tsv"
        bad.write_text("gene_id\tefo_id\tl2g_score\nENSG1\tEFO:1\t1.7\n")
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            parse_gwas_l2g(bad)


def _row(gene="G1", disease="EFO:1", phase=2, status="completed", reason=StopReason.NONE):
    return TrialRow(gene, disease, phase, status, reason)


class TestLabelOutcomes:
    def test_approval_dominates_failure(self):
        pairs = label_outcomes(
            [_row(status="approved", phase=4), _row(status="terminated", reason=StopReason.SAFETY)]
        )
        assert len(pairs) == 1
        assert pairs[0].label == 1
        assert pairs[0].max_phase == 4
        assert pairs[0].stop_reason_class is StopReason.SAFETY

    def test_suspended_only_is_failure(self):
        (pair,) = label_outcomes([_row(status="suspended")])
        assert pair.label == 0

    def test_safety_stop_is_failure_even_if_completed(self):
        (pair,) = label_outcomes([_row(status="completed", reason=StopReason.EFFICACY)])
        assert pair.label == 0

    def test_completed_without_stop_reason_is_unlabeled(self):
        (pair,) = label_outcomes([_row(status="completed")])
        assert pair.label is None

    def test_unknown_status_warns_and_is_non_negative(self, caplog):
        with caplog.at_level(logging.WARNING):
            (pair,) = label_outcomes([_row(status="registered")])
        assert pair.label is None
        assert any("unknown trial status" in r.message for r in caplog.records)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_adding_failure_never_flips_approved_pair(self, data):
        statuses = st.sampled_from(
            ["approved", "terminated", "suspended", "completed", "active", "withdrawn"]
        )
        reasons = st.sampled_from(list(StopReason))
        rows = [
            _row(status=data.draw(statuses), phase=data.draw(st.integers(0, 4)),
                 reason=data.draw(reasons))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        rows.append(_row(status="approved"))
        (labeled,) = label_outcomes(rows)
        assert labeled.label == 1
        more = rows + [_row(status="terminated", reason=StopReason.SAFETY)]
        (relabeled,) = label_outcomes(more)
        assert relabeled.label == 1


class TestMapOntology:
    def test_fixture_lookup(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        assert xref["EFO:0000270"] == "MeSH:D001249"
        records = map_ontology(
            [EvidenceRecord("G1", "EFO:0000270", Layer.RARE_DISEASE, 1.0)], xref
        )
        assert records[0].disease_id == "MeSH:D001249"

    def test_unmapped_dropped_and_counted(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        report = Counter()
        records = map_ontology(
            [EvidenceRecord("G1", "EFO:9999999", Layer.GWAS, 0.9)], xref, report=report
        )
        assert records == []
        assert report["unmapped_dropped"] == 1

    def test_merge_conflict_keeps_max_and_reports(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        report = Counter()
        records = map_ontology(
            [
                EvidenceRecord("G1", "EFO:0000400", Layer.GENE_BURDEN, 1.0),
                EvidenceRecord("G1", "EFO:0000401", Layer.GENE_BURDEN, 0.0),
            ],
            xref,
            report=report,
        )
        assert len(records) == 1
        assert records[0].value == 1.0
        assert records[0].disease_id == "MeSH:D003920"
        assert report["merge_conflicts"] == 1

    def test_idempotent(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        original = [
            EvidenceRecord("G1", "EFO:0000270", Layer.RARE_DISEASE, 1.0),
            EvidenceRecord("G2", "EFO:0000400", Layer.GWAS, 0.8),
        ]
        once = map_ontology(original, xref)
        twice = map_ontology(once, xref)
        assert sorted((r.gene_id, r.disease_id, r.layer.value, r.value) for r in once) == sorted(
            (r.gene_id, r.disease_id, r.layer.value, r.value) for r in twice
        )

    def test_ambiguous_xref_rejected(self, tmp_path):
        bad = tmp_path / "xref.tsv"
        bad.write_text("efo_id\tmesh_id\nEFO:1\tMeSH:1\nEFO:1\tMeSH:2\n")
        with pytest.raises(DataError, match="ambiguous mapping"):
            load_xref(bad)

    def test_pair_merge_unions_history(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        pairs = label_outcomes(
            [
                _row(disease="EFO:0000400", status="approved", phase=3),
                _row(disease="EFO:0000401", status="terminated", phase=1),
            ]
        )
        merged = map_ontology(pairs, xref)
        assert len(merged) == 1
        pair = merged[0]
        assert pair.label == 1  # approval still dominates after the merge
        assert pair.max_phase == 3
        assert pair.status_set == {"approved", "terminated"}


class TestBuildTensor:
    def test_single_evidence_layer_gives_two_layers(self, data_dir):
        evidence, pairs = ingest_fixture()
        tensor, modes = build_tensor(evidence, pairs, [Layer.RARE_DISEASE])
        assert tensor.dims[2] == 2
        assert modes[2] == ("outcome", "rare_disease")

    def test_combined_fixture_matches_design(self, fixture_tensor):
        tensor, modes = fixture_tensor
        assert tensor.dims == (3, 2, 4)
        assert tensor.n_entries == 12
        assert modes[0] == ("ENSG0001", "ENSG0002", "ENSG0003")
        assert modes[1] == ("MeSH:D001249", "MeSH:D003920")
        assert modes[2] == ("outcome", "rare_disease", "gene_burden", "gwas")
        cells = zip(tensor.coords.tolist(), tensor.values.tolist())
        assert sorted((*coord, value) for coord, value in cells) == sorted(FIXTURE_ENTRIES)

    def test_empty_outcome_layer_rejected(self):
        evidence = [EvidenceRecord("G1", "M1", Layer.GWAS, 0.9)]
        with pytest.raises(DataError, match="empty outcome layer"):
            build_tensor(evidence, [], [Layer.GWAS])

    def test_burden_completeness(self, data_dir):
        # Every parsed burden row survives into the tensor (negatives included).
        evidence, pairs = ingest_fixture()
        tensor, modes = build_tensor(evidence, pairs)
        burden_layer = modes[2].index("gene_burden")
        _, values = tensor.layer_entries(burden_layer)
        burden_records = [r for r in evidence if r.layer is Layer.GENE_BURDEN]
        assert len(values) == len(burden_records)
        assert sorted(values) == sorted(r.value for r in burden_records)

    def test_layer_value_semantics(self, fixture_tensor):
        tensor, modes = fixture_tensor
        for name, lo in (("outcome", {0.0, 1.0}), ("rare_disease", {1.0})):
            layer = modes[2].index(name)
            assert set(tensor.layer_entries(layer)[1]) <= lo
        gwas_values = tensor.layer_entries(modes[2].index("gwas"))[1]
        assert all(0.5 <= v <= 1.0 for v in gwas_values)

    def test_unlabeled_pairs_extend_mode_universe(self, data_dir):
        # (ENSG0002, MeSH:D003920) is unlabeled; both ids already exist via
        # other pairs, so check with a synthetic extra unlabeled pair.
        evidence, pairs = ingest_fixture()
        extra = label_outcomes([_row(gene="ENSG0099", disease="EFO:0000270")])
        mapped = map_ontology(extra, load_xref(data_dir / "xref.tsv"))
        tensor, modes = build_tensor(evidence, pairs + mapped)
        assert "ENSG0099" in modes[0]
        assert tensor.dims[0] == 4


class TestRowsFuzz:
    @settings(max_examples=150, deadline=None)
    @given(edits=EDITS)
    def test_edited_text_yields_rows_or_is_data_error(self, edits):
        text = splice((DATA_DIR / "rare_disease.tsv").read_text(encoding="utf-8"), edits)
        required = ("gene_id", "efo_id", "confidence")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rare.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                rows = list(_rows(path, required))
            except DataError:
                return
        assert all(row[col] for _, row in rows for col in required)

    def test_oversized_field_is_data_error(self, tmp_path):
        path = tmp_path / "rare.tsv"
        path.write_text(f"gene_id\tefo_id\tconfidence\nG1\t{'E' * 200_000}\tstrong\n")
        with pytest.raises(DataError, match="rare.tsv:2"):
            list(_rows(path, ("gene_id", "efo_id", "confidence")))
