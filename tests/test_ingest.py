import logging
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialtensor import DataError, build_tensor
from trialtensor.ingest import (
    LAYER_ORDER,
    STOP_REASONS,
    label_outcomes,
    load_xref,
    map_ontology,
    parse_gene_burden,
    parse_gwas_l2g,
    parse_outcomes,
    parse_rare_disease,
)

import ingest_reference as reference
from conftest import (
    BYTE_EDITS,
    DATA_DIR,
    FIXTURE_ENTRIES,
    NO_PAIRS,
    concat_tables,
    evidence_rows,
    evidence_table,
    ingest_fixture,
    pair_rows,
    splice,
    trial_table,
)


class TestParseRareDisease:
    def test_fixture_acceptance_count(self, data_dir):
        report = Counter()
        records = evidence_rows(parse_rare_disease(data_dir / "rare_disease.tsv", report=report))
        assert len(records) == 6
        assert report["rare_disease_rows"] == 8
        assert report["rare_disease_accepted"] == 6
        assert report["rare_disease_dropped_confidence"] == 1  # "limited"
        assert report["rare_disease_unknown_confidence"] == 1  # "tentative"
        assert all(value == 1.0 and layer == "rare_disease" for _, _, layer, value in records)

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
        genes, _, _, values = parse_gene_burden(data_dir / "gene_burden.tsv")
        by_gene = dict(zip(genes.tolist(), values.tolist()))
        assert by_gene == {"ENSG0001": 1.0, "ENSG0002": 0.0, "ENSG0003": 0.0}

    def test_imbalance_fixture(self, data_dir):
        report = Counter()
        _, _, _, values = parse_gene_burden(data_dir / "gene_burden_imbalance.tsv", report=report)
        assert len(values) == 120
        positives = int((values == 1.0).sum())
        assert positives == 3
        assert positives / len(values) == pytest.approx(0.025)
        assert report["burden_negative"] == 117

    def test_bad_flag(self, tmp_path):
        bad = tmp_path / "burden.tsv"
        bad.write_text("gene_id\tefo_id\tsignificant\nENSG1\tEFO:1\tmaybe\n")
        with pytest.raises(DataError, match="significance flag"):
            parse_gene_burden(bad)


class TestParseGwas:
    def test_threshold_gates_inclusion(self, data_dir):
        report = Counter()
        _, _, _, scores = parse_gwas_l2g(data_dir / "gwas_l2g.tsv", report=report)
        values = sorted(scores.tolist())
        assert values == [0.71, 0.83]
        assert report["gwas_below_threshold"] == 1

    def test_custom_threshold(self, data_dir):
        genes, _, _, _ = parse_gwas_l2g(data_dir / "gwas_l2g.tsv", score_threshold=0.1)
        assert len(genes) == 3

    def test_out_of_range_score(self, tmp_path):
        bad = tmp_path / "gwas.tsv"
        bad.write_text("gene_id\tefo_id\tl2g_score\nENSG1\tEFO:1\t1.7\n")
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            parse_gwas_l2g(bad)


def _row(gene="G1", disease="EFO:1", phase=2, status="completed", reason="none"):
    return gene, disease, phase, status, reason


def _label(rows, report=None):
    return pair_rows(label_outcomes(trial_table(rows), report=report))


def _map_evidence(rows, xref, report=None):
    evidence, _ = map_ontology(evidence_table(rows), NO_PAIRS, xref, report=report)
    return evidence_rows(evidence)


class TestLabelOutcomes:
    def test_approval_dominates_failure(self):
        pairs = _label([_row(status="approved", phase=4), _row(status="terminated", reason="safety")])
        assert len(pairs) == 1
        _, _, label, max_phase, stop_reason, _ = pairs[0]
        assert label == 1
        assert max_phase == 4
        assert stop_reason == "safety"

    def test_suspended_only_is_failure(self):
        (pair,) = _label([_row(status="suspended")])
        assert pair[2] == 0

    def test_safety_stop_is_failure_even_if_completed(self):
        (pair,) = _label([_row(status="completed", reason="efficacy")])
        assert pair[2] == 0

    def test_completed_without_stop_reason_is_unlabeled(self):
        (pair,) = _label([_row(status="completed")])
        assert pair[2] is None

    def test_unknown_status_warns_and_is_non_negative(self, caplog):
        with caplog.at_level(logging.WARNING):
            (pair,) = _label([_row(status="registered")])
        assert pair[2] is None
        assert any("unknown trial status" in r.message for r in caplog.records)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_adding_failure_never_flips_approved_pair(self, data):
        statuses = st.sampled_from(
            ["approved", "terminated", "suspended", "completed", "active", "withdrawn"]
        )
        reasons = st.sampled_from(STOP_REASONS)
        rows = [
            _row(status=data.draw(statuses), phase=data.draw(st.integers(0, 4)),
                 reason=data.draw(reasons))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        rows.append(_row(status="approved"))
        (labeled,) = _label(rows)
        assert labeled[2] == 1
        more = rows + [_row(status="terminated", reason="safety")]
        (relabeled,) = _label(more)
        assert relabeled[2] == 1


class TestMapOntology:
    def test_fixture_lookup(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        assert xref["EFO:0000270"] == "MeSH:D001249"
        records = _map_evidence([("G1", "EFO:0000270", "rare_disease", 1.0)], xref)
        assert records[0][1] == "MeSH:D001249"

    def test_unmapped_dropped_and_counted(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        report = Counter()
        records = _map_evidence([("G1", "EFO:9999999", "gwas", 0.9)], xref, report=report)
        assert records == []
        assert report["unmapped_dropped"] == 1

    def test_merge_conflict_keeps_max_and_reports(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        report = Counter()
        records = _map_evidence(
            [
                ("G1", "EFO:0000400", "gene_burden", 1.0),
                ("G1", "EFO:0000401", "gene_burden", 0.0),
            ],
            xref,
            report=report,
        )
        assert len(records) == 1
        assert records[0][3] == 1.0
        assert records[0][1] == "MeSH:D003920"
        assert report["merge_conflicts"] == 1

    def test_idempotent(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        original = evidence_table([
            ("G1", "EFO:0000270", "rare_disease", 1.0),
            ("G2", "EFO:0000400", "gwas", 0.8),
        ])
        once = map_ontology(original, NO_PAIRS, xref)[0]
        twice = map_ontology(once, NO_PAIRS, xref)[0]
        assert sorted(evidence_rows(once)) == sorted(evidence_rows(twice))

    def test_ambiguous_xref_rejected(self, tmp_path):
        bad = tmp_path / "xref.tsv"
        bad.write_text("efo_id\tmesh_id\nEFO:1\tMeSH:1\nEFO:1\tMeSH:2\n")
        with pytest.raises(DataError, match="ambiguous mapping"):
            load_xref(bad)

    def test_pair_merge_unions_history(self, data_dir):
        xref = load_xref(data_dir / "xref.tsv")
        pairs = label_outcomes(trial_table(
            [
                _row(disease="EFO:0000400", status="approved", phase=3),
                _row(disease="EFO:0000401", status="terminated", phase=1),
            ]
        ))
        merged = pair_rows(map_ontology(evidence_table([]), pairs, xref)[1])
        assert len(merged) == 1
        _, _, label, max_phase, _, statuses = merged[0]
        assert label == 1  # approval still dominates after the merge
        assert max_phase == 3
        assert statuses == {"approved", "terminated"}


class TestBuildTensor:
    def test_single_evidence_layer_gives_two_layers(self, data_dir):
        evidence, pairs = ingest_fixture()
        tensor, modes = build_tensor(evidence, pairs, ["rare_disease"])
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
        evidence = evidence_table([("G1", "M1", "gwas", 0.9)])
        with pytest.raises(DataError, match="empty outcome layer"):
            build_tensor(evidence, NO_PAIRS, ["gwas"])

    def test_burden_completeness(self, data_dir):
        # Every parsed burden row survives into the tensor (negatives included).
        evidence, pairs = ingest_fixture()
        tensor, modes = build_tensor(evidence, pairs)
        burden_layer = modes[2].index("gene_burden")
        _, values = tensor.layer_entries(burden_layer)
        burden_records = [value for _, _, layer, value in evidence_rows(evidence) if layer == "gene_burden"]
        assert len(values) == len(burden_records)
        assert sorted(values) == sorted(burden_records)

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
        extra = label_outcomes(trial_table([_row(gene="ENSG0099", disease="EFO:0000270")]))
        mapped = map_ontology(evidence_table([]), extra, load_xref(data_dir / "xref.tsv"))[1]
        tensor, modes = build_tensor(evidence, concat_tables([pairs, mapped]))
        assert "ENSG0099" in modes[0]
        assert tensor.dims[0] == 4


_PARSERS = {
    "rare_disease.tsv": parse_rare_disease,
    "gene_burden.tsv": parse_gene_burden,
    "gwas_l2g.tsv": parse_gwas_l2g,
    "outcomes.tsv": parse_outcomes,
    "xref.tsv": load_xref,
}


class TestBytesFuzz:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(set(_PARSERS) - {"xref.tsv"})), edits=BYTE_EDITS)
    def test_edited_evidence_bytes_parse_or_are_data_error(self, name, edits):
        table = self._parse(name, edits)
        if table is not None:
            assert all(isinstance(column, np.ndarray) and len(column) == len(table[0]) for column in table)

    @settings(max_examples=100, deadline=None)
    @given(edits=BYTE_EDITS)
    def test_edited_xref_bytes_map_or_are_data_error(self, edits):
        xref = self._parse("xref.tsv", edits)
        if xref is not None:
            assert all(isinstance(key, str) and isinstance(value, str) for key, value in xref.items())

    @staticmethod
    def _parse(name, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(splice((DATA_DIR / name).read_bytes(), edits))
            try:
                return _PARSERS[name](path)
            except DataError:
                return None


# Identifiers for the reference comparison: EFO ids the cross-reference may
# or may not know, ids that are already MeSH, and ids it never knows.
GENES = ("G1", "G2", "G3")
EFO_IDS = ("EFO:1", "EFO:2", "EFO:3", "EFO:4")
MESH_IDS = ("MeSH:1", "MeSH:2")
DISEASES = EFO_IDS + MESH_IDS + ("EFO:9",)


def _tsv(header, rows):
    return "\t".join(header) + "\n" + "".join("\t".join(map(str, row)) + "\n" for row in rows)


@st.composite
def evidence_inputs(draw):
    def rows(values, max_size=8):
        return draw(st.lists(st.tuples(st.sampled_from(GENES), st.sampled_from(DISEASES), st.sampled_from(values)),
                             max_size=max_size))

    xref = draw(st.dictionaries(st.sampled_from(EFO_IDS), st.sampled_from(MESH_IDS)))
    return {
        "xref": _tsv(("efo_id", "mesh_id"), sorted(xref.items())),
        "rare": _tsv(("gene_id", "efo_id", "confidence"),
                     rows(("definitive", "strong", " Strong", "limited", "refuted", "tentative"))),
        "burden": _tsv(("gene_id", "efo_id", "significant"), rows(("0", "1", " 1"))),
        "gwas": _tsv(("gene_id", "efo_id", "l2g_score"), rows(("0.2", "0.5", "0.7", "0.9", "1", " 0.75"))),
        "outcomes": _tsv(
            ("gene_id", "efo_id", "phase", "status", "stop_reason_class"),
            draw(st.lists(st.tuples(
                st.sampled_from(GENES), st.sampled_from(DISEASES), st.integers(0, 4),
                st.sampled_from(("approved", "terminated", "suspended", "completed", "active", "withdrawn",
                                 "registered", " Approved")),
                st.sampled_from(STOP_REASONS + ("Safety ",)),
            ), min_size=1, max_size=8)),
        ),
        "layers": draw(st.lists(st.sampled_from(LAYER_ORDER), min_size=1, unique=True)),
    }


def _columnar(paths, layers, report):
    xref = load_xref(paths["xref"])
    evidence = concat_tables([
        parse_rare_disease(paths["rare"], report=report),
        parse_gene_burden(paths["burden"], report=report),
        parse_gwas_l2g(paths["gwas"], report=report),
    ])
    pairs = label_outcomes(parse_outcomes(paths["outcomes"], report=report), report=report)
    evidence, pairs = map_ontology(evidence, pairs, xref, report=report)
    return sorted(evidence_rows(evidence)), pair_rows(pairs), build_tensor(evidence, pairs, layers)


def _per_row(paths, layers, report):
    xref = reference.load_xref(paths["xref"])
    evidence = reference.parse_rare_disease(paths["rare"], report=report)
    evidence += reference.parse_gene_burden(paths["burden"], report=report)
    evidence += reference.parse_gwas_l2g(paths["gwas"], report=report)
    pairs = reference.label_outcomes(reference.parse_outcomes(paths["outcomes"], report=report), report=report)
    evidence = reference.map_ontology(evidence, xref, report=report)
    pairs = reference.map_ontology(pairs, xref, report=report)
    tensor = reference.build_tensor(evidence, pairs, [reference.Layer(name) for name in layers])
    return (
        sorted((r.gene_id, r.disease_id, r.layer.value, r.value) for r in evidence),
        sorted((p.gene_id, p.disease_id, p.label, p.max_phase, p.stop_reason_class.value, p.status_set)
               for p in pairs),
        tensor,
    )


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(inputs=evidence_inputs())
    def test_columnar_ingest_matches_per_row_reference(self, inputs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name in ("xref", "rare", "burden", "gwas", "outcomes"):
                paths[name] = Path(tmp) / f"{name}.tsv"
                paths[name].write_text(inputs[name], encoding="utf-8")
            outcomes = []
            for pipeline in (_columnar, _per_row):
                report = Counter()
                try:
                    outcomes.append((pipeline(paths, inputs["layers"], report), +report))
                except DataError:  # e.g. no labeled pair survives mapping
                    outcomes.append((None, None))
        (result, report), (ref_result, ref_report) = outcomes
        if result is None or ref_result is None:
            assert result is ref_result is None
            return
        (evidence, pairs, (tensor, modes)), (ref_evidence, ref_pairs, (ref_tensor, ref_modes)) = result, ref_result
        assert evidence == ref_evidence
        assert pairs == ref_pairs
        assert modes == ref_modes
        assert tensor.dims == ref_tensor.dims
        assert np.array_equal(tensor.coords, ref_tensor.coords)
        assert np.array_equal(tensor.values, ref_tensor.values)
        assert report == ref_report
