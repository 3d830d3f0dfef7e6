"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests`` from the repository root."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import spans


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synthetic_generator_is_deterministic_given_the_seed(tmp_path):
    first = gen.write_synthetic(tmp_path / "a", (12, 10, 4), 200, seed=7)
    second = gen.write_synthetic(tmp_path / "b", (12, 10, 4), 200, seed=7)
    gen.write_synthetic(tmp_path / "c", (12, 10, 4), 200, seed=8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert np.array_equal(first.truth, second.truth)
    assert np.array_equal(first.observed, second.observed)


EVIDENCE_SIZES = dict(n_burden=400, n_rare=120, n_rare_dropped=50, n_gwas=200, n_gwas_below=80,
                      n_pairs=300, alias_fraction=0.5, alias_use=0.5, unmapped_fraction=0.05)


def test_evidence_generator_is_deterministic_given_the_seed(tmp_path):
    first = gen.write_evidence(tmp_path / "a", 40, 25, seed=3, **EVIDENCE_SIZES)
    second = gen.write_evidence(tmp_path / "b", 40, 25, seed=3, **EVIDENCE_SIZES)
    gen.write_evidence(tmp_path / "c", 40, 25, seed=4, **EVIDENCE_SIZES)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.report == second.report
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_evidence_counts_match_the_ingest_of_the_package(tmp_path):
    cli = pytest.importorskip("trialtensor.cli")
    inputs = tmp_path / "in"
    evidence = gen.write_evidence(inputs, 40, 25, seed=5, **EVIDENCE_SIZES)
    assert evidence.report["merged_records"] > 0 and evidence.report["merge_conflicts"] > 0
    assert evidence.report["unmapped_dropped"] > 0 and evidence.report["merged_pairs"] > 0
    code = cli.main(["ingest", "--rare", str(inputs / "rare.tsv"), "--burden", str(inputs / "burden.tsv"),
                     "--gwas", str(inputs / "gwas.tsv"), "--outcomes", str(inputs / "outcomes.tsv"),
                     "--xref", str(inputs / "xref.tsv"), "--out", str(tmp_path / "out")])
    assert code == 0
    checks.ingest_report(tmp_path / "out" / "ingest_report.json", evidence.report)


def test_self_times_on_a_hand_built_span_tree():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    root = tracer.open("root")  # 0 .. 10
    a = tracer.open("a")  # 1 .. 4
    inner = tracer.open("inner")  # 2 .. 3
    tracer.close(inner)
    tracer.close(a)
    b = tracer.open("b")  # 5 .. 9
    tracer.close(b)
    tracer.close(root)
    own = spans.self_times(tracer.spans)
    assert own == {root.id: 3.0, a.id: 2.0, inner.id: 1.0, b.id: 4.0}
    assert sum(own.values()) == root.duration
    assert [s.parent for s in tracer.spans] == [-1, root.id, a.id, root.id]
    totals = spans.layer_totals(tracer.spans)
    assert totals["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(0, -1, "p", 0.0, 10.0)
    kids = [spans.Span(1, 0, "x", 1.0, 5.0), spans.Span(2, 0, "y", 3.0, 7.0), spans.Span(3, 0, "z", 9.0, 12.0)]
    assert spans.self_times([parent, *kids])[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_wraps_where_looked_up_and_reports_missing_targets_as_absent():
    module = types.ModuleType("fake_layer")
    module.double = lambda x: 2 * x
    sys.modules["fake_layer"] = module
    try:
        tracer = spans.Tracer()
        assert tracer.patch("fake_layer", "double", "layer.double")
        assert not tracer.patch("fake_layer", "removed_function", "layer.gone")
        assert not tracer.patch("no_such_module_anywhere", "f", "layer.gone")
        assert module.double(21) == 42
    finally:
        del sys.modules["fake_layer"]
    assert [s.name for s in tracer.spans] == ["layer.double"]
    assert tracer.absent == ["fake_layer.removed_function", "no_such_module_anywhere.f"]


def _write_predictions(path: Path, rows) -> None:
    path.write_text("target_id\tindication_id\tlayer\tscore\n" + "".join("\t".join(r) + "\n" for r in rows))


TARGETS, INDICATIONS = ["T0", "T1"], ["I0", "I1", "I2"]
GOOD_ROWS = [(t, i, "outcome", f"{0.1 * n:.17g}") for n, (t, i) in
             enumerate((t, i) for t in TARGETS for i in INDICATIONS)]


def test_prediction_check_accepts_a_valid_file(tmp_path):
    _write_predictions(tmp_path / "p.tsv", GOOD_ROWS)
    scores = checks.predictions(tmp_path / "p.tsv", TARGETS, INDICATIONS)
    assert scores.shape == (2, 3) and scores[1, 2] == pytest.approx(0.5)


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[:-1],  # missing row
    lambda rows: rows + [rows[0]],  # extra row
    lambda rows: [("T9",) + rows[0][1:]] + rows[1:],  # identifier not in the meta
    lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:],  # wrong order
    lambda rows: rows[:2] + [rows[2][:3] + ("1.5",)] + rows[3:],  # outside [0, 1]
    lambda rows: rows[:2] + [rows[2][:3] + ("nan",)] + rows[3:],  # not finite
    lambda rows: rows[:2] + [rows[2][:3]] + rows[3:],  # missing field
    lambda rows: [r[:2] + ("gwas",) + r[3:] for r in rows],  # wrong layer
])
def test_prediction_check_rejects_a_corrupted_file(tmp_path, corrupt):
    _write_predictions(tmp_path / "p.tsv", corrupt(list(GOOD_ROWS)))
    with pytest.raises(checks.CheckFailed):
        checks.predictions(tmp_path / "p.tsv", TARGETS, INDICATIONS)


def _write_phase(path: Path, rows) -> None:
    path.write_text("phase_a\tphase_b\tu\tp_raw\tp_corrected\n" + "".join("\t".join(r) + "\n" for r in rows))


def test_phase_check_accepts_bonferroni_and_rejects_a_wrong_row(tmp_path):
    rows = [("0", "1", "10", "0.01", f"{min(1.0, 3 * 0.01):.17g}"),
            ("0", "2", "12", "0.5", "1"),
            ("1", "2", "7", "0.2", f"{min(1.0, 3 * 0.2):.17g}")]
    _write_phase(tmp_path / "ok.tsv", rows)
    checks.phase_tests(tmp_path / "ok.tsv")
    _write_phase(tmp_path / "bad.tsv", rows[:2] + [rows[2][:4] + ("0.4",)])
    with pytest.raises(checks.CheckFailed):
        checks.phase_tests(tmp_path / "bad.tsv")


def test_ingest_and_manifest_checks_reject_wrong_counts(tmp_path):
    (tmp_path / "r.json").write_text(json.dumps({"burden_rows": 5, "dims": [2, 2, 4]}))
    checks.ingest_report(tmp_path / "r.json", {"burden_rows": 5, "dims": [2, 2, 4]})
    with pytest.raises(checks.CheckFailed):
        checks.ingest_report(tmp_path / "r.json", {"burden_rows": 6, "dims": [2, 2, 4]})
    (tmp_path / "m.json").write_text(json.dumps({"retained": 2}))
    checks.manifest(tmp_path / "m.json", samples=10, thin=5)
    with pytest.raises(checks.CheckFailed):
        checks.manifest(tmp_path / "m.json", samples=10, thin=3)


def test_reported_names_and_units_match_benchmark_json():
    import run
    bench = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    executed = [[run.Executed("train", 2.0, 100.0, True, [])]]
    reported = run.end_to_end(executed, setup_s=1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v["unit"] for k, v in reported.items()}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(run.layer_metrics([])[0]) <= set(per_layer)
    assert all(run._unit(name) == unit for name, unit in per_layer.items())
