import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trialtensor
from trialtensor import SparseTensor, sampler, load_checkpoint, predict_slice, save_tensor
from trialtensor import cli
from trialtensor import ingest as ing
from trialtensor.cli import main
from trialtensor.io import format_floats


@pytest.fixture()
def ingest_args(data_dir, tmp_path):
    out = tmp_path / "ingested"
    return [
        "ingest",
        "--rare", str(data_dir / "rare_disease.tsv"),
        "--burden", str(data_dir / "gene_burden.tsv"),
        "--gwas", str(data_dir / "gwas_l2g.tsv"),
        "--outcomes", str(data_dir / "outcomes.tsv"),
        "--xref", str(data_dir / "xref.tsv"),
        "--out", str(out),
    ], out


class TestIngestCommand:
    def test_fixture_roundtrip(self, ingest_args):
        args, out = ingest_args
        assert main(args) == 0
        meta = json.loads((out / "tensor.meta.json").read_text())
        assert meta["dims"] == [3, 2, 4]
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_entries"] == 12
        assert report["rare_disease_accepted"] == 6
        pairs_lines = (out / "pairs.tsv").read_text().splitlines()
        assert pairs_lines[0].split("\t") == [
            "gene_id", "disease_id", "label", "max_phase", "stop_reason_class", "statuses",
        ]
        assert len(pairs_lines) == 6  # header + 5 pairs

    def test_missing_xref_names_flag(self, ingest_args, tmp_path, capsys):
        args, _ = ingest_args
        args[args.index("--xref") + 1] = str(tmp_path / "nope.tsv")
        assert main(args) == 2
        assert "--xref" in capsys.readouterr().err

    def test_rare_only_layer_selection(self, ingest_args):
        args, out = ingest_args
        assert main(args + ["--layers", "rare"]) == 0
        meta = json.loads((out / "tensor.meta.json").read_text())
        assert meta["dims"][2] == 2
        assert meta["modes"]["layers"] == ["outcome", "rare_disease"]

    def test_unknown_layer_is_usage_error(self, ingest_args, capsys):
        args, _ = ingest_args
        assert main(args + ["--layers", "proteomics"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_oversized_field_is_read_and_unmapped_id_dropped(self, ingest_args, tmp_path):
        # Fields have no size limit: a 200k-character disease id is read like
        # any other, and since the xref table does not know it, dropped and counted.
        args, out = ingest_args
        rare = tmp_path / "rare.tsv"
        rare.write_text(f"gene_id\tefo_id\tconfidence\nG1\t{'E' * 200_000}\tstrong\n")
        args[args.index("--rare") + 1] = str(rare)
        assert main(args) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rare_disease_accepted"] == 1
        assert report["unmapped_dropped"] == 1
        assert "G1" not in json.loads((out / "tensor.meta.json").read_text())["modes"]["targets"]

    @pytest.mark.parametrize("kind", ["evidence", "pairs"])
    @pytest.mark.parametrize("order", [(0, 1, 0), (0, 0, 1), (1, 0, 0)])
    def test_merge_conflicts_counted_per_merged_row(self, tmp_path, kind, order):
        # Three EFO ids land on one MeSH id, so three rows merge into one cell
        # (or pair) whose values differ: one conflict whatever the row order.
        efo = ("EFO:A", "EFO:B", "EFO:C")
        files = {
            "xref": "efo_id\tmesh_id\n" + "".join(f"{e}\tMeSH:X\n" for e in efo),
            "rare": "gene_id\tefo_id\tconfidence\nG1\tEFO:A\tstrong\n",
            "gwas": "gene_id\tefo_id\tl2g_score\nG1\tEFO:A\t0.9\n",
            "burden": "gene_id\tefo_id\tsignificant\n"
            + ("".join(f"G1\t{e}\t{v}\n" for e, v in zip(efo, order)) if kind == "evidence" else "G1\tEFO:A\t1\n"),
            "outcomes": "gene_id\tefo_id\tphase\tstatus\tstop_reason_class\n"
            + ("".join(f"G1\t{e}\t2\t{'approved' if v else 'terminated'}\tnone\n" for e, v in zip(efo, order))
               if kind == "pairs" else "G1\tEFO:A\t4\tapproved\tnone\n"),
        }
        args = ["ingest", "--out", str(tmp_path / "out")]
        for flag, text in files.items():
            (tmp_path / f"{flag}.tsv").write_text(text)
            args += [f"--{flag}", str(tmp_path / f"{flag}.tsv")]
        assert main(args) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        merged = "merged_records" if kind == "evidence" else "merged_pairs"
        assert report[merged] == 2
        assert report["merge_conflicts"] == 1

    def test_outputs_do_not_depend_on_row_order(self, ingest_args, tmp_path):
        # Identifiers are sorted and cells kept in coordinate order, so an input
        # whose data rows come in another order ingests to the same bytes.
        args, out = ingest_args
        assert main(args) == 0
        reversed_args = list(args)
        for flag in ("--rare", "--burden", "--gwas", "--outcomes", "--xref"):
            source = Path(args[args.index(flag) + 1])
            header, *rows = source.read_text().splitlines(keepends=True)
            target = tmp_path / "reversed" / source.name
            target.parent.mkdir(exist_ok=True)
            target.write_text(header + "".join(reversed(rows)))
            reversed_args[args.index(flag) + 1] = str(target)
        reversed_out = tmp_path / "reversed_out"
        reversed_args[args.index("--out") + 1] = str(reversed_out)
        assert main(reversed_args) == 0
        for name in ("tensor.tsv", "tensor.meta.json", "pairs.tsv", "ingest_report.json"):
            assert (reversed_out / name).read_bytes() == (out / name).read_bytes(), name


@pytest.fixture()
def ingested_dir(ingest_args):
    args, out = ingest_args
    assert main(args) == 0
    return out


SMALL_SCHEDULE = ["--burnin", "5", "--samples", "12", "--thin", "4", "--latent-dim", "3"]


class TestTrainCommand:
    def test_train_writes_checkpoint_and_predictions(self, ingested_dir, tmp_path):
        out = tmp_path / "model"
        args = ["train", "--tensor", str(ingested_dir), "--out", str(out), "--seed", "7"]
        assert main(args + SMALL_SCHEDULE) == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["retained"] == 3
        assert manifest["seed"] == 7
        lines = (out / "predictions.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["target_id", "indication_id", "layer", "score"]
        assert len(lines) == 1 + 3 * 2  # full outcome-layer grid
        scores = [float(line.split("\t")[3]) for line in lines[1:]]
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_seeded_runs_byte_identical(self, ingested_dir, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["train", "--tensor", str(ingested_dir), "--out", str(out), "--seed", "7"]
            assert main(args + SMALL_SCHEDULE) == 0
            outputs.append((out / "predictions.tsv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_layer_subset(self, ingested_dir, tmp_path):
        out = tmp_path / "model"
        args = [
            "train", "--tensor", str(ingested_dir), "--out", str(out),
            "--layers", "rare_disease", "--seed", "1",
        ]
        assert main(args + SMALL_SCHEDULE) == 0
        lines = (out / "predictions.tsv").read_text().splitlines()
        assert {line.split("\t")[2] for line in lines[1:]} == {"outcome"}

    @pytest.mark.parametrize("tensor_fixture,latent_dim", [("ingested_dir", "3"), ("simulated_dir", "8")])
    def test_checkpoint_reproduces_predictions(self, request, tensor_fixture, latent_dim, tmp_path):
        # The checkpoint holds the retained samples, so scoring them again
        # rebuilds predictions.tsv byte for byte.
        tensor_dir = request.getfixturevalue(tensor_fixture)
        out = tmp_path / "model"
        args = ["train", "--tensor", str(tensor_dir), "--out", str(out), "--seed", "7"]
        assert main(args + SMALL_SCHEDULE + ["--latent-dim", latent_dim]) == 0
        samples, manifest = load_checkpoint(out / "checkpoint")
        assert len(samples) == manifest["retained"] == 3
        modes = json.loads((tensor_dir / "tensor.meta.json").read_text())["modes"]
        rebuilt = "target_id\tindication_id\tlayer\tscore\n" + "".join(
            f"{target}\t{indication}\t{modes['layers'][0]}\t{format_floats([score])[0].decode()}\n"
            for target, row in zip(modes["targets"], predict_slice(samples, 0).tolist())
            for indication, score in zip(modes["indications"], row)
        )
        assert (out / "predictions.tsv").read_bytes() == rebuilt.encode()

    def test_predictions_match_per_field_writer(self, tmp_path):
        # Identifiers that a % template would misread must come out as written.
        names = (
            ["%", "%s", "%%", "T%d%%s", "%(x)s", "Gène-Ω", "基因"],
            ["%s", "D%%", "δ%", "%(y)d", "plain"],
            ["out%come", "e%s"],
        )
        dims = tuple(len(ns) for ns in names)
        cells = np.argwhere(np.ones(dims, dtype=bool))[::2]
        tensor = SparseTensor(dims, cells, (cells.sum(axis=1) % 2).astype(float))
        save_tensor(tensor, names, tmp_path / "t" / "tensor.tsv", tmp_path / "t" / "tensor.meta.json")
        out = tmp_path / "model"
        assert main(["train", "--tensor", str(tmp_path / "t"), "--out", str(out), "--seed", "3"] + SMALL_SCHEDULE) == 0
        samples, _ = load_checkpoint(out / "checkpoint")
        expected = _reference_predictions(names, predict_slice(samples, 0))
        assert (out / "predictions.tsv").read_bytes() == expected

    def test_missing_tensor_dir(self, tmp_path, capsys):
        args = ["train", "--tensor", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        assert main(args + SMALL_SCHEDULE) == 2
        assert "--tensor" in capsys.readouterr().err

    def test_config_file_defaults_and_flag_override(self, ingested_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("burnin = 2\nsamples = 6\nthin = 3\nlatent-dim = 2\nseed = 5\n")
        out = tmp_path / "model"
        args = [
            "train", "--tensor", str(ingested_dir), "--out", str(out),
            "--config", str(config), "--seed", "9",
        ]
        assert main(args) == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["burnin"] == 2  # from config
        assert manifest["retained"] == 2  # 6 // 3
        assert manifest["seed"] == 9  # flag wins over config

    @pytest.mark.parametrize(
        "case",
        ["no_dims", "no_modes", "no_layers", "short_targets", "long_layers", "duplicate_targets",
         "float_dims", "bool_dims", "string_dims"],
    )
    def test_malformed_metadata_is_data_error(self, ingested_dir, tmp_path, capsys, case):
        tensor_dir = tmp_path / "tensor"
        shutil.copytree(ingested_dir, tensor_dir)
        meta_path = tensor_dir / "tensor.meta.json"
        meta = json.loads(meta_path.read_text())
        modes = meta["modes"]
        if case == "no_dims":
            del meta["dims"]
        elif case == "no_modes":
            del meta["modes"]
        elif case == "no_layers":
            del modes["layers"]
        elif case == "short_targets":
            modes["targets"] = modes["targets"][:2]
        elif case == "long_layers":
            modes["layers"].append("extra")
        elif case == "float_dims":
            meta["dims"][0] = float(meta["dims"][0])
        elif case == "bool_dims":  # true equals 1, so one target would have matched it
            modes["targets"] = modes["targets"][:1]
            meta["dims"][0] = True
            tsv = tensor_dir / "tensor.tsv"
            lines = tsv.read_text().splitlines()
            tsv.write_text("".join(line + "\n" for line in lines if line.split("\t")[0] in ("i", "0")))
        elif case == "string_dims":
            meta["dims"][0] = str(meta["dims"][0])
        else:
            modes["targets"][1] = modes["targets"][0]
        meta_path.write_text(json.dumps(meta))
        args = ["train", "--tensor", str(tensor_dir), "--out", str(tmp_path / "o")]
        assert main(args + SMALL_SCHEDULE) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_oversized_coordinate_is_data_error(self, ingested_dir, tmp_path, capsys):
        tensor_dir = tmp_path / "tensor"
        shutil.copytree(ingested_dir, tensor_dir)
        tsv = tensor_dir / "tensor.tsv"
        lines = tsv.read_text().splitlines()
        lines[2] = "99999999999999999999\t0\t0\t1"
        tsv.write_text("\n".join(lines) + "\n")
        args = ["train", "--tensor", str(tensor_dir), "--out", str(tmp_path / "o")]
        assert main(args + SMALL_SCHEDULE) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert "tensor.tsv:3" in err

    def test_uncreatable_out_is_data_error(self, ingested_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        args = ["train", "--tensor", str(ingested_dir), "--out", str(blocker / "model")]
        assert main(args + SMALL_SCHEDULE) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_config_key(self, ingested_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("not_a_flag = 3\n")
        args = ["train", "--tensor", str(ingested_dir), "--out", str(tmp_path / "o"),
                "--config", str(config)]
        assert main(args) == 1
        assert "unknown configuration key" in capsys.readouterr().err


def _reference_predictions(names, scores):
    """predictions.tsv as the per-field writer that the row template replaced wrote it."""
    rows = [("target_id", "indication_id", "layer", "score")] + [
        (target, indication, names[2][0], f"{score:.17g}")
        for target, row in zip(names[0], scores.tolist())
        for indication, score in zip(names[1], row)
    ]
    return "".join("\t".join(str(field) for field in row) + "\n" for row in rows).encode()


@pytest.fixture(scope="module")
def simulated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "data"
    args = [
        "simulate", "--dims", "24,18,3", "--rank", "4", "--noise-sd", "0.1",
        "--observed-fraction", "0.6", "--coupling", "0.9", "--seed", "5",
        "--out", str(out),
    ]
    assert main(args) == 0
    return out


class TestSimulateCommand:
    def test_outputs_exist_and_agree(self, simulated_dir):
        manifest = json.loads((simulated_dir / "simulate_manifest.json").read_text())
        assert manifest["dims"] == [24, 18, 3]
        tensor_lines = (simulated_dir / "tensor.tsv").read_text().splitlines()
        assert len(tensor_lines) - 1 == manifest["n_entries"]
        truth_lines = (simulated_dir / "ground_truth.tsv").read_text().splitlines()
        assert len(truth_lines) - 1 == 24 * 18 * 3
        values = [float(line.split("\t")[3]) for line in truth_lines[1:]]
        assert min(values) >= 0.0 and max(values) <= 1.0

    def test_artefacts_follow_umask(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            args = ["simulate", "--dims", "3,2,2", "--seed", "1", "--out", str(tmp_path / "sim")]
            assert main(args) == 0
        finally:
            os.umask(old_umask)
        files = sorted((tmp_path / "sim").iterdir())
        assert [f.name for f in files] == [
            "ground_truth.tsv", "simulate_manifest.json", "tensor.meta.json", "tensor.tsv",
        ]
        for path in files:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_uncreatable_out_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert main(["simulate", "--dims", "3,2,2", "--out", str(blocker / "sim")]) == 2
        assert "data error: cannot write" in capsys.readouterr().err

    def test_bad_dims_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--dims", "3,4", "--out", str(tmp_path / "x")]) == 1
        assert "--dims" in capsys.readouterr().err


class TestTrainRecovery:
    def test_simulate_then_train_recovers_heldout_ranking(self, simulated_dir, tmp_path):
        from trialtensor.metrics import auroc

        out = tmp_path / "model"
        args = [
            "train", "--tensor", str(simulated_dir), "--out", str(out),
            "--latent-dim", "8", "--alpha", "40", "--seed", "2",
            "--burnin", "60", "--samples", "150", "--thin", "30",
        ]
        assert main(args) == 0
        truth = {}
        for line in (simulated_dir / "ground_truth.tsv").read_text().splitlines()[1:]:
            i, j, k, v = line.split("\t")
            truth[(int(i), int(j), int(k))] = float(v)
        observed = set()
        for line in (simulated_dir / "tensor.tsv").read_text().splitlines()[1:]:
            i, j, k, _ = line.split("\t")
            observed.add((int(i), int(j), int(k)))
        scores, labels = [], []
        for line in (out / "predictions.tsv").read_text().splitlines()[1:]:
            target, indication, _, score = line.split("\t")
            cell = (int(target[1:]), int(indication[1:]), 0)
            if cell in observed:
                continue
            scores.append(float(score))
            labels.append(truth[cell] >= 0.5)
        assert auroc(np.array(scores), np.array(labels)) >= 0.9


class TestEvaluateCommand:
    def test_report_covers_each_model(self, simulated_dir, tmp_path):
        report_path = tmp_path / "report.json"
        args = [
            "evaluate", "--tensor", str(simulated_dir), "--out", str(report_path),
            "--models", "combined,evidence_1", "--n-repeats", "2", "--seed", "3",
            "--latent-dim", "4", "--alpha", "30",
            "--burnin", "10", "--samples", "20", "--thin", "10",
        ]
        assert main(args) == 0
        payload = json.loads(report_path.read_text())
        names = [model["model_name"] for model in payload["models"]]
        assert names == ["combined", "evidence_1"]
        for model in payload["models"]:
            assert {"model_name", "auroc", "f1", "imbalance", "n_repeats", "threshold"} <= set(model)
            assert 0.0 <= model["auroc"]["mean"] <= 1.0
            assert model["auroc"]["sd"] >= 0.0

    def test_unknown_model_layer(self, simulated_dir, tmp_path, capsys):
        args = [
            "evaluate", "--tensor", str(simulated_dir), "--out", str(tmp_path / "r.json"),
            "--models", "wrongname", "--n-repeats", "2",
            "--burnin", "1", "--samples", "2", "--thin", "1",
        ]
        assert main(args) == 2
        assert "unknown layer" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(section: str) -> dict[str, list[str]]:
    """The ``trialtensor`` commands of one README section's shell block, by subcommand."""
    text = README.read_text(encoding="utf-8").split(f"### {section}\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return {words[1]: words[1:] for words in commands if words[:1] == ["trialtensor"]}


class TestReadmeExample:
    def test_synthetic_example_evaluates(self, tmp_path):
        # The README's own simulate line must give an outcome layer with both
        # classes in every split, so its evaluate command succeeds; only the
        # schedule is shortened here (later flags override earlier ones).
        commands = {
            name: [word.replace("work/", f"{tmp_path}/") for word in words]
            for name, words in readme_commands("End-to-end on synthetic data").items()
        }
        assert main(commands["simulate"]) == 0
        short = ["--burnin", "2", "--samples", "4", "--thin", "2"]
        assert main(commands["evaluate"] + short) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [m["model_name"] for m in report["models"]] == [
            "combined", "evidence_1", "evidence_2", "evidence_3",
        ]


class TestPhaseCommand:
    def _write_inputs(self, tmp_path, shift=0.3):
        rng = np.random.default_rng(0)
        pred_lines = ["target_id\tindication_id\tlayer\tscore"]
        pair_lines = ["gene_id\tdisease_id\tlabel\tmax_phase\tstop_reason_class\tstatuses"]
        for phase in range(5):
            for idx in range(12):
                gene, disease = f"g{phase}_{idx}", f"d{phase}_{idx}"
                score = float(np.clip(rng.normal(0.4, 0.05) + (shift if phase == 3 else 0), 0, 1))
                pred_lines.append(f"{gene}\t{disease}\toutcome\t{score}")
                pair_lines.append(f"{gene}\t{disease}\t\t{phase}\tnone\tcompleted")
        predictions = tmp_path / "predictions.tsv"
        pairs = tmp_path / "pairs.tsv"
        predictions.write_text("\n".join(pred_lines) + "\n")
        pairs.write_text("\n".join(pair_lines) + "\n")
        return predictions, pairs

    def test_five_phases_ten_tests(self, tmp_path):
        predictions, pairs = self._write_inputs(tmp_path)
        out = tmp_path / "phase"
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                "--out", str(out)]
        assert main(args) == 0
        rows = (out / "phase_tests.tsv").read_text().splitlines()
        assert rows[0].split("\t") == ["phase_a", "phase_b", "u", "p_raw", "p_corrected"]
        assert len(rows) == 11
        payload = json.loads((out / "phase_analysis.json").read_text())
        assert payload["n_comparisons"] == 10
        shifted = [t for t in payload["tests"] if t["phase_a"] == 1 and t["phase_b"] == 3]
        assert shifted[0]["p_corrected"] < 0.05

    def test_empty_phase_group_excluded(self, tmp_path, caplog):
        predictions, pairs = self._write_inputs(tmp_path)
        # Remove every phase 2 pair so the group is empty.
        kept = [line for line in pairs.read_text().splitlines() if "\t2\t" not in line]
        pairs.write_text("\n".join(kept) + "\n")
        out = tmp_path / "phase"
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                "--out", str(out)]
        assert main(args) == 0
        payload = json.loads((out / "phase_analysis.json").read_text())
        assert payload["excluded_phases"] == [2]
        assert payload["n_comparisons"] == 6  # C(4, 2)

    @pytest.mark.parametrize(
        "column,field,message",
        [(2, "yes", "label must be 0, 1 or empty, got 'yes'"), (2, "0.5", "label must be 0, 1 or empty"),
         (3, "5", "max_phase 5 outside 0..4"), (3, "-1", "max_phase -1 outside 0..4")],
    )
    def test_bad_pair_field_is_data_error(self, tmp_path, capsys, column, field, message):
        predictions, pairs = self._write_inputs(tmp_path)
        lines = pairs.read_text().splitlines()
        parts = lines[4].split("\t")
        parts[0] = "unscored"  # the range check must not depend on a matching prediction
        parts[column] = field
        lines[4] = "\t".join(parts)
        pairs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "phase"
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                "--out", str(out)]
        assert main(args) == 2
        assert f"pairs.tsv:5: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "7.5", "-0.1"])
    def test_impossible_score_is_data_error(self, tmp_path, capsys, score):
        predictions, pairs = self._write_inputs(tmp_path)
        lines = predictions.read_text().splitlines()
        lines[5] = "\t".join(lines[5].split("\t")[:3] + [score])
        predictions.write_text("\n".join(lines) + "\n")
        out = tmp_path / "phase"
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                "--out", str(out)]
        assert main(args) == 2
        assert "predictions.tsv:6" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_pair_is_data_error(self, tmp_path, capsys):
        # A repeated pair would add its score to its phase group twice.
        predictions, pairs = self._write_inputs(tmp_path)
        lines = pairs.read_text().splitlines()
        pairs.write_text("\n".join(lines + [lines[3]]) + "\n")
        out = tmp_path / "phase"
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                "--out", str(out)]
        assert main(args) == 2
        assert f"pairs.tsv:{len(lines) + 1}: duplicate pair" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block", [17, 64, 1 << 16])
    def test_blocked_read_gives_the_same_analysis(self, tmp_path, monkeypatch, block):
        predictions, pairs = self._write_inputs(tmp_path)
        lines = predictions.read_text().splitlines()
        # Rows of another layer and unpaired rows are read and checked, not kept.
        extra = [f"x{n}\td{n}\tevidence_1\t0.5" for n in range(9)] + [f"u{n}\tv\toutcome\t1" for n in range(9)]
        predictions.write_text("\n".join(lines[:30] + extra + lines[30:]) + "\n")
        assert main(["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                     "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(ing, "_BLOCK_CHARS", block)
        assert main(["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("phase_analysis.json", "phase_tests.tsv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize(
        "edit,message",
        [
            ("duplicate", "predictions.tsv:62: duplicate prediction for ('g0_2', 'd0_2')"),
            ("score", "predictions.tsv:50: bad score 'x'"),
            ("range_then_score", "predictions.tsv:50: bad score 'x'"),
            ("range", "predictions.tsv:4: bad score '1.5', expected a number in [0, 1]"),
            ("duplicate_after_score", "predictions.tsv:62: duplicate prediction for ('g0_2', 'd0_2')"),
            ("layer", "no predictions for layer 'outcome'"),
        ],
    )
    def test_faults_found_across_blocks(self, tmp_path, capsys, monkeypatch, edit, message):
        # With blocks of a few lines, each fault and the row it names lie in different blocks.
        monkeypatch.setattr(ing, "_BLOCK_CHARS", 64)
        predictions, pairs = self._write_inputs(tmp_path)
        lines = predictions.read_text().splitlines()
        fields = [line.split("\t") for line in lines]
        if edit in ("score", "range_then_score", "duplicate_after_score"):
            fields[49][3] = "x"
        if edit in ("range", "range_then_score"):
            fields[3][3] = "1.5"
        if edit == "layer":
            for row in fields[1:]:
                row[2] = "evidence_1"
        lines = ["\t".join(row) for row in fields]
        if edit.startswith("duplicate"):
            lines.append(lines[3])
        predictions.write_text("\n".join(lines) + "\n")
        args = ["phase-analysis", "--predictions", str(predictions), "--pairs", str(pairs), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert message in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--frobnicate"]) == 1

    def test_linalg_error_is_numerical_error(self, ingested_dir, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError; it must not be reported as a usage error.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(sampler.np.linalg, "solve", singular)
        args = ["train", "--tensor", str(ingested_dir), "--out", str(tmp_path / "o")] + SMALL_SCHEDULE
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "numerical error: Singular matrix" in err
        assert "usage error" not in err

    @pytest.mark.parametrize(
        "command,flag,value",
        [("train", "--latent-dim", "0"), ("train", "--alpha", "0"), ("train", "--alpha", "nan"),
         ("train", "--burnin", "-1"), ("train", "--samples", "0"), ("train", "--thin", "0"),
         ("train", "--seed", "-1"), ("evaluate", "--seed", "-1"), ("evaluate", "--alpha", "-2"),
         ("simulate", "--dims", "3,0,2"), ("simulate", "--rank", "0"), ("simulate", "--noise-sd", "-0.1"),
         ("simulate", "--observed-fraction", "0"), ("simulate", "--observed-fraction", "1.5"),
         ("simulate", "--coupling", "-0.1"), ("simulate", "--coupling", "2"), ("simulate", "--seed", "-1")],
    )
    def test_bad_flag_value_names_flag(self, simulated_dir, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        args = [command, "--out", str(out), flag, value]
        if command != "simulate":
            args += ["--tensor", str(simulated_dir)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "0", "1", "nan"])
    def test_bad_threshold_rejected_before_sampling(self, simulated_dir, tmp_path, capsys, monkeypatch, value):
        def unreachable(*args, **kwargs):
            raise AssertionError("repeated_eval reached with a bad --threshold")

        monkeypatch.setattr(cli, "repeated_eval", unreachable)
        out = tmp_path / "report.json"
        args = ["evaluate", "--tensor", str(simulated_dir), "--out", str(out), "--threshold", value]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_fewer_samples_than_thin_names_both_flags(self, simulated_dir, tmp_path, capsys, command):
        args = [command, "--tensor", str(simulated_dir), "--out", str(tmp_path / "o"), "--samples", "2", "--thin", "3"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--samples" in err and "--thin" in err

    def test_bad_config_value_names_key(self, simulated_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("latent-dim = 0\n")
        args = ["train", "--tensor", str(simulated_dir), "--out", str(tmp_path / "o"), "--config", str(config)]
        assert main(args) == 1
        assert "run.cfg:1: bad value for 'latent-dim': must be at least 1" in capsys.readouterr().err

    def test_value_error_inside_command_propagates(self, ingested_dir, tmp_path, monkeypatch):
        # Only flag values are usage errors; a ValueError from the computation is a bug to see in full.
        def broken(*args, **kwargs):
            raise ValueError("shapes (3,2) and (4,) not aligned")

        monkeypatch.setattr(cli, "predict_slice", broken)
        args = ["train", "--tensor", str(ingested_dir), "--out", str(tmp_path / "o")] + SMALL_SCHEDULE
        with pytest.raises(ValueError, match="not aligned"):
            main(args)

    @pytest.mark.parametrize("case", ["tensor_tsv", "tensor_meta", "evidence", "predictions", "config"])
    def test_non_utf8_input_is_data_error(self, ingested_dir, ingest_args, tmp_path, capsys, case):
        out = str(tmp_path / "o")
        args = ["train", "--tensor", str(ingested_dir), "--out", out] + SMALL_SCHEDULE
        if case in ("tensor_tsv", "tensor_meta"):
            bad = ingested_dir / ("tensor.tsv" if case == "tensor_tsv" else "tensor.meta.json")
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
        elif case == "evidence":
            args = list(ingest_args[0])
            rare = args.index("--rare") + 1
            bad = tmp_path / "rare.tsv"
            bad.write_bytes(open(args[rare], "rb").read() + b"G\xff\tE\thigh\n")
            args[rare], args[args.index("--out") + 1] = str(bad), out
        elif case == "predictions":
            bad = tmp_path / "predictions.tsv"
            bad.write_bytes(b"target_id\tindication_id\tlayer\tscore\ng\xff\td\toutcome\t0.5\n")
            args = ["phase-analysis", "--predictions", str(bad),
                    "--pairs", str(ingested_dir / "pairs.tsv"), "--out", out]
        else:
            bad = tmp_path / "run.cfg"
            bad.write_bytes(b"seed = 5  # \xff\n")
            args += ["--config", str(bad)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert bad.name in err


# Runs the CLI in a fresh interpreter in which any ``import scipy`` fails.
_SCIPY_BLOCKED_CLI = """
import sys
sys.modules["scipy"] = None
from trialtensor.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestNumpyOnlyRuntime:
    @staticmethod
    def _python(*args):
        env = dict(os.environ)
        src = str(Path(trialtensor.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    def test_import_loads_no_scipy(self):
        done = self._python(
            "-c",
            "import sys, trialtensor.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        sim, model = tmp_path / "sim", tmp_path / "model"
        schedule = ["--latent-dim", "3", "--burnin", "2", "--samples", "4", "--thin", "2"]
        commands = [
            ["simulate", "--dims", "12,10,3", "--rank", "2", "--observed-fraction", "0.6",
             "--seed", "4", "--out", str(sim)],
            ["train", "--tensor", str(sim), "--out", str(model), "--seed", "4"] + schedule,
            ["evaluate", "--tensor", str(sim), "--out", str(tmp_path / "report.json"),
             "--models", "combined", "--n-repeats", "2", "--seed", "4"] + schedule,
        ]
        for command in commands:
            done = self._python("-c", _SCIPY_BLOCKED_CLI, *command)
            assert done.returncode == 0, (command[0], done.stderr)
        assert (model / "predictions.tsv").exists()
        assert json.loads((tmp_path / "report.json").read_text())["models"]
