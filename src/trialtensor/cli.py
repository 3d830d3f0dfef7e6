"""Command-line entry point.

Subcommands: ``ingest``, ``train``, ``evaluate``, ``phase-analysis`` and
``simulate``. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical error. Every output file is written atomically, and every
subcommand is deterministic given ``--seed``.

An optional ``--config FILE`` supplies ``key = value`` defaults for any
optional flag of the subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import ingest as ing
from .errors import DataError, NumericalError
from .io import FLOAT_FORMAT, escape_percent, read_text, write_json, write_tsv
from .metrics import MAX_PHASE, EvalConfig, phase_analysis, repeated_eval
from .sampler import SamplerSchedule, init_model, predict_slice, run, save_checkpoint
from .simulate import SynthConfig, generate, synthetic_modes
from .tensor import ModeIndex, load_tensor, save_tensor, select_layers

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit code 1
        raise UsageError(message)


_LAYER_ALIASES = {
    "rare": "rare_disease",
    "rare_disease": "rare_disease",
    "burden": "gene_burden",
    "gene_burden": "gene_burden",
    "gwas": "gwas",
}


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--latent-dim", type=int, default=32, help="latent dimension (default 32)")
    parser.add_argument("--alpha", type=float, default=5.0, help="observation precision (default 5.0)")
    parser.add_argument("--burnin", type=int, default=500, help="burn-in sweeps (default 500)")
    parser.add_argument("--samples", type=int, default=3500, help="post-burn-in sweeps (default 3500)")
    parser.add_argument("--thin", type=int, default=350, help="retain every thin-th sweep (default 350)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="trialtensor", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands: dict[str, argparse.ArgumentParser] = {}

    p = subparsers.add_parser("ingest", parents=[], description="Parse evidence TSVs into a tensor.")
    p.add_argument("--rare", help="rare-disease evidence TSV")
    p.add_argument("--burden", help="gene-burden evidence TSV")
    p.add_argument("--gwas", help="GWAS locus-to-gene TSV")
    p.add_argument("--outcomes", help="clinical trial outcomes TSV")
    p.add_argument("--xref", help="EFO to MeSH cross-reference TSV")
    p.add_argument("--out", help="output directory")
    p.add_argument("--layers", default="combined", help="evidence layers: combined or comma list (rare,burden,gwas)")
    p.add_argument("--l2g-threshold", type=float, default=0.5, help="L2G inclusion threshold (default 0.5)")
    p.add_argument("--config", help="key=value defaults file")
    commands["ingest"] = p

    p = subparsers.add_parser("train", description="Run the Gibbs sampler and write predictions.")
    p.add_argument("--tensor", help="directory holding tensor.tsv and tensor.meta.json")
    p.add_argument("--out", help="output directory")
    p.add_argument("--layers", default="all", help="layer subset by name, e.g. rare_disease (outcome always kept)")
    _add_sampler_flags(p)
    p.add_argument("--config", help="key=value defaults file")
    commands["train"] = p

    p = subparsers.add_parser("evaluate", description="Repeated-split evaluation of model variants.")
    p.add_argument("--tensor", help="directory holding tensor.tsv and tensor.meta.json")
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--models", default="combined", help="comma list of model specs (combined, rare, burden+gwas, ...)")
    p.add_argument("--n-repeats", type=int, default=10, help="number of repeated splits (default 10)")
    p.add_argument("--heldout-fraction", type=float, default=0.2, help="held-out fraction per split (default 0.2)")
    p.add_argument("--threshold", type=float, default=0.5, help="F1 threshold (default 0.5)")
    _add_sampler_flags(p)
    p.add_argument("--config", help="key=value defaults file")
    commands["evaluate"] = p

    p = subparsers.add_parser("phase-analysis", description="Phase-grouped rank tests on predictions.")
    p.add_argument("--predictions", help="predictions TSV from train")
    p.add_argument("--pairs", help="pairs TSV from ingest")
    p.add_argument("--layer", default="outcome", help="prediction layer to analyze (default outcome)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="key=value defaults file")
    commands["phase-analysis"] = p

    p = subparsers.add_parser("simulate", description="Generate a synthetic tensor with ground truth.")
    p.add_argument("--dims", default="50,40,4", help="tensor dims as n_targets,n_indications,n_layers")
    p.add_argument("--rank", type=int, default=8, help="true latent rank (default 8)")
    p.add_argument("--noise-sd", type=float, default=0.1, help="observation noise sd (default 0.1)")
    p.add_argument("--observed-fraction", type=float, default=0.2, help="cell observation probability")
    p.add_argument("--coupling", type=float, default=0.0, help="evidence/outcome structure sharing in [0,1]")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="key=value defaults file")
    commands["simulate"] = p

    return parser, commands


def _load_config_defaults(subparser: argparse.ArgumentParser, path: str) -> dict:
    """Parse a key=value file, converting values with the matching flag's type."""
    actions = {action.dest: action for action in subparser._actions}
    overrides = {}
    with read_text(path) as handle:
        text = handle.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest not in actions or dest in ("help", "config"):
            raise UsageError(f"{path}:{lineno}: unknown configuration key {key.strip()!r}")
        converter = actions[dest].type or str
        try:
            overrides[dest] = converter(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc
    return overrides


def _require(ns: argparse.Namespace, flag: str):
    value = getattr(ns, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _require_file(ns: argparse.Namespace, flag: str) -> Path:
    path = Path(_require(ns, flag))
    if not path.exists():
        raise DataError(f"input file for {flag} not found: {path}")
    return path


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --dims value {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise UsageError(f"--dims needs three comma-separated integers, got {text!r}")
    return parts


def _evidence_selection(text: str) -> list[ing.Layer]:
    if text.strip().lower() in ("combined", "all"):
        return list(ing.LAYER_ORDER)
    selection = []
    for part in text.split(","):
        name = _LAYER_ALIASES.get(part.strip().lower())
        if name is None:
            raise UsageError(f"unknown evidence layer {part.strip()!r} in --layers")
        selection.append(ing.Layer(name))
    return selection


def _resolve_layer_names(text: str, layers: ModeIndex) -> list[int] | None:
    """Map a comma list of layer names onto tensor layer indices (0 prepended)."""
    if text.strip().lower() in ("all", "combined"):
        return None
    keep = [0]
    for part in text.replace("+", ",").split(","):
        name = part.strip()
        name = _LAYER_ALIASES.get(name.lower(), name)
        if name not in layers.forward:
            raise DataError(f"unknown layer {part.strip()!r}; tensor has {list(layers.reverse)}")
        k = layers.forward[name]
        if k != 0 and k not in keep:
            keep.append(k)
    return keep


def _load_tensor_dir(ns: argparse.Namespace) -> tuple:
    directory = Path(_require(ns, "--tensor"))
    tsv = directory / "tensor.tsv"
    meta = directory / "tensor.meta.json"
    if not tsv.exists() or not meta.exists():
        raise DataError(f"input for --tensor incomplete: expected {tsv} and {meta}")
    return load_tensor(tsv, meta)


# --------------------------------------------------------------------------
# Subcommands.

def cmd_ingest(ns: argparse.Namespace) -> int:
    out_dir = Path(_require(ns, "--out"))
    report = ing.IngestReport()
    xref = ing.load_xref(_require_file(ns, "--xref"))
    selection = _evidence_selection(ns.layers)
    evidence = []
    if ing.Layer.RARE_DISEASE in selection:
        evidence += ing.parse_rare_disease(_require_file(ns, "--rare"), report=report)
    if ing.Layer.GENE_BURDEN in selection:
        evidence += ing.parse_gene_burden(_require_file(ns, "--burden"), report=report)
    if ing.Layer.GWAS in selection:
        evidence += ing.parse_gwas_l2g(
            _require_file(ns, "--gwas"), score_threshold=ns.l2g_threshold, report=report
        )
    trial_rows = ing.parse_outcomes(_require_file(ns, "--outcomes"), report=report)
    pairs = ing.label_outcomes(trial_rows, report=report)
    evidence = ing.map_ontology(evidence, xref, report=report)
    pairs = ing.map_ontology(pairs, xref, report=report)
    tensor, modes = ing.build_tensor(evidence, pairs, selection)
    save_tensor(tensor, modes, out_dir / "tensor.tsv", out_dir / "tensor.meta.json")
    write_tsv(
        out_dir / "pairs.tsv",
        ("gene_id", "disease_id", "label", "max_phase", "stop_reason_class", "statuses"),
        (
            "%s\t%s\t%s\t%s\t%s\t%s\n" % (
                p.gene_id,
                p.disease_id,
                "" if p.label is None else p.label,
                p.max_phase,
                p.stop_reason_class.value,
                ",".join(sorted(p.status_set)),
            )
            for p in sorted(pairs, key=lambda p: (p.gene_id, p.disease_id))
        ),
    )
    payload = report.to_dict()
    payload.update({"dims": list(tensor.dims), "n_entries": tensor.n_entries})
    write_json(out_dir / "ingest_report.json", payload)
    logger.info("ingested tensor dims=%s entries=%d -> %s", tensor.dims, tensor.n_entries, out_dir)
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    out_dir = Path(_require(ns, "--out"))
    tensor, modes = _load_tensor_dir(ns)
    keep = _resolve_layer_names(ns.layers, modes[2])
    if keep is not None:
        tensor = select_layers(tensor, keep)
    schedule = SamplerSchedule(burnin=ns.burnin, samples=ns.samples, thin=ns.thin)
    state = init_model(tensor.dims, ns.latent_dim, alpha=ns.alpha, seed=ns.seed)
    samples = run(state, tensor, schedule)
    save_checkpoint(out_dir / "checkpoint", samples, state, schedule)
    # One template per target: its identifier joins the per-indication tails.
    layer = escape_percent(modes[2].reverse[0])
    tails = ["", *(f"\t{escape_percent(ind)}\t{layer}\t{FLOAT_FORMAT}\n" for ind in modes[1].reverse)]
    write_tsv(
        out_dir / "predictions.tsv",
        ("target_id", "indication_id", "layer", "score"),
        (
            escape_percent(target).join(tails) % tuple(row.tolist())
            for target, row in zip(modes[0].reverse, predict_slice(samples, 0))
        ),
    )
    logger.info(
        "trained on dims=%s entries=%d, retained %d samples -> %s",
        tensor.dims, tensor.n_entries, schedule.retained, out_dir,
    )
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    out_path = Path(_require(ns, "--out"))
    tensor, modes = _load_tensor_dir(ns)
    schedule = SamplerSchedule(burnin=ns.burnin, samples=ns.samples, thin=ns.thin)
    seeds = [ns.seed + r for r in range(ns.n_repeats)]
    reports = []
    for spec in ns.models.split(","):
        spec = spec.strip()
        keep = _resolve_layer_names(spec, modes[2])
        config = EvalConfig(
            model_name=spec,
            layers=None if keep is None else tuple(keep),
            n_latent=ns.latent_dim,
            alpha=ns.alpha,
            schedule=schedule,
            heldout_fraction=ns.heldout_fraction,
            threshold=ns.threshold,
        )
        reports.append(repeated_eval(tensor, config, ns.n_repeats, seeds))
        logger.info(
            "model %s: auroc %.3f +/- %.3f, f1 %.3f +/- %.3f",
            spec,
            reports[-1].auroc_mean,
            reports[-1].auroc_sd,
            reports[-1].f1_mean,
            reports[-1].f1_sd,
        )
    payload = {
        "models": [report.to_dict() for report in reports],
        "n_repeats": ns.n_repeats,
        "heldout_fraction": ns.heldout_fraction,
        "schedule": {"burnin": ns.burnin, "samples": ns.samples, "thin": ns.thin},
        "latent_dim": ns.latent_dim,
        "alpha": ns.alpha,
        "seed": ns.seed,
    }
    write_json(out_path, payload)
    return 0


def _read_predictions(path: Path, layer: str) -> dict[tuple[str, str], float]:
    predictions: dict[tuple[str, str], float] = {}
    with read_text(path) as handle:
        header = handle.readline().rstrip("\n").split("\t")
        expected = ["target_id", "indication_id", "layer", "score"]
        if header != expected:
            raise DataError(f"{path}: expected header {expected}, got {header}")
        for lineno, line in enumerate(handle, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields")
            if parts[2] != layer:
                continue
            key = (parts[0], parts[1])
            if key in predictions:
                raise DataError(f"{path}:{lineno}: duplicate prediction for {key}")
            try:
                score = float(parts[3])
                if not 0.0 <= score <= 1.0:  # also rejects nan
                    raise ValueError("outside [0, 1]")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad score {parts[3]!r}, expected a number in [0, 1]") from exc
            predictions[key] = score
    if not predictions:
        raise DataError(f"{path}: no predictions for layer {layer!r}")
    return predictions


def _read_pairs(path: Path) -> list[ing.OutcomePair]:
    pairs = []
    for lineno, row in ing._rows(
        path, ("gene_id", "disease_id", "max_phase")
    ):
        try:
            max_phase = int(row["max_phase"])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad max_phase {row['max_phase']!r}") from exc
        if not 0 <= max_phase <= MAX_PHASE:
            raise DataError(f"{path}:{lineno}: max_phase {max_phase} outside 0..{MAX_PHASE}")
        label_text = (row.get("label") or "").strip()
        if label_text not in ("", "0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0, 1 or empty, got {label_text!r}")
        statuses = frozenset(s for s in (row.get("statuses") or "").split(",") if s)
        reason_text = (row.get("stop_reason_class") or "none").strip().lower()
        try:
            reason = ing.StopReason(reason_text)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unknown stop_reason_class {reason_text!r}") from exc
        pairs.append(
            ing.OutcomePair(
                gene_id=row["gene_id"],
                disease_id=row["disease_id"],
                status_set=statuses,
                max_phase=max_phase,
                stop_reason_class=reason,
                label=int(label_text) if label_text else None,
            )
        )
    return pairs


def cmd_phase(ns: argparse.Namespace) -> int:
    out_dir = Path(_require(ns, "--out"))
    predictions = _read_predictions(_require_file(ns, "--predictions"), ns.layer)
    pairs = _read_pairs(_require_file(ns, "--pairs"))
    analysis = phase_analysis(predictions, pairs)
    for phase in analysis.excluded:
        logger.warning("phase %d excluded from testing (fewer than 2 scores)", phase)
    write_json(out_dir / "phase_analysis.json", analysis.to_dict())
    write_tsv(
        out_dir / "phase_tests.tsv",
        ("phase_a", "phase_b", "u", "p_raw", "p_corrected"),
        map(f"%s\t%s\t{FLOAT_FORMAT}\t{FLOAT_FORMAT}\t{FLOAT_FORMAT}\n".__mod__, analysis.tsv_rows()),
    )
    return 0


def cmd_simulate(ns: argparse.Namespace) -> int:
    out_dir = Path(_require(ns, "--out"))
    config = SynthConfig(
        dims=_parse_dims(ns.dims),
        true_rank=ns.rank,
        noise_sd=ns.noise_sd,
        observed_fraction=ns.observed_fraction,
        seed=ns.seed,
        coupling=ns.coupling,
    )
    tensor, ground_truth, _ = generate(config)
    modes = synthetic_modes(config.dims)
    save_tensor(tensor, modes, out_dir / "tensor.tsv", out_dir / "tensor.meta.json")
    dims = config.dims
    cell = f"%d\t%d\t%d\t{FLOAT_FORMAT}\n"
    write_tsv(
        out_dir / "ground_truth.tsv",
        ("i", "j", "k", "value"),
        (cell % (i, j, k, value) for (i, j, k), value in np.ndenumerate(ground_truth)),
    )
    write_json(
        out_dir / "simulate_manifest.json",
        {
            "dims": list(dims),
            "true_rank": config.true_rank,
            "noise_sd": config.noise_sd,
            "observed_fraction": config.observed_fraction,
            "coupling": config.coupling,
            "seed": config.seed,
            "n_entries": tensor.n_entries,
        },
    )
    logger.info("simulated tensor dims=%s entries=%d -> %s", dims, tensor.n_entries, out_dir)
    return 0


_DISPATCH = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "phase-analysis": cmd_phase,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_help(sys.stderr)
            return 1
        if getattr(ns, "config", None):
            commands[ns.command].set_defaults(**_load_config_defaults(commands[ns.command], ns.config))
            ns = parser.parse_args(argv)
        return _DISPATCH[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
