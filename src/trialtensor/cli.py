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
from collections import Counter
from pathlib import Path
from typing import Iterator

import numpy as np

from . import ingest as ing
from .errors import DataError, NumericalError
from .io import FLOAT_BLOCK, entry_lines, escape_percent, format_floats, read_text, write_json, write_tsv
from .metrics import MAX_PHASE, EvalConfig, phase_analysis, repeated_eval
from .sampler import SamplerSchedule, init_chains, predict_slice, run, save_checkpoint
from .simulate import SynthConfig, generate, synthetic_modes
from .tensor import load_tensor, save_tensor, select_layers

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


def _checked(convert, requirement: str, accept):
    """An argparse type: ``convert`` the text, then reject a value ``accept`` refuses.

    argparse prefixes the rejection with the flag's name; a config file
    value goes through the same check.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


_AT_LEAST_1 = _checked(int, "at least 1", lambda value: value >= 1)
_NON_NEGATIVE = _checked(int, "at least 0", lambda value: value >= 0)


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--latent-dim", type=_AT_LEAST_1, default=32, help="latent dimension (default 32)")
    parser.add_argument("--alpha", type=_checked(float, "positive", lambda value: value > 0), default=5.0,
                        help="observation precision (default 5.0)")
    parser.add_argument("--burnin", type=_NON_NEGATIVE, default=500, help="burn-in sweeps (default 500)")
    parser.add_argument("--samples", type=_AT_LEAST_1, default=3500, help="post-burn-in sweeps (default 3500)")
    parser.add_argument("--thin", type=_AT_LEAST_1, default=350, help="retain every thin-th sweep (default 350)")
    parser.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="random seed")


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
    p.add_argument("--threshold", type=_checked(float, "in (0, 1)", lambda value: 0 < value < 1), default=0.5,
                   help="F1 threshold (default 0.5)")
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
    p.add_argument("--rank", type=_AT_LEAST_1, default=8, help="true latent rank (default 8)")
    p.add_argument("--noise-sd", type=_checked(float, "at least 0", lambda value: value >= 0), default=0.1,
                   help="observation noise sd (default 0.1)")
    p.add_argument("--observed-fraction", type=_checked(float, "in (0, 1]", lambda value: 0 < value <= 1),
                   default=0.2, help="cell observation probability")
    p.add_argument("--coupling", type=_checked(float, "in [0, 1]", lambda value: 0 <= value <= 1), default=0.0,
                   help="evidence/outcome structure sharing in [0,1]")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="random seed")
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
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
    if len(parts) != 3 or min(parts) < 1:
        raise UsageError(f"--dims needs three comma-separated positive integers, got {text!r}")
    return parts


def _schedule(ns: argparse.Namespace) -> SamplerSchedule:
    if ns.samples < ns.thin:
        raise UsageError(f"--samples {ns.samples} is below --thin {ns.thin}, so no sweep would be retained")
    return SamplerSchedule(burnin=ns.burnin, samples=ns.samples, thin=ns.thin)


def _evidence_selection(text: str) -> list[str]:
    if text.strip().lower() in ("combined", "all"):
        return list(ing.LAYER_ORDER)
    selection = []
    for part in text.split(","):
        name = _LAYER_ALIASES.get(part.strip().lower())
        if name is None:
            raise UsageError(f"unknown evidence layer {part.strip()!r} in --layers")
        selection.append(name)
    return selection


def _resolve_layer_names(text: str, layers: tuple[str, ...]) -> list[int] | None:
    """Map a comma list of layer names onto tensor layer indices (0 prepended)."""
    if text.strip().lower() in ("all", "combined"):
        return None
    keep = [0]
    for part in text.replace("+", ",").split(","):
        name = part.strip()
        name = _LAYER_ALIASES.get(name.lower(), name)
        if name not in layers:
            raise DataError(f"unknown layer {part.strip()!r}; tensor has {list(layers)}")
        k = layers.index(name)
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
    report = Counter()
    xref = ing.load_xref(_require_file(ns, "--xref"))
    selection = _evidence_selection(ns.layers)
    tables = []
    if "rare_disease" in selection:
        tables.append(ing.parse_rare_disease(_require_file(ns, "--rare"), report=report))
    if "gene_burden" in selection:
        tables.append(ing.parse_gene_burden(_require_file(ns, "--burden"), report=report))
    if "gwas" in selection:
        tables.append(ing.parse_gwas_l2g(
            _require_file(ns, "--gwas"), score_threshold=ns.l2g_threshold, report=report
        ))
    evidence = tuple(map(np.concatenate, zip(*tables)))
    trials = ing.parse_outcomes(_require_file(ns, "--outcomes"), report=report)
    pairs = ing.label_outcomes(trials, report=report)
    evidence, pairs = ing.map_ontology(evidence, pairs, xref, report=report)
    tensor, modes = ing.build_tensor(evidence, pairs, selection)
    save_tensor(tensor, modes, out_dir / "tensor.tsv", out_dir / "tensor.meta.json")
    write_tsv(
        out_dir / "pairs.tsv",
        ("gene_id", "disease_id", "label", "max_phase", "stop_reason_class", "statuses"),
        (
            ("%s\t%s\t%s\t%s\t%s\t%s\n" % (
                gene, disease, "" if label == ing.UNLABELED else label, phase,
                ing.STOP_REASONS[rank], ",".join(sorted(statuses)),
            )).encode()
            for gene, disease, phase, statuses, rank, label in zip(*(column.tolist() for column in pairs))
        ),
    )
    # Counters that never fired stay out of the report.
    payload = dict(sorted((+report).items()))
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
    schedule = _schedule(ns)
    state = init_chains([tensor.dims], ns.latent_dim, [ns.seed], alpha=ns.alpha)
    (samples,) = run(state, [tensor], schedule)
    save_checkpoint(out_dir / "checkpoint", samples, state, schedule)
    write_tsv(
        out_dir / "predictions.tsv",
        ("target_id", "indication_id", "layer", "score"),
        _prediction_lines(modes, predict_slice(samples, 0)),
    )
    logger.info(
        "trained on dims=%s entries=%d, retained %d samples -> %s",
        tensor.dims, tensor.n_entries, schedule.retained, out_dir,
    )
    return 0


def _prediction_lines(modes: tuple, scores: np.ndarray) -> Iterator[bytes]:
    """The ``predictions.tsv`` lines of a ``(n_targets, n_indications)`` score slice, a block of rows at a time.

    Each target's line template joins its identifier to the per-indication
    tails, ``%`` escaped, with a ``%b`` slot for each score.
    """
    layer = escape_percent(modes[2][0])
    tails = [b"", *(f"\t{escape_percent(ind)}\t{layer}\t%b\n".encode() for ind in modes[1])]
    step = max(1, FLOAT_BLOCK // max(1, scores.shape[1]))
    for start in range(0, len(scores), step):
        templates = [escape_percent(target).encode().join(tails) for target in modes[0][start:start + step]]
        yield b"".join(templates) % tuple(format_floats(scores[start:start + step]))


def cmd_evaluate(ns: argparse.Namespace) -> int:
    out_path = Path(_require(ns, "--out"))
    tensor, modes = _load_tensor_dir(ns)
    schedule = _schedule(ns)
    seeds = [ns.seed + r for r in range(ns.n_repeats)]
    configs = []
    for spec in ns.models.split(","):
        spec = spec.strip()
        keep = _resolve_layer_names(spec, modes[2])
        configs.append(EvalConfig(
            model_name=spec,
            layers=None if keep is None else tuple(keep),
            n_latent=ns.latent_dim,
            alpha=ns.alpha,
            schedule=schedule,
            heldout_fraction=ns.heldout_fraction,
            threshold=ns.threshold,
        ))
    reports = repeated_eval(tensor, configs, ns.n_repeats, seeds)
    for report in reports:
        logger.info(
            "model %s: auroc %.3f +/- %.3f, f1 %.3f +/- %.3f", report["model_name"],
            report["auroc"]["mean"], report["auroc"]["sd"], report["f1"]["mean"], report["f1"]["sd"],
        )
    payload = {
        "models": reports,
        "n_repeats": ns.n_repeats,
        "heldout_fraction": ns.heldout_fraction,
        "schedule": {"burnin": ns.burnin, "samples": ns.samples, "thin": ns.thin},
        "latent_dim": ns.latent_dim,
        "alpha": ns.alpha,
        "seed": ns.seed,
    }
    write_json(out_path, payload)
    return 0


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """True for each row whose key tuple an earlier row already has."""
    *_, first = ing._merge((*keys, np.arange(len(keys[0]))), len(keys), (np.minimum,))
    repeat = np.ones(len(keys[0]), dtype=bool)
    repeat[first] = False
    return repeat


def _coded(column: np.ndarray, codes: dict[str, int]) -> np.ndarray:
    """Each row's code for its value, a new value taking the next free code."""
    values, rows = ing._factorize(column)
    return np.array([codes.setdefault(value, len(codes)) for value in values.tolist()], dtype=np.int64)[rows]


def _read_predictions(path: Path, layer: str, keys: set[tuple[str, str]]) -> dict[tuple[str, str], float]:
    """The scores that the ``layer`` rows of a ``predictions.tsv`` hold for ``keys``; every row is checked.

    The file is read a block of lines at a time. Of the layer's rows only
    integer codes of the identifiers and line numbers stay for the duplicate
    check, and only the wanted keys' scores enter the dict. A bad score's
    error waits for the duplicate check, which sees the whole layer.
    """
    codes: tuple[dict[str, int], dict[str, int]] = ({}, {})
    target_codes, indication_codes, numbers, scores = [], [], [], {}
    faults: tuple[list[DataError], list[DataError]] = ([], [])  # unreadable scores, then scores outside [0, 1]
    for targets, indications, layers, text, lines in ing._blocks(path, ("target_id", "indication_id", "layer", "score")):
        kept = layers == layer
        targets, indications, text, lines = targets[kept], indications[kept], text[kept], lines[kept]
        target_codes.append(_coded(targets, codes[0]))
        indication_codes.append(_coded(indications, codes[1]))
        numbers.append(lines)
        try:
            score = ing._parsed(path, lines, text, float, "score")
        except DataError as exc:
            faults[0].append(exc)
            continue
        try:
            ing._check(path, lines, (score >= 0.0) & (score <= 1.0),
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
    ing._check(path, numbers, ~_repeats(target_codes, indication_codes),
               lambda r: f"duplicate prediction for {(names[0][target_codes[r]], names[1][indication_codes[r]])}")
    for found in faults:
        if found:
            raise found[0]
    return scores


def _read_pairs(path: Path) -> list[tuple[str, str, int]]:
    """The ``(gene_id, disease_id, max_phase)`` triples of a ``pairs.tsv``, one per pair."""
    genes, diseases, phase, label, reason, lines = ing._table(
        path, ("gene_id", "disease_id", "max_phase"), optional=("label", "stop_reason_class")
    )
    phase = ing._parsed(path, lines, phase, int, "max_phase")
    ing._check(path, lines, (phase >= 0) & (phase <= MAX_PHASE),
               lambda r: f"max_phase {phase[r]} outside 0..{MAX_PHASE}")
    label = ing._per_unique(label, str.strip)
    ing._check(path, lines, np.isin(label, ("", "0", "1")),
               lambda r: f"label must be 0, 1 or empty, got {label[r]!r}")
    reason = ing._per_unique(reason, lambda text: (text or "none").strip().lower())
    ing._check(path, lines, np.isin(reason, ing.STOP_REASONS),
               lambda r: f"unknown stop_reason_class {reason[r]!r}")
    # A repeated pair's score would be counted twice in its phase group.
    ing._check(path, lines, ~_repeats(genes, diseases), lambda r: f"duplicate pair {(genes[r], diseases[r])}")
    return list(zip(genes.tolist(), diseases.tolist(), phase.tolist()))


def cmd_phase(ns: argparse.Namespace) -> int:
    out_dir = Path(_require(ns, "--out"))
    predictions_path = _require_file(ns, "--predictions")
    pairs = _read_pairs(_require_file(ns, "--pairs"))
    predictions = _read_predictions(predictions_path, ns.layer, {(gene, disease) for gene, disease, _ in pairs})
    analysis = phase_analysis(predictions, pairs)
    for phase in analysis["excluded_phases"]:
        logger.warning("phase %d excluded from testing (fewer than 2 scores)", phase)
    write_json(out_dir / "phase_analysis.json", analysis)
    write_tsv(
        out_dir / "phase_tests.tsv",
        ("phase_a", "phase_b", "u", "p_raw", "p_corrected"),
        (
            b"%d\t%d\t%b\t%b\t%b\n" % (test["phase_a"], test["phase_b"], *format_floats(
                [test["u"], test["p_raw"], test["p_corrected"]]
            ))
            for test in analysis["tests"]
        ),
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
    # Every cell's coordinates in C order, 12 bytes a cell next to the truth's 8.
    coords = np.indices(dims, dtype=np.int32).reshape(3, -1).T
    write_tsv(out_dir / "ground_truth.tsv", ("i", "j", "k", "value"), entry_lines(coords, ground_truth.ravel()))
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
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
