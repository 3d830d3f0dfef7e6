"""Seeded input generators for the benchmark workloads.

The benchmark owns its inputs: nothing here calls ``trialtensor``, so a
change to the package's own simulator or its random streams cannot change
a workload. Everything is derived from one ``numpy`` PCG64 generator per
call, so the same seed writes the same bytes.

Two kinds of input:

* :func:`write_synthetic` writes a low-rank tensor (``tensor.tsv`` plus
  ``tensor.meta.json``) and returns the dense outcome-layer ground truth.
* :func:`write_evidence` writes the five evidence TSVs that ``ingest``
  reads, with merges, conflicts and unmapped identifiers placed on purpose,
  and returns the ingest-report counters those files must produce.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYER_NAMES = ("outcome", "rare_disease", "gene_burden", "gwas")
RANK = 8  # true latent rank of every generated tensor
COUPLING = 0.9  # share of the outcome structure in each evidence layer
MIN_CLASS = 10  # fewest positive and negative observed outcome cells


def _write_text(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(header + "\n" + "".join(line + "\n" for line in lines), encoding="utf-8")


def _latent_truth(rng: np.random.Generator, n_rows: int, n_cols: int,
                  n_layers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent factors of a coupled rank-``RANK`` tensor.

    The outcome layer lives on the first half of the latent dimensions and
    each evidence layer mixes that vector with its own draw on the second
    half, so ``COUPLING`` sets how much the evidence predicts the outcome.
    """
    scale = RANK ** -0.25
    rows = rng.normal(0.0, scale, size=(n_rows, RANK))
    cols = rng.normal(0.0, scale, size=(n_cols, RANK))
    half = RANK // 2
    layers = np.zeros((n_layers, RANK))
    layers[0, :half] = rng.normal(0.0, scale, size=half)
    for k in range(1, n_layers):
        own = np.zeros(RANK)
        own[half:] = rng.normal(0.0, scale, size=RANK - half)
        layers[k] = COUPLING * layers[0] + (1.0 - COUPLING) * own
    return rows, cols, layers


@dataclass(frozen=True)
class Synthetic:
    """What the benchmark knows about a generated tensor."""

    dims: tuple[int, int, int]
    targets: list[str]
    indications: list[str]
    truth: np.ndarray  # (dims[0], dims[1]) outcome-layer ground truth
    observed: np.ndarray  # bool (dims[0], dims[1]): outcome cell is in the tensor


def write_synthetic(out_dir: Path, dims: tuple[int, int, int], n_cells: int, seed: int,
                    noise_sd: float = 0.1) -> Synthetic:
    """Write ``n_cells`` noisy observations of a clipped rank-8 tensor.

    Draws repeat from the same stream until the observed outcome layer holds
    at least ``MIN_CLASS`` positive (>= 0.5) and negative cells, so that
    every stratified split of ``evaluate`` has both classes.
    """
    rng = np.random.default_rng(seed)
    while True:
        rows, cols, layers = _latent_truth(rng, dims[0], dims[1], dims[2])
        lin = np.sort(rng.choice(dims[0] * dims[1] * dims[2], size=n_cells, replace=False))
        i, j, k = np.unravel_index(lin, dims)
        exact = np.clip(np.einsum("nr,nr,nr->n", rows[i], cols[j], layers[k]), 0.0, 1.0)
        values = np.clip(exact + rng.normal(0.0, noise_sd, size=n_cells), 0.0, 1.0)
        n_pos = int(np.sum(values[k == 0] >= 0.5))
        if min(n_pos, int(np.sum(k == 0)) - n_pos) >= MIN_CLASS:
            break
    truth = np.clip(rows @ (cols * layers[0]).T, 0.0, 1.0)
    observed = np.zeros(dims[:2], dtype=bool)
    observed[i[k == 0], j[k == 0]] = True

    targets = [f"T{n:05d}" for n in range(dims[0])]
    indications = [f"I{n:05d}" for n in range(dims[1])]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(
        out_dir / "tensor.tsv",
        "i\tj\tk\tvalue",
        [f"{a}\t{b}\t{c}\t{v:.17g}" for a, b, c, v in zip(i.tolist(), j.tolist(), k.tolist(), values.tolist())],
    )
    meta = {
        "dims": list(dims),
        "modes": {"targets": targets, "indications": indications, "layers": list(LAYER_NAMES[: dims[2]])},
    }
    (out_dir / "tensor.meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return Synthetic(dims, targets, indications, truth, observed)


# --------------------------------------------------------------------------
# Evidence files for ``ingest``.

ACCEPTED_CONFIDENCE = ("definitive", "strong")
DROPPED_CONFIDENCE = ("moderate", "limited", "disputed", "refuted")
L2G_THRESHOLD = 0.5


@dataclass(frozen=True)
class Evidence:
    """Generated evidence files plus everything ``ingest`` must report."""

    genes: list[str]
    diseases: list[str]  # MeSH ids, the tensor's indication identifiers
    truth: np.ndarray  # (genes, diseases) outcome probability
    observed: np.ndarray  # bool (genes, diseases): labelled after curation
    report: dict[str, int]  # expected ingest_report.json, dims and n_entries included


def write_evidence(out_dir: Path, n_genes: int, n_diseases: int, seed: int,
                   n_burden: int = 25_000, n_rare: int = 2_500, n_rare_dropped: int = 1_500,
                   n_gwas: int = 12_000, n_gwas_below: int = 12_000, n_pairs: int = 5_000,
                   alias_fraction: float = 0.2, alias_use: float = 0.15,
                   unmapped_fraction: float = 0.02) -> Evidence:
    """Write rare/burden/GWAS/outcome/xref TSVs whose curation result is known.

    Every (gene, disease, layer) cell is routed through either the disease's
    primary EFO id or, for a share of diseases that own a second EFO id,
    through both ids: those cells reach ``ingest`` twice and must be merged
    (a merge conflict when the two values differ). Extra rows carry EFO ids
    missing from the cross-reference table and must be dropped. Every gene
    and disease owns at least one burden cell, so the tensor dims are known.
    """
    if n_genes < n_diseases:
        raise ValueError("the covering burden cells need at least as many genes as diseases")
    rng = np.random.default_rng(seed)
    genes = [f"G{g:06d}" for g in range(n_genes)]
    diseases = [f"D{m:06d}" for m in range(n_diseases)]
    primary = [f"EFO:{m:07d}" for m in range(n_diseases)]
    has_alias = rng.random(n_diseases) < alias_fraction
    alias = {m: f"EFO:{n_diseases + m:07d}" for m in np.flatnonzero(has_alias).tolist()}
    rows, cols, layers = _latent_truth(rng, n_genes, n_diseases, 2)
    truth = np.clip(rows @ (cols * layers[0]).T, 0.0, 1.0)
    counts: Counter = Counter()
    n_pair_cells = n_genes * n_diseases

    def cells(n: int, cover: bool = False) -> tuple[np.ndarray, np.ndarray]:
        lin = rng.choice(n_pair_cells, size=n, replace=False)
        if cover:  # one cell per gene and per disease, so dims are exact
            lin = np.union1d(lin, np.arange(n_genes) * n_diseases + np.arange(n_genes) % n_diseases)
        return np.divmod(np.sort(lin), n_diseases)

    def routes(g: np.ndarray, m: np.ndarray) -> np.ndarray:
        """True where the cell goes through both of its disease's EFO ids."""
        return has_alias[m] & (rng.random(g.size) < alias_use)

    def unmapped_efo(n: int) -> list[str]:
        return [f"EFO:9{x:06d}" for x in rng.integers(0, 1_000_000, size=n).tolist()]

    def routed_rows(g, m, first: list, second: list) -> list[str]:
        """Rows of cells with values ``first``; a cell routed through both ids
        repeats under its alias with value ``second`` and must be merged."""
        lines = []
        for gi, mi, a, b, d in zip(g.tolist(), m.tolist(), first, second, routes(g, m).tolist()):
            lines.append(f"{genes[gi]}\t{primary[mi]}\t{a}")
            if d:
                lines.append(f"{genes[gi]}\t{alias[mi]}\t{b}")
                counts["merged_records"] += 1
                counts["merge_conflicts"] += int(a != b)
        return lines

    def unmapped_rows(values: list) -> list[str]:
        """Rows that pass parsing but name an EFO id missing from the xref table."""
        counts["unmapped_dropped"] += len(values)
        gene_ids = rng.integers(0, n_genes, len(values)).tolist()
        return [f"{genes[gi]}\t{efo}\t{v}" for gi, efo, v in zip(gene_ids, unmapped_efo(len(values)), values)]

    def random_rows(values: list) -> list[str]:
        """Rows at random cells that parsing drops, so they never reach mapping."""
        g, m = rng.integers(0, n_genes, len(values)).tolist(), rng.integers(0, n_diseases, len(values)).tolist()
        return [f"{genes[gi]}\t{primary[mi]}\t{v}" for gi, mi, v in zip(g, m, values)]

    # Burden: every row is kept; non-significant rows are explicit negatives.
    g, m = cells(n_burden, cover=True)
    p_sig = 0.1 + 0.8 * truth[g, m]
    sig = (rng.random((2, g.size)) < p_sig).astype(int).tolist()
    burden_lines = routed_rows(g, m, sig[0], sig[1])
    burden_lines += unmapped_rows((rng.random(int(unmapped_fraction * g.size)) < 0.3).astype(int).tolist())
    counts["burden_rows"] = len(burden_lines)
    counts["burden_positive"] = sum(line.endswith("\t1") for line in burden_lines)
    counts["burden_negative"] = len(burden_lines) - counts["burden_positive"]
    n_cells = g.size

    # Rare disease: accepted tiers become 1.0 cells, other tiers are dropped.
    g, m = cells(n_rare)
    tiers = [ACCEPTED_CONFIDENCE[t] for t in rng.integers(0, len(ACCEPTED_CONFIDENCE), g.size).tolist()]
    rare_lines = routed_rows(g, m, tiers, tiers)  # both tiers score 1.0: a merge, never a conflict
    rare_lines += unmapped_rows(["definitive"] * int(unmapped_fraction * g.size))
    counts["rare_disease_accepted"] = len(rare_lines)
    rare_lines += random_rows([DROPPED_CONFIDENCE[t] for t in
                               rng.integers(0, len(DROPPED_CONFIDENCE), n_rare_dropped).tolist()])
    counts["rare_disease_dropped_confidence"] = n_rare_dropped
    counts["rare_disease_rows"] = len(rare_lines)
    n_cells += g.size

    # GWAS: scores at or above the threshold are kept at their raw value.
    g, m = cells(n_gwas)
    scores = np.clip(0.55 + 0.4 * truth[g, m] + rng.normal(0.0, 0.05, (2, g.size)), 0.5, 1.0)
    gwas_lines = routed_rows(g, m, [repr(v) for v in scores[0].tolist()], [repr(v) for v in scores[1].tolist()])
    gwas_lines += unmapped_rows([repr(v) for v in rng.uniform(0.5, 1.0, int(unmapped_fraction * g.size)).tolist()])
    counts["gwas_kept"] = len(gwas_lines)
    gwas_lines += random_rows([repr(v) for v in rng.uniform(0.0, L2G_THRESHOLD, n_gwas_below).tolist()])
    counts["gwas_below_threshold"] = n_gwas_below
    counts["gwas_rows"] = len(gwas_lines)
    n_cells += g.size

    # Outcomes: trial histories whose labelling rule outcome is chosen first.
    outcome_lines = []
    observed = np.zeros((n_genes, n_diseases), dtype=bool)
    g, m = cells(n_pairs)
    double = routes(g, m)
    p = truth[g, m]
    draws = rng.random((g.size, 2, 3))
    for gi, mi, d, pi, draw in zip(g.tolist(), m.tolist(), double.tolist(), p.tolist(), draws.tolist()):
        labels = []
        for efo, (u_label, u_phase, u_extra) in zip((primary[mi], alias.get(mi)), draw[: 1 + d]):
            label = 1 if u_label < pi else (0 if u_label < pi + 0.6 * (1.0 - pi) else None)
            outcome_lines += _trial_rows(genes[gi], efo, label, u_phase, u_extra)
            labels.append(label)
        if d:
            counts["merged_pairs"] += 1
            counts["merge_conflicts"] += int(None not in labels and labels[0] != labels[1])
        final = 1 if 1 in labels else (0 if 0 in labels else None)
        observed[gi, mi] = final is not None
        for label in labels:
            counts[{1: "outcome_labeled_positive", 0: "outcome_labeled_negative",
                    None: "outcome_unlabeled"}[label]] += 1
    n_unmapped = int(unmapped_fraction * g.size)
    for gi, efo, (u_label, u_phase, u_extra) in zip(
        rng.integers(0, n_genes, n_unmapped).tolist(),
        [f"EFO:9{x:06d}" for x in rng.choice(1_000_000, size=n_unmapped, replace=False).tolist()],
        rng.random((n_unmapped, 3)).tolist(),
    ):
        label = 1 if u_label < 0.2 else (0 if u_label < 0.6 else None)
        outcome_lines += _trial_rows(genes[gi], efo, label, u_phase, u_extra)
        counts[{1: "outcome_labeled_positive", 0: "outcome_labeled_negative",
                None: "outcome_unlabeled"}[label]] += 1
    counts["unmapped_dropped"] += n_unmapped
    counts["outcome_pairs"] = int(g.size + double.sum() + n_unmapped)
    counts["outcome_rows"] = len(outcome_lines)
    n_cells += int(observed.sum())

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, lines in (
        ("burden.tsv", "gene_id\tefo_id\tsignificant", burden_lines),
        ("rare.tsv", "gene_id\tefo_id\tconfidence", rare_lines),
        ("gwas.tsv", "gene_id\tefo_id\tl2g_score", gwas_lines),
        ("outcomes.tsv", "gene_id\tefo_id\tphase\tstatus\tstop_reason_class", outcome_lines),
    ):
        order = rng.permutation(len(lines))
        _write_text(out_dir / name, header, [lines[n] for n in order.tolist()])
    xref = [f"{primary[m]}\t{diseases[m]}" for m in range(n_diseases)]
    xref += [f"{efo}\t{diseases[m]}" for m, efo in alias.items()]
    _write_text(out_dir / "xref.tsv", "efo_id\tmesh_id", xref)

    report = {key: int(value) for key, value in counts.items() if value}
    report["dims"] = [n_genes, n_diseases, len(LAYER_NAMES)]
    report["n_entries"] = n_cells
    return Evidence(genes, diseases, truth, observed, report)


def _trial_rows(gene: str, efo: str, label: int | None, u_phase: float, u_extra: float) -> list[str]:
    """One to two trial rows whose labelling-rule outcome is ``label``."""
    phase = int(u_phase * 4)  # 0..3; approvals are phase 4
    if label == 1:
        rows = [(4, "approved", "none")]
        if u_extra < 0.5:
            rows.append((phase, "terminated", "business"))
    elif label == 0:
        rows = [(phase, "terminated", "safety")] if u_extra < 0.5 else [(phase, "completed", "efficacy")]
        if u_extra < 0.25:
            rows.append((max(0, phase - 1), "active", "none"))
    else:
        rows = [(phase, ("active", "completed", "withdrawn")[int(u_extra * 3)], ("none", "business", "other")[int(u_extra * 9) % 3])]
    return [f"{gene}\t{efo}\t{ph}\t{status}\t{reason}" for ph, status, reason in rows]
