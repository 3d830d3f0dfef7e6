"""Rank statistics, repeated-split evaluation and phase-stratified tests.

AUROC uses the midrank formula, which equals the probability that a random
positive outscores a random negative with ties counted half. The
Mann-Whitney test counts the exact permutation null for pooled sizes up to
60 and otherwise uses the tie-corrected, continuity-corrected normal
approximation. :func:`repeated_eval` returns per-chain metric
arrays and :func:`phase_analysis` takes per-pair arrays; :func:`summarize`
and :func:`phase_analysis` return the plain dicts that the CLI writes as JSON.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import MAX_PHASE
from .io import check
from .sampler import SamplerSchedule, predict_slice, run
from .tensor import SparseTensor, select_layers, split_cells

# Pooled size at or below which the exact permutation null is counted. At 60
# the largest count, C(60, 30) ~ 1.2e17, is still exact in int64.
EXACT_MAX_TOTAL = 60
# Gram doubles (entities x D x D, summed over chains) that the largest mode
# of one lock-step batch of ``repeated_eval`` may hold: 2 MiB, so 256
# entities at D = 32 or 4096 at D = 8. The Cholesky factors take as much again.
_BATCH_GRAM_DOUBLES = 2**18


def _as_binary_labels(labels: Sequence[float]) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.size == 0:
        raise DataError("empty labels")
    return arr.astype(bool) if arr.dtype == bool else arr.astype(float) >= 0.5


def _finite_scores(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DataError("non-finite score in rank statistic")
    return arr


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each group of tied values gets the mean of its rank range."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Area under the ROC curve via midranks.

    ``(sum of positive ranks - n_pos*(n_pos+1)/2) / (n_pos * n_neg)``;
    tied scores receive the mean of their rank range. Non-finite scores
    are a :class:`DataError`.
    """
    scores = _finite_scores(scores)
    positive = _as_binary_labels(labels)
    if scores.shape[0] != positive.shape[0]:
        raise DataError("scores and labels differ in length")
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("degenerate labels: need at least one positive and one negative")
    ranks = _midranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1(scores: Sequence[float], labels: Sequence[float], threshold: float = 0.5) -> float:
    """F1 at a hard threshold; defined as 0 whenever there are no true positives.

    Returning 0 instead of NaN keeps reports stable under extreme class
    imbalance, where a split can end up with no predicted or no actual
    positives. Non-finite scores are a :class:`DataError`.
    """
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
    scores = _finite_scores(scores)
    positive = _as_binary_labels(labels)
    if scores.shape[0] != positive.shape[0]:
        raise DataError("scores and labels differ in length")
    predicted = scores >= threshold
    tp = int(np.sum(predicted & positive))
    if tp == 0:
        return 0.0
    fp = int(np.sum(predicted & ~positive))
    fn = int(np.sum(~predicted & positive))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def class_imbalance(labels: Sequence[float]) -> float:
    """Proportion of positive labels out of total labels."""
    positive = _as_binary_labels(labels)
    return float(positive.mean())


def mann_whitney_u(
    group_a: Sequence[float], group_b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided Mann-Whitney-Wilcoxon test, returning (U of group A, p).

    The p-value is exact, counted over every label arrangement of the
    midranks, when the pooled size is at most ``EXACT_MAX_TOTAL`` (60), and
    otherwise comes from the normal approximation with tie-corrected
    variance and a continuity correction of one half. Non-finite scores are
    a :class:`DataError`.
    """
    a = _finite_scores(group_a)
    b = _finite_scores(group_b)
    if a.size == 0 or b.size == 0:
        raise DataError("empty group in rank test")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    n_a, n_b = int(a.size), int(b.size)
    u_a = float(ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0)
    if n_a + n_b <= EXACT_MAX_TOTAL:
        p = _exact_two_sided_p(ranks, n_a)
    else:
        p = _normal_two_sided_p(u_a, n_a, n_b, pooled)
    return u_a, p


def _exact_two_sided_p(ranks: np.ndarray, n_a: int) -> float:
    """Share of the label arrangements whose |U - mean| is at least the observed one.

    Doubled midranks are integers, so the null is counted exactly (Mann &
    Whitney 1947): one shift-add per rank makes ``counts[j, s]`` the number
    of j-subsets of the ranks with doubled sum ``s``. The smaller group's
    k-subsets suffice, since swapping the groups leaves |U - mean| unchanged;
    U's distance from its mean is half the doubled sum's distance from
    ``k(n + 1)``.
    """
    doubled = (2.0 * ranks).astype(np.int64)
    n = doubled.size
    k = min(n_a, n - n_a)
    observed = abs(int(doubled[:n_a].sum()) - n_a * (n + 1))
    counts = np.zeros((k + 1, int(doubled.sum()) + 1), dtype=np.int64)
    counts[0, 0] = 1
    for rank in doubled.tolist():  # numpy buffers the overlapping operands: each j-subset gains the rank once
        counts[1:, rank:] += counts[:-1, :-rank]
    distance = np.abs(np.arange(counts.shape[1]) - k * (n + 1))
    return int(counts[k, distance >= observed].sum()) / math.comb(n, k)


def _normal_two_sided_p(u: float, n_a: int, n_b: int, pooled: np.ndarray) -> float:
    """Tie-corrected normal approximation with continuity correction."""
    n = n_a + n_b
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3 - counts).sum()) / (n * (n - 1)))
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if variance <= 0.0:  # all pooled values identical
        return 1.0
    z = (abs(u - n_a * n_b / 2.0) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def bonferroni(p_value: float, m: int) -> float:
    """Multiply a p-value by the comparison count ``m``, capping at 1."""
    if m < 1:
        raise DataError("comparison count must be at least 1")
    return min(1.0, float(m) * float(p_value))


# --------------------------------------------------------------------------
# Repeated-split model evaluation.

def repeated_eval(
    tensor: SparseTensor,
    models: Sequence[Sequence[int]],
    seeds: Sequence[int],
    n_latent: int,
    alpha: float,
    schedule: SamplerSchedule,
    heldout_fraction: float,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split, train, score the held-out cells, once per (model, seed).

    ``models[m]`` lists the tensor layers it keeps; layer 0, the outcome
    slice, must come first. For each model and seed, hold out
    ``heldout_fraction`` of the outcome-layer cells (stratified by label,
    :func:`~trialtensor.tensor.split_cells`), train on the model tensor
    without those entry rows, score the held-out cells and compute AUROC
    and F1 at ``threshold`` against their observed labels. Both the split
    and the sampler derive from the seed, so identical seeds reproduce
    identical metrics. Returns the AUROCs and the F1s, each of shape
    ``(len(models), len(seeds))``; :func:`summarize` turns them into the
    report.

    The (model, seed) chains are sampled in lock-step batches
    (:func:`~trialtensor.sampler.run`), consecutive chains joining a batch
    while the union's largest mode holds at most ``_BATCH_GRAM_DOUBLES``
    Gram doubles. Each chain draws from its own streams, so every metric is
    the same whatever the batches.
    """
    if len(seeds) < 2:
        raise DataError(f"need at least 2 seeds, got {len(seeds)}")
    if not models:
        raise DataError("no model to evaluate")
    model_tensors = []
    for layers in models:
        if layers is None or len(layers) == 0 or layers[0] != 0:
            raise DataError(f"layer selection {layers} must start with the outcome layer 0")
        model_tensors.append(select_layers(tensor, layers))
    # One chain per (model, seed), model-major.
    chains = [(model, int(seed)) for model in range(len(models)) for seed in seeds]
    aurocs, f1s = np.empty(len(chains)), np.empty(len(chains))
    for batch in _batches([model_tensors[model].dims for model, _ in chains], n_latent):
        fulls = [model_tensors[chains[i][0]] for i in batch]
        held = [split_cells(full, 0, heldout_fraction, chains[i][1]) for full, i in zip(fulls, batch)]
        # A generator keeps no tensor it has yielded, so the count runs that run builds are the only copy of the cells.
        chain_samples = run((
            SparseTensor(full.dims, np.delete(full.coords, rows, axis=0), np.delete(full.values, rows))
            for full, rows in zip(fulls, held)
        ), n_latent, [chains[i][1] for i in batch], alpha, schedule)
        for index, samples, full, rows in zip(batch, chain_samples, fulls, held):
            scores = predict_slice(samples, 0)[full.coords[rows, 0], full.coords[rows, 1]]  # layer-0 cells only
            aurocs[index] = auroc(scores, full.values[rows])
            f1s[index] = f1(scores, full.values[rows], threshold)
    return aurocs.reshape(len(models), len(seeds)), f1s.reshape(len(models), len(seeds))


def summarize(
    names: Sequence[str], aurocs: np.ndarray, f1s: np.ndarray, imbalance: float, threshold: float
) -> list[dict]:
    """The report of :func:`repeated_eval`'s ``(model, seed)`` metrics: one dict per model, as
    ``evaluate`` writes it under ``"models"``.

    Each holds ``model_name``, ``auroc`` and ``f1`` (each the ``mean`` and
    the sample standard deviation ``sd`` over the seeds), ``imbalance`` (the
    outcome layer's positive share, the same for every model, since each
    keeps layer 0), ``n_repeats`` and ``threshold``. Names and metric rows
    of unequal counts are a :class:`DataError`.
    """
    if not len(names) == len(aurocs) == len(f1s):
        raise DataError(f"{len(names)} model names for {len(aurocs)} AUROC rows and {len(f1s)} F1 rows")
    return [
        {
            "model_name": name,
            "auroc": {"mean": float(np.mean(model_aurocs)), "sd": float(np.std(model_aurocs, ddof=1))},
            "f1": {"mean": float(np.mean(model_f1s)), "sd": float(np.std(model_f1s, ddof=1))},
            "imbalance": imbalance,
            "n_repeats": len(model_aurocs),
            "threshold": threshold,
        }
        for name, model_aurocs, model_f1s in zip(names, aurocs, f1s)
    ]


def _batches(chain_dims: Sequence[Sequence[int]], n_latent: int) -> list[list[int]]:
    """Indices of consecutive chains, grouped while their union's largest mode
    holds at most ``_BATCH_GRAM_DOUBLES`` Gram doubles; a chain over the
    budget is a batch of its own."""
    batches: list[list[int]] = []
    for index, dims in enumerate(chain_dims):
        if batches:
            grown = [total + dim for total, dim in zip(totals, dims)]
            if max(grown) * n_latent * n_latent <= _BATCH_GRAM_DOUBLES:
                batches[-1].append(index)
                totals = grown
                continue
        batches.append([index])
        totals = list(dims)
    return batches


# --------------------------------------------------------------------------
# Phase-stratified significance analysis.


def phase_analysis(scores: np.ndarray, phases: np.ndarray) -> dict:
    """Group pair scores by max clinical phase and test all phase pairs.

    ``scores[p]`` is pair ``p``'s score, ``nan`` where it has none, and
    ``phases[p]`` its max phase, 0 (preclinical) through 4. Groups with
    fewer than two scores are excluded from testing and reported;
    Bonferroni correction uses the number of tests actually performed.
    Returns the ``phase_analysis.json`` payload: per-phase ``groups`` (in
    pair order) and ``group_sizes`` (keyed by the phase as a string), the
    ``tests`` in ascending phase order, ``n_comparisons``,
    ``excluded_phases`` and ``unmatched_pairs``. Scores and phases of
    unequal lengths are a :class:`DataError`.
    """
    scores, phases = np.asarray(scores, dtype=np.float64), np.asarray(phases)
    if scores.shape != phases.shape:
        raise DataError(f"{scores.size} scores for {phases.size} phases")
    scored = ~np.isnan(scores)
    check(None, None, ~scored | ((phases >= 0) & (phases <= MAX_PHASE)),
          lambda p: f"max_phase {phases[p]} outside 0..{MAX_PHASE}")
    groups = {phase: scores[scored & (phases == phase)].tolist() for phase in range(MAX_PHASE + 1)}
    excluded = [phase for phase, group in groups.items() if len(group) < 2]
    tested = [phase for phase in groups if phase not in excluded]
    combos = list(itertools.combinations(tested, 2))
    tests = []
    for phase_a, phase_b in combos:
        u, p_value = mann_whitney_u(groups[phase_a], groups[phase_b])
        tests.append({
            "phase_a": phase_a,
            "phase_b": phase_b,
            "u": u,
            "p_raw": p_value,
            "p_corrected": bonferroni(p_value, len(combos)),
        })
    return {
        "groups": {str(phase): group for phase, group in groups.items()},
        "group_sizes": {str(phase): len(group) for phase, group in groups.items()},
        "tests": tests,
        "n_comparisons": len(tests),
        "excluded_phases": excluded,
        "unmatched_pairs": int(np.count_nonzero(~scored)),
    }
