"""Output checks. Each raises :class:`CheckFailed` with a reason on a bad file.

They read the files the CLI wrote and compare them with what the benchmark
knows from generating the inputs; none of them imports ``trialtensor``.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

PREDICTION_HEADER = ["target_id", "indication_id", "layer", "score"]


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def predictions(path: Path, targets: list[str], indications: list[str]) -> np.ndarray:
    """Check ``predictions.tsv`` covers the outcome slice; return its scores.

    Rows must come in target-major order with identifiers from the tensor
    metadata, one per (target, indication) pair, with finite scores in
    [0, 1]. Returns the scores as a ``(targets, indications)`` array.
    """
    n_cols = len(indications)
    scores = np.empty((len(targets), n_cols))
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split("\t")
        _expect(header == PREDICTION_HEADER, f"{path.name}: header {header}")
        for i, target in enumerate(targets):  # one target's rows at a time bounds memory
            block = [line.rstrip("\n").split("\t") for line in itertools.islice(handle, n_cols)]
            _expect(len(block) == n_cols, f"{path.name}: {i * n_cols + len(block)} rows, expected "
                    f"{len(targets) * n_cols}")
            _expect(all(len(row) == 4 for row in block), f"{path.name}: row without 4 fields near target {target}")
            ids, inds, layers, values = zip(*block)
            _expect(ids == (target,) * n_cols, f"{path.name}: target ids near {target}")
            _expect(list(inds) == indications, f"{path.name}: indication ids for {target}")
            _expect(layers == ("outcome",) * n_cols, f"{path.name}: layer column for {target}")
            try:
                scores[i] = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise CheckFailed(f"{path.name}: non-numeric score for {target} ({exc})") from exc
        _expect(handle.read() == "", f"{path.name}: rows beyond {len(targets) * n_cols}")
    _expect(bool(np.isfinite(scores).all()), f"{path.name}: non-finite score")
    _expect(bool(((scores >= 0.0) & (scores <= 1.0)).all()), f"{path.name}: score outside [0, 1]")
    return scores


def manifest(path: Path, samples: int, thin: int) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    _expect(data.get("retained") == samples // thin,
            f"{path.name}: retained {data.get('retained')} != {samples} // {thin}")


def eval_report(path: Path, models: list[str], n_repeats: int) -> float:
    """Check the ``evaluate`` report; return the first model's mean AUROC."""
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("models", [])
    _expect([m.get("model_name") for m in entries] == models, f"{path.name}: models {entries!r:.200}")
    _expect(data.get("n_repeats") == n_repeats and all(m.get("n_repeats") == n_repeats for m in entries),
            f"{path.name}: n_repeats is not {n_repeats}")
    aurocs = [m["auroc"]["mean"] for m in entries]
    _expect(all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in aurocs), f"{path.name}: AUROC {aurocs}")
    return aurocs[0]


def phase_tests(path: Path) -> None:
    """Every row's ``p_corrected`` must equal ``min(1, m * p_raw)``, m = row count."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _expect(lines[:1] == ["phase_a\tphase_b\tu\tp_raw\tp_corrected"], f"{path.name}: header")
    rows = [line.split("\t") for line in lines[1:]]
    _expect(len(rows) > 0 and all(len(r) == 5 for r in rows), f"{path.name}: malformed rows")
    m = len(rows)
    for row in rows:
        p_raw, p_corrected = float(row[3]), float(row[4])
        _expect(0.0 <= p_raw <= 1.0 and p_corrected == min(1.0, m * p_raw),
                f"{path.name}: row {row} is not Bonferroni over {m} tests")


def ingest_report(path: Path, expected: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    wrong = {key: (data.get(key, 0), expected.get(key, 0))
             for key in set(data) | set(expected) if data.get(key, 0) != expected.get(key, 0)}
    _expect(not wrong, f"{path.name}: (reported, expected) differ: {wrong}")


def truth_rmse(scores: np.ndarray, truth: np.ndarray, observed: np.ndarray) -> float:
    """RMSE of outcome scores against the generator's truth over unobserved cells."""
    error = (scores - truth)[~observed]
    _expect(error.size > 0, "no unobserved outcome cells")
    return math.sqrt(float(np.mean(error * error)))
