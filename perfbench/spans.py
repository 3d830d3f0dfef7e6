"""Outside-in call tracer for the ``trialtensor`` command line.

Run as a script in place of ``python -m trialtensor.cli``::

    python3 perfbench/spans.py SPANS.json -- train --tensor DIR --out DIR ...

It imports the package, replaces each traced function with a timing
wrapper *where its caller looks it up* (``cli.run`` and ``metrics.run`` are
the sampler's ``run`` as the CLI and ``repeated_eval`` see it), calls
``cli.main`` and writes every span to ``SPANS.json`` when the command ends.
Spans stay in memory until then. A target that no longer exists is listed
under ``absent`` instead of failing the command, so the benchmark keeps
working when a later change deletes or renames a function.

The module also holds the arithmetic the benchmark applies to the spans:
self time and per-layer sums.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gibbs_attrs(args, kwargs) -> dict:
    state, tensor = args[0], args[1]
    return {"nnz": tensor.n_entries, "dims": list(tensor.dims), "d": state.n_latent}


def _predict_attrs(args, kwargs) -> dict:
    return {"n": len(args[1])}


def _path_attrs(args, kwargs) -> dict:
    return {"path": str(args[0] if args else kwargs["path"])}


# (module, attribute path, span name, attribute extractor). Each entry is
# the binding a caller resolves at call time.
TARGETS = (
    ("trialtensor.cli", "run", "sampler.run", None),
    ("trialtensor.metrics", "run", "sampler.run", None),
    ("trialtensor.cli", "save_checkpoint", "sampler.save_checkpoint", None),
    ("trialtensor.sampler", "gibbs_step", "sampler.gibbs_step", _gibbs_attrs),
    ("trialtensor.sampler", "sample_mode_hyperparams", "sampler.sample_mode_hyperparams", None),
    ("trialtensor.sampler", "sample_mode_latents", "sampler.sample_mode_latents", None),
    ("trialtensor.sampler", "row_posterior", "sampler.row_posterior", None),
    ("trialtensor.sampler", "sample_mvn", "sampler.sample_mvn", None),
    ("trialtensor.sampler", "predict_cells", "sampler.predict_cells", _predict_attrs),
    ("trialtensor.rng", "StreamTree.stream", "rng.stream", None),
    ("trialtensor.cli", "write_tsv", "io.write_tsv", None),
    ("trialtensor.cli", "write_json", "io.write_json", None),
    ("trialtensor.cli", "load_tensor", "tensor.load_tensor", None),
    ("trialtensor.cli", "save_tensor", "tensor.save_tensor", None),
    ("trialtensor.cli", "select_layers", "tensor.select_layers", None),
    ("trialtensor.metrics", "select_layers", "tensor.select_layers", None),
    ("trialtensor.metrics", "split_cells", "tensor.split_cells", None),
    ("trialtensor.tensor", "SparseTensor.without_cells", "tensor.without_cells", None),
    ("trialtensor.cli", "repeated_eval", "metrics.repeated_eval", None),
    ("trialtensor.metrics", "auroc", "metrics.auroc", None),
    ("trialtensor.cli", "phase_analysis", "metrics.phase_analysis", None),
    ("trialtensor.metrics", "mann_whitney_u", "metrics.mann_whitney_u", None),
    ("trialtensor.ingest", "load_xref", "ingest.parse", _path_attrs),
    ("trialtensor.ingest", "parse_rare_disease", "ingest.parse", _path_attrs),
    ("trialtensor.ingest", "parse_gene_burden", "ingest.parse", _path_attrs),
    ("trialtensor.ingest", "parse_gwas_l2g", "ingest.parse", _path_attrs),
    ("trialtensor.ingest", "parse_outcomes", "ingest.parse", _path_attrs),
    ("trialtensor.ingest", "label_outcomes", "ingest.label", None),
    ("trialtensor.ingest", "map_ontology", "ingest.map", None),
    ("trialtensor.ingest", "build_tensor", "ingest.build", None),
)


class Tracer:
    """Records nested spans; each thread keeps its own stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, start: float | None = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else -1, name,
                    self.clock() if start is None else start)
        self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if attrs is not None:
                    try:
                        span.attrs = attrs(args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # the traced signature changed; keep the timing
        return traced

    def patch(self, module: str, path: str, name: str, attrs=None) -> bool:
        """Wrap ``module.path`` in place; record it as absent if it is gone."""
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{path}")
            return False
        setattr(owner, attr, self.wrap(fn, name, attrs))
        return True

    def dump(self, path: str, **extra) -> None:
        payload = {
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans],
            "absent": self.absent,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def load_spans(path) -> tuple[list[Span], list[str]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return [Span(*row) for row in payload["spans"]], payload["absent"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own[span.id]
    return dict(totals)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer()
    root = tracer.open("process", start=_T0)
    span = tracer.open("cli.import")
    cli = importlib.import_module("trialtensor.cli")
    tracer.close(span)
    for module, path, name, attrs in TARGETS:
        tracer.patch(module, path, name, attrs)
    span = tracer.open("cli.main")
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.close(span)
        tracer.close(root)
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
