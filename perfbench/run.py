"""Benchmark of the ``trialtensor`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload fit-mid --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench/tests        # the benchmark's own tests

It generates the workload's inputs from ``--seed``, then runs the
workload's CLI commands (``python3 -m trialtensor.cli``, one process per
command, no ``--threads`` flag) in passes: always one, and another while it
is expected to end within ``--seconds``. It checks every output, prints the
machine facts and a summary line (every metric by name with its unit, the
pass count and each pass's wall time), and prints one JSON result as the
last line of standard output. It exits 2 without a result when run outside
a checkout holding ``src/trialtensor``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs one untraced pass, then traced passes
through ``perfbench/spans.py``, and reports the per-layer metrics.

Workloads (why each exists):

* ``fit-mid``: ``train`` on 500x400x4, 40k cells, D=32. The per-row
  sampler (Gram, Cholesky, MVN draws) does most of the work; memory-bound
  Gram shape.
* ``fit-wide``: ``train`` on 1200x600x4, 80k cells, D=16, three sweeps.
  Building and writing 720k prediction rows dominates; sampling is a small
  share, so it is the no-change control for sampler work.
* ``eval-small``: ``evaluate`` of four models x four repeats on 30x24x4,
  D=8. Hundreds of tiny sweeps, where per-row Python overhead dominates.
* ``evidence-pipeline``: ~62k generated evidence rows on 400 genes x 200
  diseases through ``ingest``, a three-sweep ``train``, then
  ``phase-analysis``: the only workload that parses evidence, writes a
  tensor and reads predictions back. Interpreter start and imports are
  about half of each command's time.

Every workload is sized so that two to five passes fit in a 30-second
run and ``wall_s`` is their median: on a shared host whose speed swings by
tens of percent, a burst of load then moves one pass, not the result.

End-to-end metrics are the ones every workload has: ``wall_s`` (median
over passes of the pass's summed command wall time), ``setup_s`` (median
over three repeats of one warm-up import plus one input generation) and
``peak_rss_mb`` (median over passes of the largest command RSS).
Per-command times and output quality exist only on some workloads; they
are printed by name on the summary line and reported, with the traced
layers, under ``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import spans

RUN_LIMIT_S = 170.0  # every command is killed past this point of a run
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Command:
    name: str  # the subcommand
    args: list[str]
    outputs: list[Path]
    check: Callable[[], None]  # raises checks.CheckFailed


@dataclass
class Executed:
    name: str
    wall_s: float
    rss_mb: float
    ok: bool
    outputs: list[Path]
    spans_path: Path | None = None
    error: str = ""


@dataclass
class Workload:
    """Inputs, commands and output checks of one workload."""

    work: Path
    seed: int
    quality: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)

    @property
    def inputs(self) -> Path:
        return self.work / "inputs"

    @property
    def out(self) -> Path:
        return self.work / "out"

    def generate(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def _train(self, tensor_dir: Path, targets, indications, truth, observed, latent_dim: int,
               burnin: int, samples: int, thin: int) -> Command:
        model = self.out / "model"

        def check() -> None:
            scores = checks.predictions(model / "predictions.tsv", targets, indications)
            checks.manifest(model / "checkpoint" / "manifest.json", samples, thin)
            self.quality["truth_rmse"] = checks.truth_rmse(scores, truth, observed)
            self.digests.append(_sha256(model / "predictions.tsv"))

        args = ["train", "--tensor", str(tensor_dir), "--out", str(model), "--latent-dim", str(latent_dim),
                "--burnin", str(burnin), "--samples", str(samples), "--thin", str(thin),
                "--seed", str(self.seed)]
        return Command("train", args, [model], check)


class Fit(Workload):
    """``train`` on a generated low-rank tensor."""

    def __init__(self, work, seed, dims, n_cells, latent_dim, burnin, samples, thin):
        super().__init__(work, seed)
        self.dims, self.n_cells = dims, n_cells
        self.schedule = (latent_dim, burnin, samples, thin)

    def generate(self) -> None:
        self.synth = gen.write_synthetic(self.inputs, self.dims, self.n_cells, self.seed)

    def commands(self) -> list[Command]:
        synth = self.synth
        return [self._train(self.inputs, synth.targets, synth.indications, synth.truth, synth.observed,
                            *self.schedule)]


class EvalSmall(Workload):
    MODELS = ["combined", "rare", "burden", "gwas"]
    N_REPEATS = 4

    def generate(self) -> None:
        gen.write_synthetic(self.inputs, (30, 24, 4), 1440, self.seed, noise_sd=0.15)

    def commands(self) -> list[Command]:
        report = self.out / "report.json"

        def check() -> None:
            self.quality["heldout_auroc"] = checks.eval_report(report, self.MODELS, self.N_REPEATS)
            self.digests.append(_sha256(report))

        args = ["evaluate", "--tensor", str(self.inputs), "--out", str(report), "--models", ",".join(self.MODELS),
                "--n-repeats", str(self.N_REPEATS), "--latent-dim", "8", "--alpha", "40",
                "--burnin", "10", "--samples", "20", "--thin", "10", "--seed", str(self.seed)]
        return [Command("evaluate", args, [report], check)]


class EvidencePipeline(Workload):
    def generate(self) -> None:
        self.evidence = gen.write_evidence(self.inputs, 400, 200, self.seed)

    def commands(self) -> list[Command]:
        ev = self.evidence
        ingested, phase = self.out / "ingested", self.out / "phase"
        ingest = Command(
            "ingest",
            ["ingest", "--rare", str(self.inputs / "rare.tsv"), "--burden", str(self.inputs / "burden.tsv"),
             "--gwas", str(self.inputs / "gwas.tsv"), "--outcomes", str(self.inputs / "outcomes.tsv"),
             "--xref", str(self.inputs / "xref.tsv"), "--out", str(ingested)],
            [ingested],
            lambda: checks.ingest_report(ingested / "ingest_report.json", ev.report),
        )
        train = self._train(ingested, ev.genes, ev.diseases, ev.truth, ev.observed, 16, 1, 2, 1)
        phase_cmd = Command(
            "phase-analysis",
            ["phase-analysis", "--predictions", str(self.out / "model" / "predictions.tsv"),
             "--pairs", str(ingested / "pairs.tsv"), "--out", str(phase)],
            [phase],
            lambda: checks.phase_tests(phase / "phase_tests.tsv"),
        )
        return [ingest, train, phase_cmd]


WORKLOADS = {
    "fit-mid": lambda work, seed: Fit(work, seed, (500, 400, 4), 40_000, 32, 10, 10, 5),
    "fit-wide": lambda work, seed: Fit(work, seed, (1200, 600, 4), 80_000, 16, 1, 2, 1),
    "eval-small": EvalSmall,
    "evidence-pipeline": EvidencePipeline,
}


# --------------------------------------------------------------------------
# Running commands.

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_bytes(paths: list[Path]) -> tuple[int, int]:
    files = [p for root in paths for p in ([root] if root.is_file() else root.rglob("*")) if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def process(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run ``argv``; return exit code, wall seconds and peak RSS in MB."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0
        with open(log, "w", encoding="utf-8") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=handle, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no command running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, cmd: Command, traced: bool) -> Executed:
        self._n += 1
        log = self.work / "logs" / f"{self._n:03d}-{cmd.name}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        spans_path = self.work / "logs" / f"{self._n:03d}-{cmd.name}.spans.json" if traced else None
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "trialtensor.cli", *cmd.args]
        code, wall, rss = self.process(argv, log)
        self.attempted += 1
        result = Executed(cmd.name, wall, rss, code == 0, cmd.outputs, spans_path)
        if code != 0:
            result.error = f"exit code {code}: {log.read_text(encoding='utf-8', errors='replace')[-500:]}"
        else:
            try:
                cmd.check()
            except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                result.ok, result.error = False, f"output check: {exc}"
        if not result.ok:
            self.failed += 1
            self.errors.append(f"{cmd.name}: {result.error}")
        return result

    def run_pass(self, workload: Workload, traced: bool) -> list[Executed]:
        shutil.rmtree(workload.out, ignore_errors=True)
        done = []
        for cmd in workload.commands():
            done.append(self.command(cmd, traced))
            if not done[-1].ok:
                break  # later commands read this one's outputs
        return done

    def passes(self, workload: Workload, traced: bool, seconds: float) -> list[list[Executed]]:
        """At least one pass; another only while it is expected to fit in ``seconds``."""
        start = time.monotonic()
        done, durations = [], []
        while True:
            t0 = time.monotonic()
            done.append(self.run_pass(workload, traced))
            durations.append(time.monotonic() - t0)
            if not all(e.ok for e in done[-1]):
                break
            if time.monotonic() - start + statistics.median(durations) > seconds:
                break
        return done


# --------------------------------------------------------------------------
# Metrics.

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list[list[Executed]], setup_s: float) -> dict:
    return {
        "wall_s": {"value": _median(sum(e.wall_s for e in p) for p in passes), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": _median(max(e.rss_mb for e in p) for p in passes), "unit": "MB"},
    }


def command_times(passes: list[list[Executed]]) -> dict[str, float]:
    names = ("train", "evaluate", "ingest", "phase-analysis")
    return {name: _median(e.wall_s for p in passes for e in p if e.name == name) for name in names}


def sweep_cost(attrs: dict) -> tuple[float, float]:
    """Computed flops and bytes of one Gibbs sweep of the per-row sampler.

    Per mode, each observed cell gathers two latent rows and adds its outer
    product and right-hand side (``d + 2d^2 + 2d`` flops; ``2d + 1``
    doubles plus two indices read); each entity solves, factors and
    back-substitutes a ``d x d`` system (``d^3 + 6d^2`` flops; the
    precision written and read, ``2d^2`` doubles). Cache effects are not
    modelled, so these are shape-derived counts, not measurements.
    """
    nnz, dims, d = attrs["nnz"], attrs["dims"], attrs["d"]
    flops = sum(nnz * (d + 2 * d * d + 2 * d) + n * (d ** 3 + 6 * d * d) for n in dims)
    moved = sum(nnz * ((2 * d + 1) * 8 + 2 * 8) + n * 2 * d * d * 8 for n in dims)
    return float(flops), float(moved)


def layer_metrics(executed: list[Executed]) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer values of one traced pass, the absent targets and the self-time errors."""
    tot: dict[str, dict] = {}
    absent: set[str] = set()
    errors = []
    rows_parsed = 0
    flops = moved = cells = 0.0
    files = n_bytes = 0
    for e in executed:
        span_list, missing = spans.load_spans(e.spans_path)
        absent.update(missing)
        roots = [s for s in span_list if s.parent == -1]
        own = spans.self_times(span_list)
        root_s = sum(s.duration for s in roots)
        if abs(sum(own.values()) - root_s) > 1e-6 * max(1.0, root_s) or root_s > e.wall_s:
            errors.append(f"{e.name}: self times sum to {sum(own.values())} against traced wall {root_s}")
        for name, entry in spans.layer_totals(span_list).items():
            acc = tot.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for s in span_list:
            if s.name == "sampler.gibbs_step" and s.attrs:
                f, b = sweep_cost(s.attrs)
                flops, moved = flops + f, moved + b
            elif s.name == "sampler.predict_cells" and s.attrs:
                cells += s.attrs["n"]
            elif s.name == "ingest.parse" and s.attrs:
                with open(s.attrs["path"], "rb") as handle:
                    rows_parsed += sum(1 for _ in handle) - 1
        f, b = _tree_bytes(e.outputs)
        files, n_bytes = files + f, n_bytes + b

    def get(name: str, key: str) -> float:
        return float(tot.get(name, {}).get(key, 0.0))

    sweeps = get("sampler.gibbs_step", "calls")
    values = {
        "sampler.sweep_ms": 1000.0 * get("sampler.gibbs_step", "total_s") / sweeps if sweeps else 0.0,
        "sampler.sweeps": sweeps,
        "sampler.latents_self_s": get("sampler.sample_mode_latents", "self_s"),
        "sampler.row_posterior_s": get("sampler.row_posterior", "total_s"),
        "sampler.row_posterior_calls": get("sampler.row_posterior", "calls"),
        "sampler.mvn_s": get("sampler.sample_mvn", "total_s"),
        "sampler.mvn_calls": get("sampler.sample_mvn", "calls"),
        "rng.stream_s": get("rng.stream", "total_s"),
        "rng.streams": get("rng.stream", "calls"),
        "sampler.hyper_s": get("sampler.sample_mode_hyperparams", "total_s"),
        "sampler.run_self_s": get("sampler.run", "self_s"),
        "sampler.predict_s": get("sampler.predict_cells", "total_s"),
        "sampler.cells_predicted": cells,
        "sampler.checkpoint_s": get("sampler.save_checkpoint", "total_s"),
        "io.write_tsv_s": get("io.write_tsv", "total_s"),
        "io.write_json_s": get("io.write_json", "total_s"),
        "io.bytes_written": float(n_bytes),
        "io.files_written": float(files),
        "tensor.load_s": get("tensor.load_tensor", "total_s"),
        "tensor.save_s": get("tensor.save_tensor", "total_s"),
        "tensor.split_s": get("tensor.split_cells", "total_s"),
        "tensor.without_cells_s": get("tensor.without_cells", "total_s"),
        "tensor.select_layers_s": get("tensor.select_layers", "total_s"),
        "metrics.auroc_s": get("metrics.auroc", "total_s"),
        "metrics.repeated_eval_self_s": get("metrics.repeated_eval", "self_s"),
        "metrics.phase_analysis_s": get("metrics.phase_analysis", "total_s"),
        "metrics.mwu_s": get("metrics.mann_whitney_u", "total_s"),
        "metrics.mwu_calls": get("metrics.mann_whitney_u", "calls"),
        "ingest.parse_s": get("ingest.parse", "total_s"),
        "ingest.rows_parsed": float(rows_parsed),
        "ingest.label_s": get("ingest.label", "total_s"),
        "ingest.map_s": get("ingest.map", "total_s"),
        "ingest.build_s": get("ingest.build", "total_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "sampler.flops_computed": flops,
        "io.bytes_computed": moved,
    }
    return values, sorted(absent), errors


UNITS = {"_ms": "ms", "_s": "s", "_pct": "%", "bytes_written": "B", "bytes_computed": "B",
         "flops_computed": "flop", "truth_rmse": "score", "heldout_auroc": "score", "ops_failed": "ratio"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


# --------------------------------------------------------------------------
# Machine facts, digests and the run itself.

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "trialtensor").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_digests(store: Path, key: str, digests: list[str]) -> str | None:
    """Same-seed outputs must be byte-identical, within this run and across runs of one source tree."""
    if len(set(digests)) > 1:
        return f"same-seed passes wrote different outputs: {sorted(set(digests))}"
    if not digests:
        return None
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if known.get(key, digests[0]) != digests[0]:
        return f"output differs from an earlier run with the same seed and source ({key})"
    known[key] = digests[0]
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return None


def setup(workload: Workload, runner: Runner) -> tuple[float, str | None]:
    """Warm-up import plus input generation, repeated; the median of the repeats."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        code, warm, _ = runner.process([sys.executable, "-c", "import trialtensor.cli"],
                                       runner.work / "warmup.log")
        if code != 0:
            return warm, f"warm-up import failed with exit code {code}"
        t0 = time.perf_counter()
        workload.generate()
        times.append(warm + time.perf_counter() - t0)
        digests.add(hashlib.sha256(b"".join(
            p.name.encode() + p.read_bytes() for p in sorted(workload.inputs.iterdir()))).hexdigest())
    error = None if len(digests) == 1 else "input generator is not deterministic"
    return statistics.median(times), error


def traced_metrics(workload: Workload, runner: Runner, untraced: list[list[Executed]],
                   seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes, next to the untraced pass already run."""
    traced = runner.passes(workload, True, seconds)
    per_pass = [layer_metrics(p) for p in traced if all(e.ok for e in p)]
    if not per_pass:
        return {}, ["no traced pass completed"]
    values = {key: _median(v[0][key] for v in per_pass) for key in per_pass[0][0]}
    problems = [err for v in per_pass for err in v[2]]
    absent = sorted({name for v in per_pass for name in v[1]})
    if absent:
        print(f"# absent trace targets (reported as 0): {', '.join(absent)}")
    imports = [runner.process([sys.executable, "-c", "import trialtensor"], runner.work / "import.log")
               for _ in range(IMPORT_REPEATS)]
    problems += [f"import exit code {code}" for code, _, _ in imports if code != 0]
    values["cli.import_s"] = _median(wall for _, wall, _ in imports)
    traced_wall = _median(sum(e.wall_s for e in p) for p in traced)
    untraced_wall = _median(sum(e.wall_s for e in p) for p in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    for name, value in command_times(untraced).items():
        values[f"cli.{name.split('-')[0]}_s"] = value
    values["sampler.truth_rmse"] = workload.quality.get("truth_rmse", 0.0)
    values["metrics.heldout_auroc"] = workload.quality.get("heldout_auroc", 0.0)
    values["cli.ops_failed"] = runner.failed / runner.attempted
    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(values.items())}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below on termination

    root = Path.cwd()
    if not (root / "src" / "trialtensor" / "cli.py").is_file():
        print(f"error: no trialtensor sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    state = root / ".perfbench"
    work = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload](work, args.seed)
    problems = []
    try:
        setup_s, error = setup(workload, runner)
        problems += [error] if error else []
        metrics: dict = {}
        untraced = runner.passes(workload, False, 0.0 if args.trace else args.seconds) if not error else []
        if args.trace and untraced:
            metrics, trace_problems = traced_metrics(workload, runner, untraced, args.seconds)
            problems += trace_problems
        elif untraced:
            metrics = end_to_end(untraced, setup_s)
        error = check_digests(state / "digests.json", f"{args.workload}:{args.seed}:{source_digest(root)}",
                              workload.digests)
        problems += [error] if error else []
        problems += runner.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and runner.failed == 0 and runner.attempted > 0
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    summary = {f"{name.split('-')[0]}_s": t for name, t in command_times(untraced).items() if t}
    summary.update(workload.quality)
    items = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items() if not args.trace]
    items += [f"{k}={v:.6g} {_unit(k)}" for k, v in summary.items()]
    items += [f"ops_failed={runner.failed}/{runner.attempted}",
              "pass_walls_s=" + ",".join(f"{sum(e.wall_s for e in p):.3f}" for p in untraced)]
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)}: " + ", ".join(items))
    for problem in problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": max(1, runner.attempted), "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
