"""Tensor completion of clinical-outcome labels from genetics evidence.

A sparse (targets x indications x evidence layers) tensor holds clinical
outcome labels alongside rare-disease, gene-burden and GWAS evidence; a
Gibbs-sampled Bayesian factorization imputes success scores for unlabeled
target-indication pairs, and the evaluation layer reports AUROC/F1 over
repeated stratified splits plus phase-stratified rank tests. Modules pass
plain data: each mode's identifiers as a tuple of strings in index order,
ingest counts as a ``collections.Counter`` and reports as their JSON dicts.
The package root exports the documented API; everything else is imported
from its submodule.
"""

from .errors import DataError, NumericalError, TrialTensorError
from .ingest import build_tensor
from .metrics import phase_analysis, repeated_eval, summarize
from .sampler import SamplerSchedule, load_checkpoint, predict_slice, run
from .tensor import SparseTensor, load_tensor, save_tensor, select_layers

__all__ = [
    "DataError",
    "NumericalError",
    "TrialTensorError",
    "SamplerSchedule",
    "SparseTensor",
    "build_tensor",
    "load_checkpoint",
    "load_tensor",
    "phase_analysis",
    "predict_slice",
    "repeated_eval",
    "run",
    "save_tensor",
    "select_layers",
    "summarize",
]

__version__ = "0.1.0"
