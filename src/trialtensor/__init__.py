"""Tensor completion of clinical-outcome labels from genetics evidence.

A sparse (targets x indications x evidence layers) tensor holds clinical
outcome labels alongside rare-disease, gene-burden and GWAS evidence; a
Gibbs-sampled Bayesian factorization imputes success scores for unlabeled
target-indication pairs, and the evaluation layer reports AUROC/F1 over
repeated stratified splits plus phase-stratified rank tests. Modules pass
plain data: each mode's identifiers as a tuple of strings in index order,
ingest counts as a ``collections.Counter`` and reports as their JSON dicts.
"""

from .errors import DataError, NumericalError, TrialTensorError
from .ingest import (
    LAYER_ORDER,
    STOP_REASONS,
    UNLABELED,
    build_tensor,
    label_outcomes,
    load_xref,
    map_ontology,
    parse_gene_burden,
    parse_gwas_l2g,
    parse_outcomes,
    parse_rare_disease,
)
from .metrics import (
    auroc,
    class_imbalance,
    f1,
    mann_whitney_u,
    phase_analysis,
    repeated_eval,
    summarize,
)
from .sampler import (
    ModelState,
    SamplerSchedule,
    gibbs_step,
    init_chains,
    load_checkpoint,
    predict_slice,
    run,
    sample_mode_hyperparams,
    sample_mode_latents,
    save_checkpoint,
)
from .simulate import SynthConfig, generate, synthetic_modes
from .tensor import (
    SparseTensor,
    block_union,
    load_tensor,
    save_tensor,
    select_layers,
    split_cells,
)

__version__ = "0.1.0"
