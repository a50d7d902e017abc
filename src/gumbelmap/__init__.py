"""Perturb-and-MAP inference and learning for discrete pairwise models.

Log-partition functions and marginals are estimated by solving MAP
problems under Gumbel perturbations; weights are trained by double
stochastic gradient descent under whole-labeling, Hamming, and weighted
Hamming objectives, with full, partial, or missing supervision.  Binary
supermodular models solve by min-cut with dynamic re-solves; chains solve
exactly by dynamic programming.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DatasetError,
    DegenerateInstanceError,
    GumbelMapError,
    InternalInvariantError,
    PreconditionError,
    StructuralError,
)
from .model import (
    CompiledPotentials,
    FeatureInstance,
    LossSpec,
    PairwiseModel,
    WeightLayout,
    WeightVector,
    chain_model,
    compile_potentials,
    evaluate_potential,
    feature_map,
    grid_model,
    loss,
    loss_weights,
    project_supermodular,
    volume_weights,
    zero_weights,
)
from .exact import (
    ExactInferenceResult,
    brute_force,
    forward_backward_marginals,
    forward_log_partition,
    viterbi_map,
)
from .cuts import DynamicCutState, build_cut_problem, clamp_variables
from .gumbel import (
    EstimatorConfig,
    conditional_counting_marginals,
    counting_marginals,
    estimate_A,
    perturbed_map,
    sample_noise,
)
from .training import (
    TrainConfig,
    TrainCounters,
    TrainReport,
    predict,
    sgd_loglik_step,
    sgd_marginal_step,
    sgd_unsup_step,
    train,
    train_semisupervised,
)
from .datasets import read_dataset, read_weights, write_dataset, write_weights
from .synth import gen_chain_dataset, gen_grid_dataset
