"""Structured channel pruning via variational Dirichlet importance switches.

The package is self-contained on numpy: a reverse-mode autodiff tensor
engine, the special functions and Gamma/Dirichlet sampling machinery with
implicit reparameterization gradients, switch posteriors trained by
variational inference, desk-scale conv/dense models, channel rankers and
physical pruning, and a batch CLI harness.
"""

from .dirichlet import (dirichlet_kl, dirichlet_log_pdf_batch, dirichlet_marginal_std,
                        dirichlet_sample_batch)
from .errors import (ConfigError, ContractError, DomainError, FormatError,
                     NumericError, PipelineError, ShapeError)
from .models import (ModelGraph, TrainSchedule, build_lenet5, build_mlp,
                     count_flops, count_params, evaluate, forward, load_model,
                     save_model, train_model)
from .pipeline import (export_feature_maps, run_pipeline, run_posterior_compare)
from .pruning import (PruningPlan, RankingReport, apply_plan, finetune,
                      make_plan, rank_derivative, rank_dirichlet, rank_magnitude,
                      rank_random)
from .special import (digamma_batch, gamma_implicit_grad_batch,
                      gamma_regularized_P_batch, gamma_sample_batch, lgamma_batch,
                      trigamma_batch)
from .switch import (AnalyticMean, ImplicitMC, SwitchState, SwitchTrainSchedule,
                     init_switch_states, neg_elbo_and_grads, posterior_report,
                     train_switches)
from .synthetic import SyntheticTask, gen_synthetic, task_model
from .tensor import Tape, Tensor, backward, conv2d

__version__ = "0.1.0"
