"""GP-compensated robust feedback linearization for a planar two-link arm."""

from .config import ExperimentConfig, load_config, save_config
from .control import (ControllerSpec, GainSpec, control, design_lyapunov,
                      gp_query_acceleration)
from .dynamics import (ManipulatorModel, NotPositiveDefiniteError, RunTrace,
                       ScaledIdentityNominal, SimulationAborted,
                       TrueModelNominal, coriolis, forward_dynamics, gravity,
                       inertia, inverse_dynamics, simulate, tick_times,
                       total_energy)
from .gpr import (GpDataset, GpModel, IllConditionedDatasetError, SeKernelParams,
                  beta_from_lemma, fit, load_dataset_csv, load_model_txt,
                  max_information_gain, mismatch_target, model_from_params,
                  predict, save_dataset_csv, save_model_txt, se_kernel)
from .harness import (RunResult, RunSummary, compute_rmse, run_experiment,
                      run_tracking, train_gp, validate)
from .trajectory import (ReferenceTrajectory, SinusoidSpec, build_training_set,
                         evaluate, sample_reference, sample_spec)

__version__ = "0.1.0"
