"""semiwkb: radial Euler-Poisson characteristics, non-caustic WKB fields,
and a semiclassical Schrodinger-Poisson solver for desk-scale verification."""

from .errors import (ConfigError, ContractError, ConvergenceError,
                     DomainError, ParameterError, ResolutionError,
                     SemiwkbError, StepRejectionError,
                     UnsupportedConfigurationError)
from .grids import RadialGrid, RadialProfile
from .profiles import (InitialData, ball_data, build_initial_data,
                       compatible_phase, critical_threshold, cumulative_mass,
                       free_data, sample_amplitude, sample_data,
                       smooth_ball_amplitude, smooth_ball_data)
from .euler_poisson import (CharacteristicTrajectory, Verdict, blowup_time,
                            classify, eulerian_fields,
                            explicit_characteristics,
                            integrate_characteristics)
from .wkb import (CorrectorSeries, WkbFields, first_corrector,
                  leading_amplitude, leading_order, limit_system_residual,
                  poisson_radial)
from .norms import DecayFit, NormReport, decay_fit, lp_norm, norm_diagnostics
from .schrodinger import (Observables, WaveField, initial_wavefield,
                          madelung_observables, run, strang_step)
from .harness import (ConvergenceReport, DataConfig, ExperimentConfig,
                      build_data, classify_sweep, converge, decay_study,
                      run_scenario)

__version__ = "0.1.0"
