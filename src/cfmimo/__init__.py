"""Multi-CPU cell-free massive MIMO downlink simulator."""

__version__ = "0.1.0"

from .channel import (ChannelStatistics, LargeScaleModelConfig, PathLossParams,
                      channel_normals, channel_stats, correlate_channel,
                      path_loss_db, sample_channel, shadowing_field,
                      spatial_correlation)
from .clustering import (ClusteringParams, ServingLinks, ServingStructure,
                         build_serving_structure, cluster_fixed,
                         cluster_legacy_largest_lsf, cluster_lsf_threshold,
                         cluster_power, coherent_groups, order_cpus)
from .errors import (CfMimoError, ConfigurationError, DegenerateLinkError,
                     NumericalError)
from .pilots import (PilotAssignment, PowerConfig, assign_pilots,
                     estimate_covariance, mmse_coefficients, mmse_estimate,
                     pilot_normals, pilot_observations, psi_stack,
                     simulate_pilot_phase)
from .scenario import (Deployment, ScenarioConfig, generate_deployment,
                       wrap_distance)
from .spectral_efficiency import (FrameConfig, OracleResult, RateResult,
                                  SETerms, compute_terms, mc_oracle,
                                  mr_scale, sinr_mixed, user_rates)

__all__ = [name for name in dir() if not name.startswith("_")]
