"""Multi-CPU cell-free massive MIMO downlink simulator."""

__version__ = "0.1.0"

from .channel import (ChannelStatistics, LargeScaleModelConfig, PathLossParams,
                      channel_stats, complex_normals, path_loss_db,
                      sample_channel, shadowing_field, spatial_correlation)
from .clustering import (ClusteringParams, ServingLinks, ServingStructure,
                         build_serving_structure, serving_mask)
from .errors import (CfMimoError, ConfigurationError, DegenerateLinkError,
                     NumericalError)
from .pilots import (EstimationTerms, PilotAssignment, PowerConfig,
                     assign_pilots, estimation_terms, psi_stack)
from .scenario import (Deployment, ScenarioConfig, generate_deployment,
                       wrap_distance)
from .spectral_efficiency import (FrameConfig, OracleResult, RateResult,
                                  SETerms, compute_terms, link_scales,
                                  mc_oracle, user_rates)

__all__ = [name for name in dir() if not name.startswith("_")]
