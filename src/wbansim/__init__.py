"""Round-based simulator for energy-aware multi-hop routing in WBANs."""

from .channel import ChannelParams, LinkClass, path_loss, reference_path_loss
from .config import ConfigError, SimConfig, load_config, parse_config, render_config, validate_config
from .core import (BodyPoint, PacketKind, SensorKind, SensorNode, Sink, build_topology,
                   distance)
from .energy import ActionCounts, EnergyWeights, charge, round_cost
from .engine import (RoundMetrics, RunResult, RunSummary, assign_tdma,
                     run_simulation, summarize_run, throughput)
from .events import EventParams, SensingSchedule, is_scheduled, poisson_pmf, sample_event_count
from .io import compare_runs, emit_plot_series, read_metrics_csv, write_metrics_csv
from .protocols import (EquilibriumProfile, MattemptParams, MattemptState,
                        RouteAction, RoutingDecision, amhrp_select_forwarder,
                        equilibrium_ok, equilibrium_score, mattempt_build_hopcounts,
                        mattempt_next_hop, mattempt_temperature_step,
                        simple_select_forwarder)

__version__ = "0.1.0"
