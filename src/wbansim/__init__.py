"""Round-based simulator for energy-aware multi-hop routing in WBANs."""

from .channel import ChannelParams, LinkClass, path_loss, reference_path_loss
from .config import (ConfigError, EnergyWeights, SimConfig, load_config, parse_config,
                     render_config, validate_config)
from .core import (SINK_POSITION, BodyPoint, PacketKind, SensorKind, SensorNode,
                   build_topology, distance)
from .engine import RunResult, RunSummary, run_simulation, summarize_run, throughput
from .events import EventParams, SensingSchedule, poisson_pmf
from .io import compare_runs, emit_plot_series, read_metrics_csv, write_metrics_csv
from .protocols import (MattemptParams, MattemptState, RouteAction, RoutingDecision,
                        amhrp_select_forwarder, mattempt_build_hopcounts, mattempt_next_hop,
                        mattempt_temperature_step, simple_select_forwarder)

__version__ = "0.1.0"
