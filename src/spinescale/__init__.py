"""spinescale: a closed-loop leaf-spine fabric twin.

Simulate fabric traffic, stream per-link metrics over a topic bus, forecast
per-spine latency with a conv + stacked-LSTM model trained from scratch,
and drive add/remove-spine decisions from the forecasts.
"""

from .config import SimConfig, TrafficConfig, derive_seed, load_config, save_config
from .fabric import (DemandMatrix, LinkMetricSample, SampleColumns, Topology,
                     apply_action, build_topology, ecmp_assign, generate_demands, hour_loads,
                     simulate_tick)
from .forecaster import (Forecast, LstmModel, TrainReport, forecast_horizon, forward,
                         gradient_check, init_model, load_checkpoint, save_checkpoint, train)
from .nn import LstmCellParams, conv1d_forward, lstm_cell_forward
from .pipeline import RunManifest, run_closed_loop
from .policy import PolicyAction, PolicyConfig, PolicyJournal, evaluate
from .telemetry import TopicBus, decode_sample, encode_sample
from .windows import Scaler, SwitchSeries, WindowedDataset, aggregate_hourly, make_windows

__version__ = "0.1.0"

__all__ = [
    "SimConfig", "TrafficConfig", "derive_seed", "load_config", "save_config",
    "DemandMatrix", "LinkMetricSample", "SampleColumns", "Topology", "apply_action",
    "build_topology", "ecmp_assign", "generate_demands", "hour_loads", "simulate_tick",
    "Forecast", "LstmModel", "TrainReport", "forecast_horizon", "forward",
    "gradient_check", "init_model", "load_checkpoint", "save_checkpoint", "train",
    "LstmCellParams", "conv1d_forward", "lstm_cell_forward",
    "RunManifest", "run_closed_loop",
    "PolicyAction", "PolicyConfig", "PolicyJournal", "evaluate",
    "TopicBus", "decode_sample", "encode_sample",
    "Scaler", "SwitchSeries", "WindowedDataset", "aggregate_hourly", "make_windows",
    "__version__",
]
