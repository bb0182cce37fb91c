"""Run configuration: dataclasses, JSON file loading, and seed fan-out.

Config file schema (JSON, one file drives every stage)
-------------------------------------------------------
{
  "seed": 7,                      root seed; every stage derives its own
  "topology": {
    "n_leaf": 3,                  leaf switch count
    "n_spine": 5,                 spine switch count
    "capacity_bps": 10000000000,  per-link capacity, bits/second (at most 2**53)
    "base_latency_us": 3.0,       per-link propagation floor, microseconds
    "min_spines": 2,              safety floor on active spines
    "max_spines": 8,              cap on active spines
    "spine_slots": [1,1,1,1,1]    optional ECMP hash slots per spine
  },
  "latency": {
    "queue_factor": 1.0,          k in latency = base*(1 + k*rho/(1-rho))
    "noise_us": 0.0               bounded zero-mean latency noise amplitude
  },
  "traffic": {
    "base_bps": 2000000000,       constant offered load per leaf pair
    "diurnal_amp_bps": 1000000000, sinusoid amplitude (24 h period)
    "diurnal_phase_h": 0.0,       sinusoid phase shift, hours
    "burst_rate_per_hour": 0.0,   Poisson rate of file-transfer bursts
    "burst_size_bps": 0,          load added per burst
    "noise_bps": 0,               bounded zero-mean demand noise amplitude
    "flows_per_pair": 8           flow count each pair's demand splits into
  },
  "training": {
    "lookback_hours": 48, "horizon_steps": 1, "epochs": 60,
    "batch_size": 32, "learning_rate": 0.001, "hidden_size": 32,
    "conv_width": 3, "conv_channels": 8, "dropout": 0.2,
    "val_fraction": 0.2
  },
  "policy": {
    "remove_threshold_us": 6.0, "add_threshold_us": 12.0,
    "cooldown_cycles": 24, "horizon_fraction": 1.0,
    "add_aggregate": "mean"
  },
  "run": {
    "cycles": 3, "hours_per_cycle": 168, "horizon_hours": 120,
    "retrain_each_cycle": false
  }
}

Unknown keys are rejected so typos fail loudly instead of silently using
defaults. All sections are optional; omitted fields take the defaults above.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidConfigError

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stage-specific 64-bit seed from the root seed and a label.

    Uses SHA-256 so the fan-out is stable across platforms and Python
    versions (the builtin hash() is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK64


def noise_width_is_finite(noise_us) -> bool:
    """Whether uniform(-noise_us, noise_us) spans a finite float64 width,
    2 * noise_us, as numpy's uniform requires."""
    try:
        return math.isfinite(2.0 * float(noise_us))
    except OverflowError:               # an int past the float64 range
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation -> (what its value must be, the check)
_FIELD_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number",
              lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[int] | None": ("a list of integers or null",
                         lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v)))),
}


def _check_fields(section, name: str) -> None:
    """Reject a wrongly typed or non-finite value before any rule compares
    it: NaN passes every `x < 0` check, and "3" < 1 raises TypeError."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        what, ok = _FIELD_CHECKS[f.type]
        if not ok(value):
            raise InvalidConfigError(f"{name}.{f.name} must be {what}, got {value!r}")


@dataclass
class TopologyConfig:
    n_leaf: int = 3
    n_spine: int = 5
    capacity_bps: int = 10_000_000_000
    base_latency_us: float = 3.0
    min_spines: int = 2
    max_spines: int = 8
    spine_slots: list[int] | None = None

    def validate(self) -> None:
        _check_fields(self, "topology")
        if self.n_leaf < 1 or self.n_spine < 1:
            raise InvalidConfigError(
                f"node counts must be >= 1 (n_leaf={self.n_leaf}, n_spine={self.n_spine})")
        if not 0 < self.capacity_bps <= 2**53:
            # a utilization is load / capacity in float64, exact only up to 2**53
            raise InvalidConfigError(
                f"capacity_bps must be in 1..2**53, got {self.capacity_bps}")
        if self.base_latency_us <= 0:
            raise InvalidConfigError(f"base_latency_us must be > 0, got {self.base_latency_us}")
        if not self.min_spines <= self.n_spine <= self.max_spines:
            raise InvalidConfigError(f"n_spine={self.n_spine} outside "
                                     f"min_spines..max_spines={self.min_spines}..{self.max_spines}")
        if self.spine_slots is not None:
            if len(self.spine_slots) != self.n_spine:
                raise InvalidConfigError(
                    f"spine_slots has {len(self.spine_slots)} entries for {self.n_spine} spines")
            if any(s < 1 for s in self.spine_slots):
                raise InvalidConfigError("spine_slots entries must be >= 1")


@dataclass
class LatencyConfig:
    queue_factor: float = 1.0
    noise_us: float = 0.0

    def validate(self) -> None:
        _check_fields(self, "latency")
        if self.queue_factor < 0:
            raise InvalidConfigError(f"queue_factor must be >= 0, got {self.queue_factor}")
        if self.noise_us < 0:
            raise InvalidConfigError(f"noise_us must be >= 0, got {self.noise_us}")
        if not noise_width_is_finite(self.noise_us):
            raise InvalidConfigError(f"2 * noise_us must be finite, got noise_us={self.noise_us}")


@dataclass
class TrafficConfig:
    base_bps: float = 2_000_000_000
    diurnal_amp_bps: float = 1_000_000_000
    diurnal_phase_h: float = 0.0
    burst_rate_per_hour: float = 0.0
    burst_size_bps: float = 0.0
    noise_bps: float = 0.0
    flows_per_pair: int = 8

    def validate(self) -> None:
        _check_fields(self, "traffic")
        if self.base_bps < 0 or self.diurnal_amp_bps < 0:
            raise InvalidConfigError("traffic base/amplitude must be >= 0")
        if self.burst_rate_per_hour < 0 or self.burst_size_bps < 0 or self.noise_bps < 0:
            raise InvalidConfigError("burst/noise parameters must be >= 0")
        if self.flows_per_pair < 1:
            raise InvalidConfigError(f"flows_per_pair must be >= 1, got {self.flows_per_pair}")


@dataclass
class TrainingConfig:
    lookback_hours: int = 48
    horizon_steps: int = 1
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_size: int = 32
    conv_width: int = 3
    conv_channels: int = 8
    dropout: float = 0.2
    val_fraction: float = 0.2

    def validate(self) -> None:
        _check_fields(self, "training")
        if self.lookback_hours < 1:
            raise InvalidConfigError(f"lookback_hours must be >= 1, got {self.lookback_hours}")
        if self.horizon_steps != 1:
            # forecast_horizon feeds each prediction back in as the next hour
            raise InvalidConfigError(f"horizon_steps must be 1, got {self.horizon_steps}")
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise InvalidConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.hidden_size < 1 or self.conv_channels < 1 or self.conv_width < 1:
            raise InvalidConfigError("model sizes must be >= 1")
        if not 0.0 <= self.dropout <= 1.0:
            raise InvalidConfigError(f"dropout must be in [0,1], got {self.dropout}")
        if not 0.0 < self.val_fraction < 1.0:
            raise InvalidConfigError(f"val_fraction must be in (0,1), got {self.val_fraction}")

    def validate_model(self) -> None:
        """The one rule building a model adds to validate(): the convolution
        fits in one lookback window. Not part of validate(), because a
        config that only simulates and windows telemetry may use a shorter
        lookback."""
        if self.lookback_hours < self.conv_width:
            raise InvalidConfigError(
                f"lookback_hours={self.lookback_hours} < conv_width={self.conv_width}")


@dataclass
class PolicySection:
    remove_threshold_us: float = 6.0
    add_threshold_us: float = 12.0
    cooldown_cycles: int = 24
    horizon_fraction: float = 1.0     # fraction of horizon hours a condition must hold
    add_aggregate: str = "mean"       # "mean" or "max" over spines when checking add

    def validate(self) -> None:
        """Types only: the rules are PolicyConfig's (see policy_from_config)."""
        _check_fields(self, "policy")


@dataclass(frozen=True)
class PolicyConfig:
    """The policy's full parameter set: the `policy` section plus the spine
    bounds from `topology`. Build it with policy_from_config."""

    remove_threshold_us: float
    add_threshold_us: float
    min_spines: int
    max_spines: int
    cooldown_cycles: int
    horizon_fraction: float
    add_aggregate: str

    def __post_init__(self) -> None:
        if self.remove_threshold_us >= self.add_threshold_us:
            raise InvalidConfigError(
                f"remove_threshold_us ({self.remove_threshold_us}) must be below "
                f"add_threshold_us ({self.add_threshold_us})")
        if self.min_spines < 1 or self.min_spines > self.max_spines:
            raise InvalidConfigError(
                f"need 1 <= min_spines <= max_spines, got {self.min_spines}..{self.max_spines}")
        if not 0.0 < self.horizon_fraction <= 1.0:
            raise InvalidConfigError(
                f"horizon_fraction must be in (0,1], got {self.horizon_fraction}")
        if self.cooldown_cycles < 0:
            raise InvalidConfigError(f"cooldown_cycles must be >= 0, got {self.cooldown_cycles}")
        if self.add_aggregate not in ("mean", "max"):
            raise InvalidConfigError(f"add_aggregate must be 'mean' or 'max', "
                                     f"got {self.add_aggregate!r}")


@dataclass
class RunSection:
    cycles: int = 3
    hours_per_cycle: int = 168
    horizon_hours: int = 120
    retrain_each_cycle: bool = False

    def validate(self) -> None:
        _check_fields(self, "run")
        if self.cycles < 1:
            raise InvalidConfigError(f"cycles must be >= 1, got {self.cycles}")
        if self.hours_per_cycle < 1:
            raise InvalidConfigError(f"hours_per_cycle must be >= 1, got {self.hours_per_cycle}")
        if self.horizon_hours < 1:
            raise InvalidConfigError(f"horizon_hours must be >= 1, got {self.horizon_hours}")


@dataclass
class SimConfig:
    """Everything one run needs, loadable from a single JSON file."""

    seed: int = 7
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    policy: PolicySection = field(default_factory=PolicySection)
    run: RunSection = field(default_factory=RunSection)

    def validate(self) -> "SimConfig":
        if not _is_int(self.seed):
            raise InvalidConfigError(f"seed must be an integer, got {self.seed!r}")
        self.topology.validate()
        self.latency.validate()
        self.traffic.validate()
        self.training.validate()
        self.policy.validate()
        self.run.validate()
        tr = self.training
        if self.run.hours_per_cycle < tr.lookback_hours + tr.horizon_steps:
            raise InvalidConfigError(
                f"hours_per_cycle={self.run.hours_per_cycle} must cover lookback "
                f"{tr.lookback_hours} + horizon {tr.horizon_steps}")
        policy_from_config(self)
        return self


def policy_from_config(cfg: SimConfig) -> PolicyConfig:
    """The one place the policy section and the topology's spine bounds meet."""
    p = cfg.policy
    t = cfg.topology
    return PolicyConfig(remove_threshold_us=p.remove_threshold_us,
                        add_threshold_us=p.add_threshold_us,
                        min_spines=t.min_spines, max_spines=t.max_spines,
                        cooldown_cycles=p.cooldown_cycles,
                        horizon_fraction=p.horizon_fraction,
                        add_aggregate=p.add_aggregate)


_SECTIONS = {
    "topology": TopologyConfig,
    "latency": LatencyConfig,
    "traffic": TrafficConfig,
    "training": TrainingConfig,
    "policy": PolicySection,
    "run": RunSection,
}


def _build_section(cls, data: dict, name: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in '{name}' section: {sorted(unknown)}")
    return cls(**data)


def load_config(path: str | Path) -> SimConfig:
    """Read and validate a SimConfig from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:     # not UTF-8, or not JSON
        raise InvalidConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config root must be a JSON object, got {type(raw).__name__}")

    unknown = set(raw) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise InvalidConfigError(f"unknown top-level config key(s): {sorted(unknown)}")

    kwargs = {"seed": raw.get("seed", 7)}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise InvalidConfigError(f"config section '{name}' must be an object")
        kwargs[name] = _build_section(cls, section, name)
    return SimConfig(**kwargs).validate()


def save_config(cfg: SimConfig, path: str | Path) -> None:
    """Write a SimConfig as formatted JSON (inverse of load_config)."""
    payload = dataclasses.asdict(cfg)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
