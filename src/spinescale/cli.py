"""Command-line entry point wiring the pipeline stages end to end.

Each subcommand consumes the previous stage's file artifact and writes its
own under --out with a fixed name, so stages can be re-run independently.
Each runs the same pipeline functions as the first cycle of `run`, so
simulate -> train -> forecast -> decide writes the bytes a one-cycle `run` does:

    spinescale simulate     --config cfg.json --duration-hours 504 --out out/
    spinescale train        --config cfg.json --out out/
    spinescale forecast     --out out/ --horizon 120
    spinescale decide       --config cfg.json --out out/
    spinescale run          --config cfg.json --out out/
    spinescale export-plots --config cfg.json --out out/

Training, policy and spine settings come only from the config file.
`train` and `forecast` read the history the loop held after the log's last
hour (`history_from_bus`): each spine of that hour, from the start of its
last unbroken run of hours, so they also take the log of a run that removed
or re-added spines. A forecast reads the last max(lookback, 24) hours of
each spine's history.
`decide` writes a fresh journal as cycle 0, with the cooldown elapsed.

Artifacts: telemetry.log, model.ckpt, forecast.csv, journal.log, manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PolicyConfig, SimConfig, derive_seed, load_config, policy_from_config
from .errors import ConsistencyError, InvalidConfigError, SpinescaleError
from .forecaster import (Forecast, forecast_horizon, load_checkpoint, load_forecast_csv,
                         save_checkpoint, save_forecast_csv)
from .pipeline import (CHECKPOINT_FILE, FORECAST_FILE, JOURNAL_FILE, METRICS_TOPIC,
                       TELEMETRY_FILE, bus_from_log, decide, history_from_bus, run_closed_loop,
                       simulate_hours, topology_from_config, train_from_series)
from .policy import REMOVE_SPINE, PolicyJournal, evaluate
from .telemetry import TopicBus, write_atomic

PLOT_LATENCY_FILE = "plot_latency.csv"
PLOT_CANDIDATES_FILE = "plot_candidates.csv"


def _load_cfg(args) -> SimConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    if args.duration_hours < 1:     # checked before the old log is replaced
        raise InvalidConfigError(f"--duration-hours must be at least 1, got {args.duration_hours}")
    cfg = _load_cfg(args)
    out = _out_dir(args)
    topology = topology_from_config(cfg)
    path = out / TELEMETRY_FILE
    path.unlink(missing_ok=True)
    with TopicBus() as bus:
        bus.attach(METRICS_TOPIC, path)
        published = simulate_hours(cfg, topology, bus, METRICS_TOPIC, 0,
                                   args.duration_hours, derive_seed(cfg.seed, "simulate"))
    print(f"simulated {args.duration_hours} h -> {published} records in {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    with bus_from_log(Path(args.telemetry or out / TELEMETRY_FILE)) as bus:
        series = history_from_bus(bus, METRICS_TOPIC)
    model, report = train_from_series(cfg, series, seed=cfg.seed, final_grad_check=True)
    path = out / CHECKPOINT_FILE
    save_checkpoint(model, path)
    best = report.val_losses[report.best_epoch] if report.val_losses \
        else report.train_losses[report.best_epoch]
    print(f"trained {cfg.training.epochs} epochs; best epoch {report.best_epoch} "
          f"(loss {best:.6g}); gradient check {report.grad_check_error:.2e}; "
          f"checkpoint {path}")
    return 0


def cmd_forecast(args) -> int:
    out = _out_dir(args)
    model = load_checkpoint(args.checkpoint or out / CHECKPOINT_FILE)
    with bus_from_log(Path(args.telemetry or out / TELEMETRY_FILE)) as bus:
        series = history_from_bus(bus, METRICS_TOPIC)
    forecast = forecast_horizon(model, series, args.horizon)
    path = out / FORECAST_FILE
    save_forecast_csv(forecast, path)
    print(f"forecast {args.horizon} h for spines {forecast.spine_ids()} -> {path}")
    return 0


def _decision_inputs(args) -> tuple[PolicyConfig, Path, Forecast]:
    """Policy, output directory and forecast for decide and export-plots; the
    forecast's spines are the active set, so each must be an id that adding
    spines can reach: 0..max_spines - 1."""
    cfg = load_config(args.config)
    policy_cfg = policy_from_config(cfg)
    out = _out_dir(args)
    forecast = load_forecast_csv(args.forecast or out / FORECAST_FILE)
    max_spines = cfg.topology.max_spines
    unknown = [sid for sid in forecast.spine_ids() if not 0 <= sid < max_spines]
    if unknown:
        raise ConsistencyError(f"forecast names spine(s) {unknown}, but topology.max_spines "
                               f"{max_spines} allows spines 0..{max_spines - 1}")
    return policy_cfg, out, forecast


def cmd_decide(args) -> int:
    policy_cfg, out, forecast = _decision_inputs(args)
    path = out / JOURNAL_FILE
    path.unlink(missing_ok=True)
    with PolicyJournal(path) as journal:
        actions = decide(forecast, policy_cfg, forecast.spine_ids(),
                         policy_cfg.cooldown_cycles, 0, journal)
    print(f"{len(actions)} action(s) -> {path}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    manifest = run_closed_loop(cfg, args.out, config_path=str(args.config))
    final = manifest.cycles[-1]["active_spines"] if manifest.cycles else []
    print(f"closed loop done: {len(manifest.cycles)} cycles, "
          f"final active spines {final}; manifest in {manifest.out_dir}")
    return 0


def cmd_export_plots(args) -> int:
    policy_cfg, out, forecast = _decision_inputs(args)

    plot_path = out / PLOT_LATENCY_FILE
    save_forecast_csv(forecast, plot_path)

    candidates_path = out / PLOT_CANDIDATES_FILE
    cand_lines = ["spine_id,mean_predicted_latency_us,hours_below_threshold"]
    for action in evaluate(forecast, policy_cfg, forecast.spine_ids(),
                           policy_cfg.cooldown_cycles):
        if action.kind == REMOVE_SPINE:
            preds = forecast.per_spine[action.spine_id]
            below = int((preds < policy_cfg.remove_threshold_us).sum())
            cand_lines.append(f"{action.spine_id},{action.mean_pred_us!r},{below}")
    write_atomic(candidates_path, "\n".join(cand_lines) + "\n")
    rows = forecast.horizon * len(forecast.per_spine)
    print(f"wrote {plot_path} ({rows} rows) and {candidates_path} "
          f"({len(cand_lines) - 1} candidates)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinescale",
        description="Leaf-spine fabric simulation, latency forecasting, and "
                    "elastic spine-capacity decisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the fabric and write the telemetry log")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--duration-hours", type=int, required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the forecaster from a telemetry log")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--telemetry", default=None, help="telemetry log (default OUT/telemetry.log)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="forecast per-spine latency from a checkpoint")
    p.add_argument("--checkpoint", default=None, help="default OUT/model.ckpt")
    p.add_argument("--telemetry", default=None, help="default OUT/telemetry.log")
    p.add_argument("--horizon", type=int, default=120, help="hours ahead")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("decide", help="evaluate scaling policy on a forecast file")
    p.add_argument("--config", required=True)
    p.add_argument("--forecast", default=None, help="default OUT/forecast.csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("run", help="closed loop: simulate, train, forecast, decide, apply")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("export-plots", help="emit plot-ready CSVs from a forecast file")
    p.add_argument("--config", required=True)
    p.add_argument("--forecast", default=None, help="default OUT/forecast.csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_export_plots)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpinescaleError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
