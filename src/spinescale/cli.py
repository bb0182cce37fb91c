"""Command-line entry point wiring the pipeline stages end to end.

Each subcommand consumes the previous stage's file artifact and writes its
own under --out with a fixed name, so stages can be re-run independently:

    spinescale simulate     --config cfg.json --duration-hours 504 --out out/
    spinescale train        --config cfg.json --out out/
    spinescale forecast     --out out/ --horizon 120
    spinescale decide       --config cfg.json --out out/
    spinescale run          --config cfg.json --out out/
    spinescale export-plots --config cfg.json --out out/

Policy thresholds and spine bounds come only from the config file.

Artifacts: telemetry.log, model.ckpt, forecast.csv, journal.log, manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SimConfig, derive_seed, load_config, policy_from_config
from .errors import SpinescaleError
from .forecaster import (digest_forecast, forecast_horizon, load_checkpoint, load_forecast_csv,
                         save_checkpoint, save_forecast_csv)
from .pipeline import (CHECKPOINT_FILE, FORECAST_FILE, JOURNAL_FILE, METRICS_TOPIC,
                       TELEMETRY_FILE, recent_history, run_closed_loop, series_from_bus,
                       simulate_hours, topology_from_config, train_from_series)
from .policy import PolicyJournal, evaluate
from .telemetry import TopicBus

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


def _bus_from_log(path: Path) -> TopicBus:
    if not path.exists():
        raise SpinescaleError(f"telemetry log not found: {path}")
    bus = TopicBus()
    bus.attach(METRICS_TOPIC, path)
    return bus


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    if args.epochs is not None:
        cfg.training.epochs = args.epochs
    cfg.training.validate()
    telemetry = Path(args.telemetry) if args.telemetry else out / TELEMETRY_FILE
    with _bus_from_log(telemetry) as bus:
        series = series_from_bus(bus, METRICS_TOPIC)
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
    checkpoint = Path(args.checkpoint) if args.checkpoint else out / CHECKPOINT_FILE
    telemetry = Path(args.telemetry) if args.telemetry else out / TELEMETRY_FILE
    model = load_checkpoint(checkpoint)
    with _bus_from_log(telemetry) as bus:
        series = series_from_bus(bus, METRICS_TOPIC)
    histories = recent_history(series, max(model.hyper.lookback_hours, 2 * 24))
    forecast = forecast_horizon(model, histories, args.horizon)
    path = out / FORECAST_FILE
    save_forecast_csv(forecast, path)
    print(f"forecast {args.horizon} h for spines {forecast.spine_ids()} -> {path}")
    return 0


def cmd_decide(args) -> int:
    policy_cfg = policy_from_config(load_config(args.config))
    out = _out_dir(args)
    forecast_path = Path(args.forecast) if args.forecast else out / FORECAST_FILE
    forecast = load_forecast_csv(forecast_path)
    cycles_since = args.cycles_since if args.cycles_since is not None \
        else policy_cfg.cooldown_cycles
    actions = evaluate(forecast, policy_cfg, forecast.spine_ids(), cycles_since,
                       decision_cycle=args.cycle)
    path = out / JOURNAL_FILE
    path.unlink(missing_ok=True)
    with PolicyJournal(path) as journal:
        digest = digest_forecast(forecast)
        for action in actions:
            journal.append(action, policy_cfg, digest)
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
    policy_cfg = policy_from_config(load_config(args.config))
    out = _out_dir(args)
    forecast_path = Path(args.forecast) if args.forecast else out / FORECAST_FILE
    forecast = load_forecast_csv(forecast_path)

    plot_path = out / PLOT_LATENCY_FILE
    save_forecast_csv(forecast, plot_path)

    candidates_path = out / PLOT_CANDIDATES_FILE
    cand_lines = ["spine_id,mean_predicted_latency_us,hours_below_threshold"]
    if forecast.per_spine:
        actions = evaluate(forecast, policy_cfg, forecast.spine_ids(),
                           policy_cfg.cooldown_cycles, decision_cycle=args.cycle)
        for action in actions:
            if action.kind != "remove_spine":
                continue
            preds = forecast.per_spine[action.spine_id]
            below = int((preds < policy_cfg.remove_threshold_us).sum())
            cand_lines.append(f"{action.spine_id},{action.reason.statistic_us!r},{below}")
    candidates_path.write_text("\n".join(cand_lines) + "\n", encoding="utf-8")
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
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
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
    p.add_argument("--cycle", type=int, default=0, help="decision cycle index for the journal")
    p.add_argument("--cycles-since", type=int, default=None,
                   help="cycles since last action (default: cooldown elapsed)")
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
    p.add_argument("--cycle", type=int, default=0, help="decision cycle index for the journal")
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
