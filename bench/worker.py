"""One benchmark iteration in a fresh process.

    python3 bench/worker.py MODE SPEC_JSON RESULT_JSON [digests]

MODE is one of
  setup     set up, then stop: one set-up time probe
  run       set up, run the workload's timed region untraced, check outputs
  trace     the same with every layer traced
  generate  build the workload's cached input (outside all timing)

With `digests`, a run or trace iteration skips the output checks and only
reports its digests and actions; run.py asks for that after the first
iteration of each mode has been checked in full, and fails the run unless
every iteration's digests and actions equal the checked one's.

run.py starts this with PYTHONPATH pointing at the checkout's `src/` and
the BLAS pinned to one thread, and reads RESULT_JSON when it exits.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import numpy as np  # noqa: E402

import spinescale  # noqa: E402

if not Path(spinescale.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: imported spinescale from {spinescale.__file__}, not from {ROOT / 'src'}")

from spinescale import (baselines, config, fabric, forecaster, nn, pipeline,  # noqa: E402
                        policy, telemetry, windows)
from spinescale.telemetry import TopicBus  # noqa: E402

from tracing import CYCLE_SPAN, Tracer  # noqa: E402

TOPIC = pipeline.METRICS_TOPIC

LAYERS = ("fabric", "telemetry", "windows", "nn", "forecaster", "policy", "pipeline")


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _count_actions(args, kwargs, result):
    return {"policy.actions.remove": sum(a.kind == policy.REMOVE_SPINE for a in result),
            "policy.actions.add": sum(a.kind == policy.ADD_SPINE for a in result)}


def _count_window_epochs(args, kwargs, result):
    hyper = kwargs.get("hyper") or args[0].hyper
    return {"forecaster.train.window_epochs": len(args[1]) * hyper.epochs}


def install_hooks(tracer: Tracer, full: bool, cycles: bool) -> None:
    """Wrap the names each caller looks up. Without `full`, only the four
    once-per-cycle probes decision_s_p50 needs on elastic-loop."""
    tracer.hook(pipeline, "simulate_hours", "pipeline.simulate_hours", "pipeline",
                span=True, opens_cycle=cycles)
    tracer.hook(pipeline, "train_from_series", "pipeline.train_from_series", "pipeline",
                span=True)
    tracer.hook(pipeline, "evaluate", "policy.evaluate", "policy", span=True,
                count=_count_actions)
    tracer.hook(policy.PolicyJournal, "append", "policy.journal_append", "policy", span=True)
    if not full:
        return
    span = {"span": True}
    hooks = [
        (pipeline, "generate_demands", "fabric.generate_demands", "fabric", {}),
        (pipeline, "simulate_tick", "fabric.simulate_tick", "fabric",
         {"p50": True, "count": _len_result("fabric.records_out")}),
        (fabric, "build_flows", "fabric.build_flows", "fabric",
         {"count": _len_result("fabric.flows_placed")}),
        (pipeline, "apply_action", "fabric.apply_action", "fabric", span),
        (TopicBus, "publish", "telemetry.publish", "telemetry", {}),
        (TopicBus, "attach", "telemetry.attach", "telemetry",
         {"span": True, "count": lambda a, k, r: {"telemetry.attach.records": r}}),
        (TopicBus, "consume", "telemetry.consume", "telemetry",
         {"span": True, "count": _len_result("telemetry.consume.records")}),
        (pipeline, "aggregate_hourly", "windows.aggregate_hourly", "windows",
         {"span": True,
          "count": lambda a, k, r: {"windows.aggregate_hourly.samples_in": len(a[0])}}),
        (pipeline, "split_train_val", "windows.split_train_val", "windows", span),
        (pipeline, "make_windows", "windows.make_windows", "windows",
         {"span": True, "count": _len_result("windows.make_windows.windows_out")}),
        (windows.Scaler, "fit", "windows.scaler", "windows", {}),
        (windows.Scaler, "transform", "windows.scaler", "windows", {}),
        (forecaster, "conv1d_forward", "nn.conv1d_forward", "nn", {}),
        (forecaster, "conv1d_backward", "nn.conv1d_backward", "nn", {}),
        (forecaster, "lstm_layer_forward", "nn.lstm_layer_forward", "nn", {}),
        (forecaster, "lstm_layer_backward", "nn.lstm_layer_backward", "nn", {}),
        (forecaster, "dropout_mask", "nn.dropout_mask", "nn", {}),
        (nn.Adam, "step", "nn.adam_step", "nn", {}),
        (forecaster, "forward_batch", "forecaster.forward_batch", "forecaster", {"p50": True}),
        (forecaster, "backward_batch", "forecaster.backward_batch", "forecaster", {}),
        (forecaster, "forward", "forecaster.forward", "forecaster", {}),
        (pipeline, "init_model", "forecaster.init_model", "forecaster", span),
        (pipeline, "train", "forecaster.train", "forecaster",
         {"span": True, "count": _count_window_epochs}),
        (pipeline, "forecast_horizon", "forecaster.forecast_horizon", "forecaster", span),
        (forecaster, "forecast_horizon", "forecaster.forecast_horizon", "forecaster", span),
        (pipeline, "save_checkpoint", "forecaster.save_checkpoint", "forecaster", span),
        (forecaster, "save_checkpoint", "forecaster.save_checkpoint", "forecaster", span),
        (pipeline, "save_forecast_csv", "forecaster.save_forecast_csv", "forecaster", span),
        (pipeline, "digest_forecast", "forecaster.digest_forecast", "forecaster", {}),
        (forecaster, "digest_forecast", "forecaster.digest_forecast", "forecaster", {}),
        (policy, "evaluate", "policy.evaluate", "policy",
         {"span": True, "count": _count_actions}),
        (pipeline, "series_from_bus", "pipeline.series_from_bus", "pipeline", span),
        (pipeline, "build_datasets", "pipeline.build_datasets", "pipeline", span),
        (pipeline, "recent_history", "pipeline.recent_history", "pipeline", span),
        (pipeline, "run_closed_loop", "pipeline.run_closed_loop", "pipeline", span),
    ]
    for owner, attr, name, layer, opts in hooks:
        tracer.hook(owner, attr, name, layer, **opts)


def layer_values(tracer: Tracer) -> dict[str, float]:
    values: dict[str, float] = dict(tracer.counters)
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.s"] = stat.s
        if stat.durations:
            values[f"{name}.p50_us"] = statistics.median(stat.durations) * 1e6
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s.get(layer, 0.0)
    cycles = [s["end"] - s["start"] for s in tracer.spans if s["name"] == CYCLE_SPAN]
    values["pipeline.cycle.s_p50"] = statistics.median(cycles) if cycles else 0.0
    return values


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class Result:
    """What one iteration hands back to run.py."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.data: dict = {"digests": {}, "actions": [], "layers": {}}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_out_dir(spec: dict) -> Path:
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for child in out.iterdir():
        child.unlink()
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_skill(model, dataset) -> float:
    """Model MSE over persistence MSE on the same windows."""
    return (forecaster.evaluate_mse(model, dataset)
            / baselines.mse(baselines.persistence_predictions(dataset), dataset.targets))


# ---------------------------------------------------------------------------
# ingest-wide: simulate -> file bus -> cold replay -> aggregate -> windows
# ---------------------------------------------------------------------------

def ingest_setup(spec: dict) -> dict:
    cfg = config.load_config(spec["config_path"])
    out = fresh_out_dir(spec)
    return {"cfg": cfg, "topology": pipeline.topology_from_config(cfg),
            "log": out / pipeline.TELEMETRY_FILE}


def ingest_run(spec: dict, st: dict) -> dict:
    cfg, topo, log = st["cfg"], st["topology"], st["log"]
    tr = cfg.training
    t0 = time.perf_counter()
    producer = TopicBus()
    producer.attach(TOPIC, log)
    published = pipeline.simulate_hours(cfg, topo, producer, TOPIC, 0, spec["hours"],
                                        config.derive_seed(cfg.seed, "simulate"))
    producer.close()
    t_published = time.perf_counter()
    consumer = TopicBus()
    replayed = consumer.attach(TOPIC, log)
    series = pipeline.series_from_bus(consumer, TOPIC, topo)
    _, train_ds, val_ds = pipeline.build_datasets(series, tr.val_fraction, tr.lookback_hours,
                                                  tr.horizon_steps)
    consumer.close()
    t_end = time.perf_counter()
    st.update(producer=producer, consumer=consumer, published=published, replayed=replayed,
              series=series, train_ds=train_ds, val_ds=val_ds)
    return {"run_s": t_end - t0, "decisions_s": [t_end - t_published], "stage_calls": 7}


def ingest_check(spec: dict, st: dict, res: Result) -> None:
    cfg, topo, log = st["cfg"], st["topology"], st["log"]
    tr = cfg.training
    published = st["producer"].consume(TOPIC)
    replayed = st["consumer"].consume(TOPIC)
    res.check("replayed record count", st["replayed"] == st["published"] == len(published),
              f"published {st['published']}, replayed {st['replayed']}")
    res.check("replayed records equal published", replayed == published)
    wire = "".join(telemetry.encode_sample(s) + "\n" for _, s in published).encode()
    res.check("log sha256 equals published",
              sha256_file(log) == hashlib.sha256(wire).hexdigest())

    # Per-tick integer conservation on unclipped ticks, demands regenerated here
    fabric_sum: dict[int, int] = {}
    clipped: set[int] = set()
    for _, s in replayed:
        fabric_sum[s.ts] = fabric_sum.get(s.ts, 0) + s.fabric_bps
        if s.fabric_bps >= topo.capacity_bps:
            clipped.add(s.ts)
    sim_seed = config.derive_seed(cfg.seed, "simulate")
    routed = {h: fabric.generate_demands(cfg.traffic, topo.n_leaf, h, sim_seed).total_bps()
              for h in range(spec["hours"])}
    bad = [ts for ts, total in fabric_sum.items()
           if ts not in clipped and total != routed[ts // 60]]
    unclipped = len(fabric_sum) - len(clipped)
    res.check("conservation on unclipped ticks", not bad and 2 * unclipped >= len(fabric_sum),
              f"{len(bad)} ticks off, {unclipped} of {len(fabric_sum)} unclipped")

    series = st["series"]
    res.check("no hour gaps",
              [s.spine_id for s in series] == topo.active_spine_ids
              and all(s.start_hour == 0 and len(s) == spec["hours"] for s in series))
    cut = int(spec["hours"] * (1.0 - tr.val_fraction))
    per_val = spec["hours"] - cut - tr.lookback_hours - tr.horizon_steps + 1
    per_train = (cut if per_val >= 1 else spec["hours"]) - tr.lookback_hours - tr.horizon_steps + 1
    want_val = len(series) * per_val if per_val >= 1 else 0
    got_val = len(st["val_ds"]) if st["val_ds"] is not None else 0
    res.check("window count formula",
              len(st["train_ds"]) == len(series) * per_train and got_val == want_val,
              f"train {len(st['train_ds'])} val {got_val}")
    res.data["forecast_skill"] = 0.0    # no model is trained on this workload


def ingest_digests(spec: dict, st: dict, res: Result) -> None:
    res.data["digests"]["telemetry.log"] = sha256_file(st["log"])
    res.data["bytes_written"] = st["log"].stat().st_size


# ---------------------------------------------------------------------------
# train-diurnal: train from cached hourly series, forecast, decide, checkpoint
# ---------------------------------------------------------------------------

def diurnal_generate(spec: dict) -> None:
    """Hourly per-spine series from the simulator, one day at a time so
    only a day of minute records is in memory at once."""
    cfg = config.load_config(spec["config_path"])
    topo = pipeline.topology_from_config(cfg)
    sim_seed = config.derive_seed(cfg.seed, "simulate")
    days = []
    for day in range(spec["days"]):
        bus = TopicBus()
        pipeline.simulate_hours(cfg, topo, bus, TOPIC, day * 24, 24, sim_seed)
        days.append(np.stack([s.channels() for s in pipeline.series_from_bus(bus, TOPIC, topo)]))
    cache = Path(spec["input_path"])
    tmp = cache.with_name(cache.name + ".tmp.npy")
    np.save(tmp, np.concatenate(days, axis=1))
    tmp.replace(cache)


def diurnal_setup(spec: dict) -> dict:
    cfg = config.load_config(spec["config_path"])
    data = np.load(spec["input_path"])
    series = [windows.SwitchSeries.from_channels(sid, 0, data[sid]) for sid in range(len(data))]
    out = fresh_out_dir(spec)
    return {"cfg": cfg, "series": series, "out": out, "input_sha": hashlib.sha256(
        data.tobytes()).hexdigest(), "policy": pipeline.policy_from_config(cfg)}


def diurnal_run(spec: dict, st: dict) -> dict:
    cfg, series, out, policy_cfg = st["cfg"], st["series"], st["out"], st["policy"]
    active = [s.spine_id for s in series]
    t0 = time.perf_counter()
    model, _ = pipeline.train_from_series(cfg, series, seed=cfg.seed)
    t_model = time.perf_counter()
    forecast = forecaster.forecast_horizon(
        model, pipeline.recent_history(series, cfg.run.hours_per_cycle), cfg.run.horizon_hours)
    actions = policy.evaluate(forecast, policy_cfg, active, policy_cfg.cooldown_cycles)
    digest = forecaster.digest_forecast(forecast)
    with policy.PolicyJournal(out / pipeline.JOURNAL_FILE) as journal:
        for action in actions:
            journal.append(action, policy_cfg, digest)
    t_decided = time.perf_counter()
    forecaster.save_checkpoint(model, out / pipeline.CHECKPOINT_FILE)
    t_end = time.perf_counter()
    st.update(model=model, forecast=forecast, actions=actions)
    return {"run_s": t_end - t0, "decisions_s": [t_decided - t_model],
            "stage_calls": 6 + len(actions)}


def diurnal_check(spec: dict, st: dict, res: Result) -> None:
    cfg, model, forecast = st["cfg"], st["model"], st["forecast"]
    tr = cfg.training
    _, train_ds, val_ds = pipeline.build_datasets(st["series"], tr.val_fraction,
                                                  tr.lookback_hours, tr.horizon_steps)
    k = min(len(train_ds), 4)
    err = forecaster.gradient_check(model, train_ds.inputs[:k], train_ds.targets[:k],
                                    num_params=60, seed=config.derive_seed(cfg.seed, "grad-check"))
    res.check("gradient check < 1e-4", err < 1e-4, f"max relative error {err:.3e}")
    check_horizon(res, forecast, [s.spine_id for s in st["series"]], cfg.run.horizon_hours)
    res.data["forecast_skill"] = model_skill(model, val_ds)


def diurnal_digests(spec: dict, st: dict, res: Result) -> None:
    out = st["out"]
    res.data["actions"] = [f"{a.kind}:{a.spine_id}" for a in st["actions"]]
    res.data["digests"].update({
        "input": st["input_sha"],
        "journal.log": sha256_file(out / pipeline.JOURNAL_FILE),
        "model.ckpt": sha256_file(out / pipeline.CHECKPOINT_FILE),
    })


def check_horizon(res: Result, forecast, spines: list[int], horizon: int) -> None:
    res.check("forecast covers the active spines", forecast.spine_ids() == sorted(spines),
              f"{forecast.spine_ids()} vs {sorted(spines)}")
    values = [forecast.per_spine[sid] for sid in forecast.spine_ids()]
    res.check("forecast horizon contract",
              forecast.horizon == horizon
              and all(v.shape == (horizon,) and np.isfinite(v).all() and (v >= 0).all()
                      for v in values),
              f"horizon {forecast.horizon}")


# ---------------------------------------------------------------------------
# elastic-loop: run_closed_loop with spines removed and added back
# ---------------------------------------------------------------------------

def elastic_setup(spec: dict) -> dict:
    cfg = config.load_config(spec["config_path"])
    return {"cfg": cfg, "out": fresh_out_dir(spec),
            "initial": pipeline.topology_from_config(cfg).active_spine_ids}


def elastic_run(spec: dict, st: dict) -> dict:
    t0 = time.perf_counter()
    manifest = pipeline.run_closed_loop(st["cfg"], st["out"])
    t_end = time.perf_counter()
    st["manifest"] = manifest
    # Decision work grows with the spines forecast, and which spines stay
    # active depends on the seed's trajectory, so each cycle's figure is
    # scaled to the initial fabric before the median.
    forecast = [len(st["initial"])] + [len(c["active_spines"]) for c in manifest.cycles[:-1]]
    raw = cycle_decisions(st["tracer"])
    return {"run_s": t_end - t0, "stage_calls": 1, "cycle_decisions_s": raw,
            "decisions_s": [d * forecast[0] / n for d, n in zip(raw, forecast)]}


def cycle_decisions(tracer: Tracer) -> list[float]:
    """Per cycle: from the last published tick (simulate_hours returns) to the
    cycle's last policy step (evaluate, journal append), less training."""
    out = []
    for cycle in (s for s in tracer.spans if s["name"] == CYCLE_SPAN):
        published = tracer.children(cycle, "pipeline.simulate_hours")[0]["end"]
        decided = max(s["end"] for name in ("policy.evaluate", "policy.journal_append")
                      for s in tracer.children(cycle, name))
        trained = sum(s["end"] - s["start"]
                      for s in tracer.children(cycle, "pipeline.train_from_series"))
        out.append(decided - published - trained)
    return out


def elastic_check(spec: dict, st: dict, res: Result) -> None:
    cfg, out, manifest = st["cfg"], st["out"], st["manifest"]
    entries = policy.replay_journal(out / pipeline.JOURNAL_FILE)
    actions = [(c["cycle"], a) for c in manifest.cycles for a in c["actions"]]
    replay = [(e.cycle, f"{e.kind}:{e.spine_id}") for e in entries]
    res.check("journal replay equals manifest actions", replay == actions,
              f"{replay} vs {actions}")
    initial = st["initial"]
    t = cfg.topology
    counts = [len(initial)] + [len(c["active_spines"]) for c in manifest.cycles]
    res.check("active spine count within [min, max]",
              all(t.min_spines <= n <= t.max_spines for n in counts), f"{counts}")
    forecast = forecaster.load_forecast_csv(out / pipeline.FORECAST_FILE)
    last_active = manifest.cycles[-2]["active_spines"] if len(manifest.cycles) > 1 else initial
    check_horizon(res, forecast, last_active, cfg.run.horizon_hours)
    res.data["forecast_skill"] = held_out_skill(cfg, out, initial, manifest)


def elastic_digests(spec: dict, st: dict, res: Result) -> None:
    out = st["out"]
    res.data["actions"] = [a for c in st["manifest"].cycles for a in c["actions"]]
    res.data["digests"].update({name: sha256_file(out / name) for name in (
        pipeline.TELEMETRY_FILE, pipeline.JOURNAL_FILE, pipeline.CHECKPOINT_FILE,
        pipeline.FORECAST_FILE)})
    res.data["bytes_written"] = (out / pipeline.TELEMETRY_FILE).stat().st_size


def held_out_skill(cfg, out: Path, initial: list[int], manifest) -> float:
    """Skill of the model trained in cycle 0 on the one-step windows whose
    targets fall in cycle 1, for the spines active in both cycles."""
    hours, lookback = cfg.run.hours_per_cycle, cfg.training.lookback_hours
    keep = set(initial) & set(manifest.cycles[0]["active_spines"])
    first, stop = (hours - lookback) * 60, 2 * hours * 60
    samples = []
    with (out / pipeline.TELEMETRY_FILE).open(encoding="utf-8") as fh:
        for offset, line in enumerate(fh):
            s = telemetry.decode_sample(line, offset)
            if s.ts >= stop:
                break
            if s.ts >= first and s.spine_id in keep:
                samples.append(s)
    model = forecaster.load_checkpoint(out / pipeline.CHECKPOINT_FILE)
    series = windows.aggregate_hourly(samples)
    dataset = windows.make_windows([model.scaler.transform_series(s) for s in series],
                                   lookback, 1)
    return model_skill(model, dataset)


WORKLOADS = {
    "ingest-wide": (ingest_setup, ingest_run, ingest_check, ingest_digests),
    "train-diurnal": (diurnal_setup, diurnal_run, diurnal_check, diurnal_digests),
    "elastic-loop": (elastic_setup, elastic_run, elastic_check, elastic_digests),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def iterate(mode: str, spec: dict, res: Result, full_checks: bool = True) -> None:
    setup, run, check, digests = WORKLOADS[spec["workload"]]
    st = setup(spec)
    res.data["ready"] = time.monotonic()
    if mode == "setup":
        res.data["env"] = environment()
        return
    tracer = None
    if mode == "trace" or spec["workload"] == "elastic-loop":
        tracer = st["tracer"] = Tracer()
        install_hooks(tracer, full=mode == "trace", cycles=spec["workload"] == "elastic-loop")
    try:
        if mode == "trace":
            with tracer.region("run", "pipeline"):
                timed = run(spec, st)
        else:
            timed = run(spec, st)
    finally:
        if tracer is not None:
            tracer.close()
    res.data["peak_rss_mb"] = peak_rss_mb()
    res.attempted += timed.pop("stage_calls")
    res.data.update(timed)
    if full_checks:
        check(spec, st, res)
    digests(spec, st, res)
    if mode == "trace":
        values = layer_values(tracer)
        values["telemetry.bytes_written"] = res.data.get("bytes_written", 0)
        if "forecast_skill" in res.data:
            values["forecast_skill"] = res.data["forecast_skill"]
        res.data["layers"] = values
        res.data["spans"] = tracer.spans


def main(argv: list[str]) -> int:
    mode, spec_path, result_path, *checks = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "generate":
        diurnal_generate(spec)
        return 0
    res = Result()
    try:
        iterate(mode, spec, res, full_checks=checks != ["digests"])
    except Exception:   # a failed stage is one failed operation, reported to run.py
        res.attempted += 1
        res.failures.append(traceback.format_exc(limit=4))
    res.data.update(attempted=res.attempted, failures=res.failures)
    Path(result_path).write_text(json.dumps(res.data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
