import hashlib
import json
import warnings

import numpy as np
import pytest

from spinescale.cli import main
from spinescale.config import save_config
from spinescale.forecaster import (Forecast, init_model, load_checkpoint, load_forecast_csv,
                                   save_checkpoint, save_forecast_csv)
from spinescale.policy import replay_journal
from test_forecaster import MALFORMED_RECORDS, SMALL
from test_pipeline import ACTING_ACTIONS, acting_cfg

SMALL_CONFIG = {
    "seed": 9,
    "topology": {"n_leaf": 2, "n_spine": 3, "capacity_bps": 1_000_000_000,
                 "base_latency_us": 3.0, "min_spines": 2, "max_spines": 5},
    "latency": {"queue_factor": 1.0, "noise_us": 0.0},
    "traffic": {"base_bps": 300_000_000, "diurnal_amp_bps": 100_000_000,
                "noise_bps": 0, "flows_per_pair": 8},
    "training": {"lookback_hours": 12, "epochs": 3, "batch_size": 16,
                 "hidden_size": 8, "conv_channels": 4, "dropout": 0.1},
    "policy": {"remove_threshold_us": 0.5, "add_threshold_us": 500.0,
               "cooldown_cycles": 0},
    "run": {"cycles": 2, "hours_per_cycle": 16, "horizon_hours": 12},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture
def empty_config(tmp_path):
    """A config file that takes every default: the policy thresholds
    6/12 us, cooldown 24 and spine bounds 2..8."""
    path = tmp_path / "empty.json"
    path.write_text("{}")
    return str(path)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_duration_below_one_exits_2_and_keeps_the_log(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", config_path, "--duration-hours", 1,
                   "--out", out) == 0
    log = (out / "telemetry.log").read_bytes()
    capsys.readouterr()
    for hours in (0, -5):
        assert run_cli("simulate", "--config", config_path, "--duration-hours", hours,
                       "--out", out) == 2
        assert capsys.readouterr().err.startswith("error [simulate]: --duration-hours")
        assert (out / "telemetry.log").read_bytes() == log
    assert run_cli("simulate", "--config", config_path, "--duration-hours", 0,
                   "--out", tmp_path / "new") == 2
    assert not (tmp_path / "new").exists()


def test_simulate_record_count_3x5(tmp_path):
    cfg = dict(SMALL_CONFIG, topology={"n_leaf": 3, "n_spine": 5,
                                       "capacity_bps": 1_000_000_000,
                                       "base_latency_us": 3.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", path, "--duration-hours", 1, "--out", out) == 0
    lines = (out / "telemetry.log").read_text().splitlines()
    assert len(lines) == 15 * 60


def test_simulate_deterministic_bytes(config_path, tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("simulate", "--config", config_path, "--duration-hours", 3, "--out", out1)
    run_cli("simulate", "--config", config_path, "--duration-hours", 3, "--out", out2)
    run_cli("simulate", "--config", config_path, "--duration-hours", 3, "--out", out3,
            "--seed", 777)
    assert (out1 / "telemetry.log").read_bytes() == (out2 / "telemetry.log").read_bytes()
    assert (out1 / "telemetry.log").read_bytes() != (out3 / "telemetry.log").read_bytes()


def test_stage_chain_train_forecast_decide(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", config_path, "--duration-hours", 30,
                   "--out", out) == 0
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    model = load_checkpoint(out / "model.ckpt")
    assert model.hyper.lookback_hours == 12

    assert run_cli("forecast", "--out", out, "--horizon", 120) == 0
    forecast = load_forecast_csv(out / "forecast.csv")
    assert forecast.spine_ids() == [0, 1, 2]
    assert all(len(forecast.per_spine[s]) == 120 for s in forecast.spine_ids())

    # dead-zone thresholds: empty journal, still exit 0
    dead_zone = tmp_path / "dead_zone.json"
    dead_zone.write_text(json.dumps(dict(SMALL_CONFIG, policy={
        "remove_threshold_us": 0.001, "add_threshold_us": 10000.0})))
    assert run_cli("decide", "--config", dead_zone, "--out", out) == 0
    assert (out / "journal.log").read_text() == ""


@pytest.mark.parametrize("hours", [24, 30, 36])
def test_stage_chain_writes_the_bytes_of_a_one_cycle_run(tmp_path, hours):
    # each CLI stage runs the closed loop's own stage code, so the chain is
    # the first cycle of `run`, decision included
    cfg = acting_cfg()
    cfg.run.cycles, cfg.run.hours_per_cycle, cfg.run.horizon_hours = 1, hours, 24
    cfg.training.hidden_size, cfg.training.conv_channels, cfg.training.epochs = 8, 4, 1
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    chain, loop = tmp_path / "chain", tmp_path / "run"
    assert run_cli("simulate", "--config", path, "--duration-hours", hours, "--out", chain) == 0
    assert run_cli("train", "--config", path, "--out", chain) == 0
    assert run_cli("forecast", "--out", chain, "--horizon", 24) == 0
    assert run_cli("decide", "--config", path, "--out", chain) == 0
    assert run_cli("run", "--config", path, "--out", loop) == 0
    assert replay_journal(chain / "journal.log")
    for name in ("telemetry.log", "model.ckpt", "forecast.csv", "journal.log"):
        assert (chain / name).read_bytes() == (loop / name).read_bytes(), name


def test_train_and_forecast_take_the_log_of_a_run_that_acted(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(acting_cfg(), path)
    run = tmp_path / "run"
    assert run_cli("run", "--config", path, "--out", run) == 0
    assert [(e.cycle, e.kind, e.spine_id) for e in replay_journal(run / "journal.log")] == \
        ACTING_ACTIONS
    written = (run / "forecast.csv").read_bytes()
    assert run_cli("forecast", "--out", run, "--horizon", 24) == 0
    assert (run / "forecast.csv").read_bytes() == written
    assert run_cli("train", "--config", path, "--telemetry", run / "telemetry.log",
                   "--out", tmp_path / "retrained") == 0


def test_decide_writes_expected_removals(empty_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    fc = Forecast(horizon=6, per_spine={0: np.full(6, 3.0), 1: np.full(6, 9.0),
                                        2: np.full(6, 9.5), 3: np.full(6, 4.5)})
    save_forecast_csv(fc, out / "forecast.csv")
    assert run_cli("decide", "--config", empty_config, "--out", out) == 0
    entries = replay_journal(out / "journal.log")
    assert [(e.kind, e.spine_id) for e in entries] == [("remove_spine", 0),
                                                       ("remove_spine", 3)]
    assert all(e.remove_threshold_us == 6.0 for e in entries)
    assert sha256(out / "journal.log") == \
        "2df47b163cfc43f86b1cc2184efed77760d100927b59712ae259a2f400d41e94"

    # both spines are below 5 us, but min_spines 3 leaves room for one removal
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": {"min_spines": 3},
                                "policy": {"remove_threshold_us": 5.0}}))
    assert run_cli("decide", "--config", path, "--out", out) == 0
    entries = replay_journal(out / "journal.log")
    assert [(e.kind, e.spine_id, e.remove_threshold_us) for e in entries] == \
        [("remove_spine", 0, 5.0)]


def test_export_plots_row_counts(empty_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rng = np.random.default_rng(0)
    fc = Forecast(horizon=120, per_spine={s: rng.uniform(7, 11, 120) for s in range(5)})
    save_forecast_csv(fc, out / "forecast.csv")
    assert run_cli("export-plots", "--config", empty_config, "--out", out) == 0
    data = (out / "plot_latency.csv").read_text().splitlines()
    assert data[0] == "hour,spine_id,predicted_latency_us"
    assert len(data) - 1 == 5 * 120
    cands = (out / "plot_candidates.csv").read_text().splitlines()
    assert cands[0] == "spine_id,mean_predicted_latency_us,hours_below_threshold"
    assert len(cands) == 1          # dead zone: no candidates


def test_export_plots_empty_forecast(empty_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    save_forecast_csv(Forecast(horizon=0, per_spine={}), out / "forecast.csv")
    assert run_cli("export-plots", "--config", empty_config, "--out", out) == 0
    assert (out / "plot_latency.csv").read_text() == "hour,spine_id,predicted_latency_us\n"


def test_decide_on_an_empty_forecast_writes_an_empty_journal(empty_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    save_forecast_csv(Forecast(horizon=0, per_spine={}), out / "forecast.csv")
    assert run_cli("decide", "--config", empty_config, "--out", out) == 0
    assert (out / "journal.log").read_bytes() == b""


def test_export_plots_candidates_match_decide(empty_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    fc = Forecast(horizon=10, per_spine={0: np.full(10, 3.2), 1: np.full(10, 9.0),
                                         2: np.full(10, 4.8), 3: np.full(10, 9.1),
                                         4: np.full(10, 2.9)})
    save_forecast_csv(fc, out / "forecast.csv")
    assert run_cli("decide", "--config", empty_config, "--out", out) == 0
    assert run_cli("export-plots", "--config", empty_config, "--out", out) == 0
    removed = [e.spine_id for e in replay_journal(out / "journal.log")]
    cand_rows = (out / "plot_candidates.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in cand_rows] == removed
    assert all(int(r.split(",")[2]) == 10 for r in cand_rows)
    assert sha256(out / "journal.log") == \
        "4ecedb2ac2c513d9b0eb910f45ef0010766a015ebb667999cd1cf5b427983915"
    assert sha256(out / "plot_candidates.csv") == \
        "d8210df09c902e990fa45af4d5d95c52d2b8948362b21c82222cfd7b08968a72"
    assert (out / "plot_latency.csv").read_bytes() == (out / "forecast.csv").read_bytes()


def test_run_closed_loop_idle(config_path, tmp_path):
    from pathlib import Path

    out = tmp_path / "out"
    assert run_cli("run", "--config", config_path, "--out", out) == 0
    manifest = json.loads((out / "manifest").read_text())
    assert [c["active_spines"] for c in manifest["cycles"]] == [[0, 1, 2], [0, 1, 2]]
    for key, path in manifest["artifacts"].items():
        assert Path(path).exists(), f"missing artifact {key}: {path}"


def test_run_deterministic_artifacts(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("run", "--config", config_path, "--out", out1) == 0
    assert run_cli("run", "--config", config_path, "--out", out2) == 0
    for name in ("telemetry.log", "model.ckpt", "forecast.csv", "journal.log"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bad_config_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": {"n_leaf": 0}}))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", bad, "--duration-hours", 1, "--out", out) == 2
    assert "n_leaf" in capsys.readouterr().err


def test_os_error_nonzero_exit(config_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a regular file, not a directory\n")
    assert run_cli("simulate", "--config", config_path, "--duration-hours", 1,
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith("error [simulate]: ")


def test_bad_config_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    for bad in ({"seed": "abc"}, {"topology": {"n_leaf": "3"}},
                {"policy": {"remove_threshold_us": float("nan")}}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run_cli("run", "--config", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error [run]: ")
        assert not out.exists()


@pytest.mark.parametrize("mutate", MALFORMED_RECORDS)
def test_forecast_on_a_malformed_checkpoint_exits_2(tmp_path, capsys, mutate):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "model.ckpt"
    save_checkpoint(init_model(SMALL, seed=3), path)
    path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
    assert run_cli("forecast", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [forecast]: ") and str(path) in err


@pytest.mark.parametrize("command", ["decide", "export-plots"])
@pytest.mark.parametrize("spine", [8, -1])
def test_a_forecast_naming_a_spine_the_fabric_lacks_exits_2(empty_config, tmp_path, capsys,
                                                            command, spine):
    out = tmp_path / "out"
    out.mkdir()
    save_forecast_csv(Forecast(horizon=4, per_spine={0: np.full(4, 3.0), 1: np.full(4, 9.0),
                                                     spine: np.full(4, 3.0)}),
                      out / "forecast.csv")
    assert run_cli(command, "--config", empty_config, "--out", out) == 2
    assert f"[{spine}]" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["forecast.csv"]


def test_decide_and_export_plots_take_the_forecast_of_a_run_that_added_spines(tmp_path):
    # two spines configured, room for four: each cycle adds the lowest free
    # id, so the last cycle forecasts spine 2, which n_spine does not name
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        SMALL_CONFIG,
        topology=dict(SMALL_CONFIG["topology"], n_spine=2, min_spines=1, max_spines=4),
        policy={"remove_threshold_us": 0.001, "add_threshold_us": 0.002,
                "cooldown_cycles": 0})))
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 0
    assert [(e.cycle, e.kind) for e in replay_journal(out / "journal.log")] == \
        [(0, "add_spine"), (1, "add_spine")]
    assert load_forecast_csv(out / "forecast.csv").spine_ids() == [0, 1, 2]
    assert run_cli("decide", "--config", path, "--out", out) == 0
    assert [(e.kind, e.spine_id) for e in replay_journal(out / "journal.log")] == \
        [("add_spine", None)]
    assert run_cli("export-plots", "--config", path, "--out", out) == 0
    assert load_forecast_csv(out / "plot_latency.csv").spine_ids() == [0, 1, 2]


@pytest.mark.parametrize("values", [("nan", "nan"), ("inf", "-inf")])
def test_decide_on_a_non_finite_forecast_exits_2_naming_the_line(empty_config, tmp_path, capsys,
                                                                 values):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "forecast.csv"
    path.write_text("hour,spine_id,predicted_latency_us\n"
                    + "".join(f"{hour},{spine},{value}\n"
                              for spine, value in enumerate(values) for hour in (1, 2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("decide", "--config", empty_config, "--out", out) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error [decide]: ") and f"{path}: line 2: '{values[0]}'" in err
    assert sorted(p.name for p in out.iterdir()) == ["forecast.csv"]


@pytest.mark.parametrize("command, name", [("run", "config.json"), ("decide", "forecast.csv"),
                                           ("forecast", "model.ckpt")])
def test_an_input_file_that_is_not_utf8_exits_2(empty_config, tmp_path, capsys, command, name):
    out = tmp_path / "out"
    out.mkdir()
    path = (tmp_path if command == "run" else out) / name
    path.write_bytes(b"\xff\n")
    config = {"run": ["--config", path], "decide": ["--config", empty_config], "forecast": []}
    assert run_cli(command, *config[command], "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: ") and str(path) in err


def test_missing_artifacts_nonzero_exit(empty_config, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("forecast", "--out", out) == 2
    err = capsys.readouterr().err
    assert "model.ckpt" in err
    (out / "forecast.csv").write_text("hour,spine_id,predicted_latency_us\n2,0,5.0\n")
    assert run_cli("decide", "--config", empty_config, "--out", out) == 2
    assert "forecast" in capsys.readouterr().err
