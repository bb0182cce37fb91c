"""The mutant catalogue: one-edit changes of `src/` that the test suite
must notice, each with the test ids expected to kill it.

`python tests/mutate.py` applies them one at a time to a copy of the tree
(see its docstring). A change that adds a rule adds its mutant here, with
the test that kills it. An entry marked `equivalent` changes no behaviour
the suite can see, or none on purpose; it is listed so that no one chases
it, and the runner expects it to survive.
"""

from __future__ import annotations

from dataclasses import dataclass

PIPELINE = "src/spinescale/pipeline.py"
POLICY = "src/spinescale/policy.py"
T_PIPE = "tests/test_pipeline.py"
T_POLICY = "tests/test_policy.py"
ACTING_GOLDEN = f"{T_PIPE}::test_acting_closed_loop_golden"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                   # relative to the repository root
    old: str                    # must occur exactly once in the file
    new: str
    kills: tuple[str, ...]      # pytest ids, run with -x in this order
    equivalent: bool = False


MUTANTS = [
    # -- the five behaviour changes that passed all of Tier-1 before they got a test
    Mutant("train-keeps-last-epoch", "src/spinescale/forecaster.py",
           "    model.theta[...] = best\n", "",
           ("tests/test_forecaster.py::test_train_returns_the_best_epochs_parameters_not_the_last",)),
    Mutant("re-added-spine-gets-one-slot", "src/spinescale/fabric.py",
           "sid: topology.spine_slots.get(sid, 1)}", "sid: 1}",
           ("tests/test_fabric.py::test_a_re_added_spine_keeps_its_hash_slots",)),
    Mutant("constant-channel-span-1e-12", "src/spinescale/windows.py",
           "np.where(span == 0.0, 1.0, span)", "np.where(span == 0.0, 1e-12, span)",
           ("tests/test_windows.py::"
            "test_scaler_fitted_on_a_constant_channel_shifts_new_data_by_the_constant",)),
    Mutant("split-rounds-the-cut", "src/spinescale/windows.py",
           "cut = int(len(s) * (1.0 - val_fraction))",
           "cut = round(len(s) * (1.0 - val_fraction))",
           ("tests/test_windows.py::test_split_train_val_truncates_a_half_hour_cut",)),
    Mutant("split-skipped-at-one-window", PIPELINE,
           "default=0) < lookback + horizon:", "default=0) <= lookback + horizon:",
           (f"{T_PIPE}::test_build_datasets_keeps_the_split_when_each_side_holds_exactly_one_window",)),
    Mutant("aggregate-without-finite-check", "src/spinescale/windows.py",
           "        if not np.isfinite(means[lo:hi]).all():\n"
           "            raise DataError(f\"non-finite aggregate for spine {spine_id}\")\n", "",
           ("tests/test_windows.py::test_aggregate_refuses_a_non_finite_mean",)),
    # -- equivalent, or nearly: listed so that no one chases them
    Mutant("train-on-active-spines", PIPELINE,
           "train_from_series(cfg, [history[sid] for sid in sorted(history)]",
           "train_from_series(cfg, [history[sid] for sid in topology.active_spine_ids]",
           (ACTING_GOLDEN, f"{T_PIPE}::test_closed_loop_retrain_each_cycle"), equivalent=True),
    Mutant("best-epoch-on-equal-loss", "src/spinescale/forecaster.py",
           "if select < best_loss:", "if select <= best_loss:",
           ("tests/test_forecaster.py::test_train_returns_the_best_epochs_parameters_not_the_last",
            ACTING_GOLDEN), equivalent=True),
    # -- the policy
    Mutant("policy-cooldown-inclusive", POLICY,
           "if cycles_since_last_action < config.cooldown_cycles",
           "if cycles_since_last_action <= config.cooldown_cycles",
           (f"{T_POLICY}::test_cooldown_blocks_all_actions",
            f"{T_POLICY}::test_randomized_instances_match_oracle")),
    Mutant("policy-tie-break-higher-id", POLICY,
           "candidates.sort(key=lambda c: (c[0], c[1]))",
           "candidates.sort(key=lambda c: (c[0], -c[1]))",
           (f"{T_POLICY}::test_tie_break_on_equal_means_prefers_lower_id",)),
    Mutant("policy-add-threshold-inclusive", POLICY,
           "if aggregate > config.add_threshold_us", "if aggregate >= config.add_threshold_us",
           ("tests/test_acceptance.py::test_criterion_5_policy_properties",)),
    Mutant("policy-horizon-fraction-strict", POLICY,
           "if below >= config.horizon_fraction:", "if below > config.horizon_fraction:",
           (f"{T_POLICY}::test_horizon_fraction_partial_condition",)),
    Mutant("policy-max-aggregate-is-min", POLICY,
           "aggregate = float(np.max(", "aggregate = float(np.min(",
           (f"{T_POLICY}::test_add_aggregate_max_mode",)),
    Mutant("policy-removal-records-the-threshold", POLICY,
           "                             mean_pred)\n",
           "                             config.remove_threshold_us)\n",
           (f"{T_POLICY}::test_two_low_spines_removed_in_mean_order",)),
    Mutant("policy-add-reason-always-mean", POLICY,
           'f"{config.add_aggregate}-above-add-threshold"', '"mean-above-add-threshold"',
           (f"{T_POLICY}::test_add_aggregate_max_mode",)),
    # -- the closed loop
    Mutant("loop-cooldown-counter-stuck", PIPELINE,
           "0 if actions else state.cycles_since_action + 1",
           "0 if actions else state.cycles_since_action", (ACTING_GOLDEN,)),
    Mutant("loop-first-cycle-in-cooldown", PIPELINE,
           "{}, None, cfg.policy.cooldown_cycles, 0)", "{}, None, 0, 0)", (ACTING_GOLDEN,)),
    Mutant("extend-history-across-a-gap", PIPELINE,
           "prev.start_hour + len(prev) == s.start_hour",
           "prev.start_hour + len(prev) <= s.start_hour",
           (f"{T_PIPE}::test_append_history_contiguous_merge_and_reset",)),
    Mutant("forecast-not-clamped-at-zero", "src/spinescale/forecaster.py",
           "np.resize(np.maximum(model.scaler.invert_latency(row[n:, 0]), 0.0),",
           "np.resize(model.scaler.invert_latency(row[n:, 0]),",
           ("tests/test_forecaster.py::test_wavefront_forecast_equals_per_hour_loop",)),
    Mutant("added-spine-takes-highest-free-id", "src/spinescale/fabric.py",
           "sid = next(s for s in range(len(active) + 1) if s not in active)",
           "sid = next(s for s in reversed(range(topology.max_spines)) if s not in active)",
           (ACTING_GOLDEN,)),
    # -- persistence and config
    Mutant("append-log-keeps-a-torn-line", "src/spinescale/telemetry.py",
           "self.size = lines.rfind(b\"\\n\") + 1", "self.size = len(lines)",
           ("tests/test_telemetry.py::test_torn_last_line_dropped_and_truncated",)),
    Mutant("append-log-no-rollback", "src/spinescale/telemetry.py",
           "                os.truncate(self.path, self.size)\n", "",
           ("tests/test_telemetry.py::test_failed_write_leaves_no_partial_record",)),
    Mutant("flows-per-pair-zero-accepted", "src/spinescale/config.py",
           "if self.flows_per_pair < 1:", "if self.flows_per_pair < 0:",
           ("tests/test_config.py::test_invalid_values_rejected",)),
    Mutant("failed-manifest-says-ok", PIPELINE,
           'manifest.status, manifest.error = "failed",', 'manifest.status, manifest.error = "ok",',
           (f"{T_PIPE}::test_a_failing_cycle_still_writes_the_manifest_and_raises",)),
    # -- run_cycle and loop_state_from_dir
    Mutant("checkpoint-saved-only-when-the-cycle-ends-well", PIPELINE,
           "    finally:\n        if model is not state.model:\n"
           "            save_checkpoint(model, out / CHECKPOINT_FILE)\n",
           "    except BaseException:\n        raise\n    if model is not state.model:\n"
           "        save_checkpoint(model, out / CHECKPOINT_FILE)\n",
           (f"{T_PIPE}::test_a_failing_cycle_still_writes_the_manifest_and_raises",)),
    Mutant("checkpoint-of-the-first-model-only", PIPELINE,
           "if model is not state.model:", "if state.model is None:",
           (f"{T_PIPE}::test_a_state_rebuilt_after_k_cycles_folds_on_to_the_uninterrupted_bytes",)),
    Mutant("rebuild-accepts-a-log-inside-a-cycle", PIPELINE,
           "    if end % hours:\n", "    if False:\n",
           (f"{T_PIPE}::test_a_run_directory_that_disagrees_with_itself_is_refused",)),
    Mutant("rebuild-accepts-a-journal-cycle-at-the-end", PIPELINE,
           "if last is not None and last >= cycles:", "if last is not None and last > cycles:",
           (f"{T_PIPE}::test_a_run_directory_that_disagrees_with_itself_is_refused",)),
    Mutant("rebuild-without-checkpoint-check", PIPELINE,
           "if cycles and not checkpoint.exists():", "if False:",
           (f"{T_PIPE}::test_a_run_directory_that_disagrees_with_itself_is_refused",)),
    Mutant("rebuild-lets-a-refused-action-through", PIPELINE,
           "raise ConsistencyError(f\"{journal} offset {e.offset}: {exc}\") from exc",
           "continue",
           (f"{T_PIPE}::test_a_run_directory_that_disagrees_with_itself_is_refused",)),
    Mutant("rebuild-counts-the-acting-cycle", PIPELINE,
           "else cycles - 1 - last", "else cycles - last",
           (f"{T_PIPE}::test_the_state_of_a_finished_run",)),
    Mutant("rebuild-of-an-idle-run-forgets-its-cycles", PIPELINE,
           "cfg.policy.cooldown_cycles + cycles if last is None",
           "cfg.policy.cooldown_cycles if last is None",
           (f"{T_PIPE}::test_the_state_of_a_run_that_never_acted",)),
    Mutant("rebuild-past-a-failed-cycle", PIPELINE, "if done != cycles:", "if False:",
           (f"{T_PIPE}::test_a_failing_cycle_still_writes_the_manifest_and_raises",)),
    Mutant("rebuild-reads-a-damaged-manifest", PIPELINE,
           "done = _manifest_cycles(manifest) if",
           'done = len(json.loads(manifest.read_text())["cycles"]) if',
           (f"{T_PIPE}::test_a_run_directory_that_disagrees_with_itself_is_refused",)),
]
