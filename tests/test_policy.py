from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteHandle
from oracle_policy import brute_force_actions, brute_force_candidates
from spinescale.config import load_config, policy_from_config
from spinescale.errors import (ConsistencyError, DecodeError, InvalidConfigError,
                               NotFoundError, PersistenceError)
from spinescale.forecaster import Forecast
from spinescale.policy import (ActionReason, PolicyAction, PolicyConfig, PolicyJournal,
                               decode_journal_line, encode_journal_line, evaluate,
                               replay_journal)

H = 120


def make_forecast(levels: dict[int, float], horizon: int = H, wiggle: float = 0.0,
                  seed: int = 0) -> Forecast:
    rng = np.random.default_rng(seed)
    per_spine = {}
    for sid, level in levels.items():
        values = np.full(horizon, level, dtype=float)
        if wiggle:
            values = values + rng.uniform(-wiggle, wiggle, size=horizon)
        per_spine[sid] = values
    return Forecast(horizon=horizon, per_spine=per_spine)


def cfg(**over) -> PolicyConfig:
    base = dict(remove_threshold_us=6.0, add_threshold_us=12.0, min_spines=2,
                max_spines=8, cooldown_cycles=0, horizon_fraction=1.0, add_aggregate="mean")
    base.update(over)
    return PolicyConfig(**base)


def as_pairs(actions):
    return [(a.kind, a.spine_id) for a in actions]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(remove_threshold_us=12.0, add_threshold_us=6.0),
    dict(min_spines=0),
    dict(min_spines=9, max_spines=8),
    dict(horizon_fraction=0.0),
    dict(horizon_fraction=1.5),
    dict(cooldown_cycles=-1),
    dict(add_aggregate="median"),
])
def test_policy_config_rejects(bad):
    with pytest.raises(InvalidConfigError):
        cfg(**bad)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_two_low_spines_removed_in_mean_order():
    fc = make_forecast({0: 4.2, 1: 8.0, 2: 9.0, 3: 8.5, 4: 3.9}, wiggle=0.4)
    actions = evaluate(fc, cfg(), [0, 1, 2, 3, 4], cycles_since_last_action=99)
    assert as_pairs(actions) == [("remove_spine", 4), ("remove_spine", 0)]
    for a in actions:
        assert a.reason.detail.startswith("below-remove-threshold")
        assert a.reason.threshold_us == 6.0


def test_dead_zone_emits_nothing():
    fc = make_forecast({0: 7.0, 1: 8.0, 2: 9.0, 3: 10.0, 4: 11.0}, wiggle=0.5)
    assert evaluate(fc, cfg(), [0, 1, 2, 3, 4], 99) == []


def test_floor_limits_removals_to_lowest_means():
    # 4 candidates, 5 active, min_spines=2 -> exactly the 3 lowest means
    levels = {0: 5.0, 1: 4.0, 2: 3.0, 3: 5.5, 4: 9.0}
    fc = make_forecast(levels)
    actions = evaluate(fc, cfg(), list(levels), 99)
    assert as_pairs(actions) == [("remove_spine", 2), ("remove_spine", 1),
                                 ("remove_spine", 0)]
    # cross-check against exhaustive enumeration
    assert as_pairs(actions) == brute_force_actions(fc, cfg(), sorted(levels), 99)


def test_tie_break_on_equal_means_prefers_lower_id():
    fc = make_forecast({3: 4.0, 1: 4.0, 2: 9.0, 0: 9.0})
    actions = evaluate(fc, cfg(), [0, 1, 2, 3], 99)
    assert as_pairs(actions) == [("remove_spine", 1), ("remove_spine", 3)]


def test_cooldown_blocks_all_actions():
    fc = make_forecast({0: 3.0, 1: 9.0, 2: 9.0})
    config = cfg(cooldown_cycles=24)
    assert evaluate(fc, config, [0, 1, 2], 23) == []
    assert as_pairs(evaluate(fc, config, [0, 1, 2], 24)) == [("remove_spine", 0)]


def test_add_when_aggregate_exceeds_threshold():
    fc = make_forecast({0: 14.0, 1: 15.0, 2: 13.0})
    actions = evaluate(fc, cfg(), [0, 1, 2], 99)
    assert as_pairs(actions) == [("add_spine", None)]
    assert actions[0].reason.statistic_us == pytest.approx(14.0)


def test_no_add_at_max_spines():
    fc = make_forecast({0: 14.0, 1: 15.0})
    assert evaluate(fc, cfg(max_spines=2), [0, 1], 99) == []


def test_removal_and_addition_mutually_exclusive():
    # one clear removal candidate plus a sky-high aggregate: removal wins
    fc = make_forecast({0: 3.0, 1: 40.0, 2: 40.0, 3: 40.0})
    actions = evaluate(fc, cfg(), [0, 1, 2, 3], 99)
    assert as_pairs(actions) == [("remove_spine", 0)]


def test_add_aggregate_max_mode():
    fc = make_forecast({0: 7.0, 1: 13.0})
    assert evaluate(fc, cfg(), [0, 1], 99) == []                      # mean = 10
    actions = evaluate(fc, cfg(add_aggregate="max"), [0, 1], 99)     # max mean = 13
    assert as_pairs(actions) == [("add_spine", None)]


def test_horizon_fraction_partial_condition():
    values = np.full(H, 9.0)
    values[:90] = 4.0            # below threshold 75% of the horizon
    fc = Forecast(horizon=H, per_spine={0: values, 1: np.full(H, 9.0), 2: np.full(H, 9.0)})
    assert evaluate(fc, cfg(horizon_fraction=1.0), [0, 1, 2], 99) == []
    actions = evaluate(fc, cfg(horizon_fraction=0.75), [0, 1, 2], 99)
    assert as_pairs(actions) == [("remove_spine", 0)]


def test_forecast_spine_mismatch_raises():
    fc = make_forecast({0: 5.0, 1: 5.0})
    with pytest.raises(ConsistencyError):
        evaluate(fc, cfg(), [0, 1, 2], 99)
    with pytest.raises(ConsistencyError):
        evaluate(fc, cfg(), [0], 99)


def test_evaluate_pure_function():
    fc = make_forecast({0: 4.0, 1: 9.0, 2: 9.0}, wiggle=0.3)
    a = evaluate(fc, cfg(), [0, 1, 2], 99)
    b = evaluate(fc, cfg(), [0, 1, 2], 99)
    assert as_pairs(a) == as_pairs(b)


def test_threshold_monotonicity_set_inclusion():
    rng = np.random.default_rng(1)
    for _ in range(50):
        levels = {sid: float(rng.uniform(2, 14)) for sid in range(5)}
        fc = make_forecast(levels, wiggle=1.0, seed=int(rng.integers(1 << 31)))
        low = brute_force_candidates(fc, cfg(remove_threshold_us=5.0), list(levels))
        high = brute_force_candidates(fc, cfg(remove_threshold_us=8.0), list(levels))
        assert set(low) <= set(high)
        # evaluate must qualify exactly the oracle's candidates (floor off)
        config = cfg(remove_threshold_us=8.0, min_spines=1, add_threshold_us=9.0)
        got = [a.spine_id for a in evaluate(fc, config, list(levels), 99)
               if a.kind == "remove_spine"]
        allowed = len(levels) - config.min_spines
        assert set(got) <= set(high) and len(got) == min(len(high), allowed)


def test_order_invariance_under_spine_relabeling():
    levels = {0: 4.1, 1: 9.0, 2: 3.2, 3: 9.5, 4: 5.9}
    fc = make_forecast(levels)
    removed = {a.spine_id for a in evaluate(fc, cfg(), list(levels), 99)}
    perm = {0: 10, 1: 11, 2: 12, 3: 13, 4: 14}
    fc2 = Forecast(horizon=H, per_spine={perm[s]: v for s, v in fc.per_spine.items()})
    removed2 = {a.spine_id for a in evaluate(fc2, cfg(), list(perm.values()), 99)}
    assert removed2 == {perm[s] for s in removed}


def test_actions_apply_cleanly_and_respect_topology_bounds():
    # the policy's output must always be applicable to a live fabric
    from spinescale.config import TopologyConfig
    from spinescale.fabric import apply_action, build_topology

    rng = np.random.default_rng(3)
    for _ in range(100):
        n_spine = int(rng.integers(2, 7))
        min_spines = int(rng.integers(1, n_spine + 1))
        topo = build_topology(TopologyConfig(2, n_spine, 10 ** 9, 3.0,
                                             min_spines=min_spines, max_spines=n_spine + 2))
        fc = Forecast(horizon=12, per_spine={
            sid: rng.uniform(1.0, 15.0, size=12) for sid in topo.active_spine_ids})
        config = cfg(min_spines=min_spines, max_spines=n_spine + 2)
        for action in evaluate(fc, config, topo.active_spine_ids, 99):
            topo = apply_action(topo, action)   # must never raise
        assert topo.min_spines <= len(topo.active_spine_ids) <= topo.max_spines


def test_randomized_instances_match_oracle():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n_spines = int(rng.integers(2, 8))
        active = sorted(rng.choice(20, size=n_spines, replace=False).tolist())
        horizon = int(rng.integers(1, 50))
        fc = Forecast(horizon=horizon, per_spine={
            sid: rng.uniform(0.5, 16.0, size=horizon) for sid in active})
        config = cfg(
            remove_threshold_us=float(rng.uniform(2, 8)),
            add_threshold_us=float(rng.uniform(9, 15)),
            min_spines=int(rng.integers(1, n_spines + 1)),
            max_spines=int(rng.integers(n_spines, n_spines + 4)),
            cooldown_cycles=int(rng.integers(0, 4)),
            horizon_fraction=float(rng.uniform(0.05, 1.0)),
            add_aggregate="max" if rng.random() < 0.3 else "mean",
        )
        since = int(rng.integers(0, 6))
        got = as_pairs(evaluate(fc, config, active, since))
        want = brute_force_actions(fc, config, active, since)
        assert got == want, f"trial {trial}: {got} != {want}"


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------

def one_action():
    fc = make_forecast({0: 3.0, 1: 9.0, 2: 9.0})
    return evaluate(fc, cfg(), [0, 1, 2], 99)[0]


def test_journal_first_offset_zero(tmp_path):
    with PolicyJournal(tmp_path / "journal.log") as journal:
        assert journal.append(one_action(), cfg(), "abc123") == 0


def test_journal_replay_reconstructs_sequence(tmp_path):
    path = tmp_path / "journal.log"
    fc = make_forecast({0: 3.0, 1: 3.5, 2: 9.0, 3: 9.2, 4: 9.4})
    actions = evaluate(fc, cfg(), [0, 1, 2, 3, 4], 99)
    assert len(actions) == 2
    with PolicyJournal(path) as journal:
        for a in actions:
            journal.append(a, cfg(), "feedbeef1234")
    entries = replay_journal(path)
    assert [(e.kind, e.spine_id) for e in entries] == as_pairs(actions)
    assert all(e.forecast_digest == "feedbeef1234" for e in entries)
    # reopening appends after existing entries
    with PolicyJournal(path) as journal:
        assert journal.append(one_action(), cfg(), "feedbeef1234") == 2


def test_journal_append_returns_the_offset_replay_gives(tmp_path):
    # replay numbers entries by line index, blank lines included
    path = tmp_path / "journal.log"
    with PolicyJournal(path) as journal:
        assert journal.append(one_action(), cfg(), "aaaa00000000") == 0
    with path.open("a") as fh:
        fh.write("\n")
    with PolicyJournal(path) as journal:
        assert journal.append(one_action(), cfg(), "bbbb00000000") == 2
        assert [e.offset for e in journal.entries] == [0, 2]
    assert [e.offset for e in replay_journal(path)] == [0, 2]


def test_journal_three_cycles_in_order(tmp_path):
    path = tmp_path / "journal.log"
    fc_low = make_forecast({0: 3.0, 1: 3.5, 2: 9.0, 3: 9.2, 4: 9.4})
    removals = evaluate(fc_low, cfg(), [0, 1, 2, 3, 4], 99)
    fc_high = make_forecast({2: 14.0, 3: 15.0, 4: 16.0}, horizon=6)
    adds = evaluate(fc_high, cfg(), [2, 3, 4], 99, decision_cycle=2)
    with PolicyJournal(path) as journal:
        for a in removals + adds:
            journal.append(a, cfg(), "d19e57000000")
    entries = replay_journal(path)
    assert len(entries) == 3
    assert [e.kind for e in entries] == ["remove_spine", "remove_spine", "add_spine"]
    assert [e.cycle for e in entries] == [0, 0, 2]
    assert entries[2].spine_id is None


def test_journal_torn_last_line_dropped_and_truncated(tmp_path):
    path = tmp_path / "journal.log"
    with PolicyJournal(path) as journal:
        journal.append(one_action(), cfg(), "aaaa00000000")
        journal.append(one_action(), cfg(), "bbbb00000000")
    good = path.read_text()
    path.write_text(good + good.splitlines()[0][:30])
    with PolicyJournal(path) as journal:
        assert len(journal.entries) == 2
        assert path.read_text() == good
        assert journal.append(one_action(), cfg(), "cccc00000000") == 2
    assert [e.forecast_digest for e in replay_journal(path)] == \
        ["aaaa00000000", "bbbb00000000", "cccc00000000"]

    # a complete malformed line still fails, naming its offset
    path.write_text(good + good.splitlines()[0][:30] + "\n")
    with pytest.raises(DecodeError, match="offset 2"):
        replay_journal(path)


@pytest.mark.parametrize("first, second, bad_offset", [("\r\n", "\r", 0), ("\n", "\r\n", 1),
                                                       ("\n", "\r", 1)])
def test_replay_rejects_carriage_returns_between_entries(first, second, bad_offset, tmp_path):
    lines = [encode_journal_line(one_action(), cfg(), digest)
             for digest in ("aaaa00000000", "bbbb00000000", "cccc00000000")]
    path = tmp_path / "journal.log"
    path.write_bytes((lines[0] + first + lines[1] + second + lines[2] + "\n").encode())
    with pytest.raises(DecodeError, match=f"offset {bad_offset}"):
        replay_journal(path)


def test_replay_rejects_a_line_that_is_not_utf8(tmp_path):
    line = encode_journal_line(one_action(), cfg(), "aaaa00000000") + "\n"
    path = tmp_path / "journal.log"
    path.write_bytes(line.encode() + b"\xff" + line.encode())
    with pytest.raises(DecodeError, match="offset 1"):
        replay_journal(path)


def test_replay_of_a_missing_journal_raises_and_creates_no_file(tmp_path):
    with pytest.raises(NotFoundError):
        replay_journal(tmp_path / "journal.log")
    assert list(tmp_path.iterdir()) == []


def test_journal_on_a_directory_is_persistence_error(tmp_path):
    with pytest.raises(PersistenceError):
        PolicyJournal(tmp_path)


def test_journal_line_format():
    action = one_action()
    line = encode_journal_line(action, cfg(), "cafe00000000")
    entry = decode_journal_line(line, offset=0)
    assert entry.kind == "remove_spine"
    assert entry.spine_id == 0
    assert entry.remove_threshold_us == 6.0
    assert entry.add_threshold_us == 12.0
    keys = [part.split("=")[0] for part in line.split(" ")]
    assert keys == ["cycle", "kind", "spine", "reason", "remove_thr", "add_thr",
                    "mean_pred", "digest"]


def test_journal_writes_integer_thresholds_from_config_as_floats(tmp_path):
    # JSON 6 and 12 load as ints; the line must still be one replay accepts
    config_path = tmp_path / "config.json"
    config_path.write_text('{"policy": {"remove_threshold_us": 6, "add_threshold_us": 12}}')
    config = policy_from_config(load_config(config_path))
    assert type(config.remove_threshold_us) is int
    path = tmp_path / "journal.log"
    with PolicyJournal(path) as journal:
        journal.append(one_action(), config, "abc123")
    assert " remove_thr=6.0 add_thr=12.0 " in path.read_text()
    [entry] = replay_journal(path)
    assert (entry.remove_threshold_us, entry.add_threshold_us) == (6.0, 12.0)


def test_journal_parser_rejects_what_the_encoder_never_writes():
    line = encode_journal_line(one_action(), cfg(), "cafe00000000")
    decode_journal_line(line, offset=0)
    for old, new in [("kind=remove_spine", "kind=bogus"),
                     ("spine=0", "spine=-"),                  # only an addition has none
                     ("spine=0", "spine=00"),
                     ("cycle=0", "cycle=1_0"),
                     ("digest=cafe00000000", "digest="),
                     ("digest=cafe00000000", "digest=CAFE00000000"),
                     ("remove_thr=6.0 add_thr=12.0", "remove_thr=nan add_thr=-inf"),
                     ("add_thr=12.0", "add_thr=12"),
                     ("add_thr=12.0", "add_thr=1_2.0"),
                     ("mean_pred=", "mean_pred=+"),
                     (" reason=", "  reason=")]:
        bad = line.replace(old, new)
        assert bad != line
        with pytest.raises(DecodeError, match="offset 4"):
            decode_journal_line(bad, offset=4)
    keys = line.split(" ")
    with pytest.raises(DecodeError):     # the old parser took any key order
        decode_journal_line(" ".join(keys[1:] + keys[:1]), offset=4)


def test_journal_append_rejects_unreplayable_line_before_writing(tmp_path):
    path = tmp_path / "journal.log"
    with PolicyJournal(path) as journal:
        with pytest.raises(DecodeError):
            journal.append(one_action(), cfg(), "not-hex")
        assert journal.entries == []
    assert path.read_text() == ""


def test_journal_write_failure_keeps_no_entry(tmp_path):
    # N good appends, the first before the journal is reopened; a write that
    # lands half a line and raises or reports the short count must leave
    # exactly the N appends' bytes, also after a good append between failures
    for raises in (True, False):
        path = tmp_path / f"journal-{raises}.log"
        with PolicyJournal(path) as journal:
            journal.append(one_action(), cfg(), "aaaa00000000")
        with PolicyJournal(path) as journal:
            real = journal._log._handle
            for digest in ("bbbb00000000", "cccc00000000"):
                journal.append(one_action(), cfg(), digest)
                good = path.read_bytes()
                journal._log._handle = HalfWriteHandle(real, raises=raises)
                with pytest.raises(PersistenceError):
                    journal.append(one_action(), cfg(), "ffff00000000")
                assert path.read_bytes() == good
                journal._log._handle = real
            assert [e.forecast_digest for e in journal.entries] == [
                "aaaa00000000", "bbbb00000000", "cccc00000000"]
            assert journal.append(one_action(), cfg(), "dddd00000000") == 3
        assert [e.forecast_digest for e in replay_journal(path)] == [
            "aaaa00000000", "bbbb00000000", "cccc00000000", "dddd00000000"]


# ---------------------------------------------------------------------------
# decode_journal_line fuzzing
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)
token = st.text(st.characters(blacklist_categories=("Z", "C")), max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)


@FUZZ
@given(cycle=st.integers(-10**9, 10**9), spine=st.one_of(st.none(), st.integers(0, 10**9)),
       detail=token, thresholds=st.tuples(finite, finite).filter(lambda t: t[0] < t[1]),
       mean_pred=st.floats(allow_nan=False), digest=st.text("0123456789abcdef", min_size=1))
def test_journal_line_roundtrips_any_valid_entry(cycle, spine, detail, thresholds, mean_pred,
                                                 digest):
    kind = "add_spine" if spine is None else "remove_spine"
    action = PolicyAction(kind=kind, spine_id=spine, decision_cycle=cycle,
                          reason=ActionReason(detail, thresholds[0], mean_pred, 1))
    entry = decode_journal_line(
        encode_journal_line(action, cfg(remove_threshold_us=thresholds[0],
                                        add_threshold_us=thresholds[1]), digest), offset=3)
    assert (entry.offset, entry.cycle, entry.kind, entry.spine_id, entry.reason,
            entry.remove_threshold_us, entry.add_threshold_us, entry.mean_pred_us,
            entry.forecast_digest) == (3, cycle, kind, spine, detail, *thresholds, mean_pred,
                                       digest)


# lines made of the journal keys (and a stray one) with arbitrary values
near_lines = st.lists(st.tuples(st.sampled_from(("cycle", "kind", "spine", "reason",
                                                 "remove_thr", "add_thr", "mean_pred",
                                                 "digest", "x")),
                                st.text(max_size=8)), max_size=10).map(
    lambda parts: " ".join(f"{k}={v}" for k, v in parts))


# a valid line with one field's value replaced, often by a number or a near miss
GOOD_JOURNAL_LINE = ("cycle=3 kind=remove_spine spine=4 reason=below-remove-threshold-24/24h "
                     "remove_thr=6.0 add_thr=12.0 mean_pred=2.5 digest=0123abcd")
number_like = st.text("0123456789-+._einaf", max_size=10)
one_value_changed = st.tuples(st.integers(0, 7),
                              st.one_of(st.text(max_size=8), number_like)).map(
    lambda change: " ".join(part.split("=")[0] + "=" + change[1] if i == change[0] else part
                            for i, part in enumerate(GOOD_JOURNAL_LINE.split(" "))))


def reencode(entry) -> str:
    action = PolicyAction(kind=entry.kind, spine_id=entry.spine_id, decision_cycle=entry.cycle,
                          reason=ActionReason(entry.reason, 0.0, entry.mean_pred_us, 1))
    thresholds = SimpleNamespace(remove_threshold_us=entry.remove_threshold_us,
                                 add_threshold_us=entry.add_threshold_us)
    return encode_journal_line(action, thresholds, entry.forecast_digest)


@FUZZ
@given(st.one_of(st.text(), near_lines, one_value_changed))
def test_journal_decode_rejects_any_text_with_decode_error_only(line):
    try:
        entry = decode_journal_line(line, offset=5)
    except DecodeError as exc:
        assert "offset 5" in str(exc)
    else:
        assert reencode(entry) == line.removesuffix("\n")
