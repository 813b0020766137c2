"""Each output check fails on a seeded wrong answer, and a failed check
fails the command."""

import json
import math

import numpy as np

from perfbench import checks, run
from perfbench.metrics import Outcome
from perfbench.metrics import training_layers


def test_label_check_rejects_a_seeded_wrong_label():
    probabilities = np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]])
    accepted = checks.acceptable_labels(probabilities)
    assert checks.check_labels("predict", [(0, 1), (1, 0)], accepted) == []
    failures = checks.check_labels("predict", [(0, 1), (1, 2)], accepted)
    assert len(failures) == 1 and "window 1 served label 2" in failures[0]


def test_label_check_accepts_rounding_ties_only():
    probabilities = np.array([[0.4, 0.4 - 1e-7, 0.2 + 1e-7]])
    assert checks.acceptable_labels(probabilities) == [frozenset({0, 1})]


def test_stream_done_line_must_account_for_every_window():
    done = {"windows": 10, "ok": 10, "shed": 0, "deadline_exceeded": 0}
    assert checks.check_stream_done(done, 10) == []
    assert checks.check_stream_done(done, 11)
    assert checks.check_stream_done({**done, "ok": 9, "shed": 1}, 10)
    assert checks.check_stream_done(None, 10)


def test_finite_loss_check_rejects_nan_and_missing_losses():
    assert checks.check_finite("pretrain", [0.3, 0.2]) == []
    assert checks.check_finite("pretrain", [0.3, math.nan])
    assert checks.check_finite("pretrain", [0.3, math.inf])
    assert checks.check_finite("pretrain", [])


def test_band_and_compile_checks():
    assert checks.check_band("loss", 0.1, (0.05, 0.2)) == []
    assert checks.check_band("loss", 0.3, (0.05, 0.2))
    assert checks.check_band("loss", math.nan, (0.05, 0.2))
    stats = {"traces": 6, "fallbacks": 0, "quarantines": 0, "replays": 10}
    assert checks.check_compile_stats(stats, {**stats, "replays": 99}) == []
    assert checks.check_compile_stats(stats, {**stats, "traces": 7})


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    from perfbench import training

    outcome = Outcome(end_to_end={"setup_s": 1.0, "latency_p50_ms": 2.0, "throughput_per_s": 4.0})
    outcome.attempted, outcome.failed = 5, 1
    outcome.failures = checks.check_finite("adapt pre-train", [0.2, math.nan])
    monkeypatch.setattr(training, "run", lambda *args: outcome)
    code = run.main(["--workload", "adapt", "--seed", "3", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 5
    assert set(result["metrics"]) == {"setup_s", "latency_p50_ms", "throughput_per_s"}


def test_training_layers_partition_the_traced_wall_time():
    spans = {
        "pretrain": {"durations": [9.0], "notes": [900.0], "self_s": 1.0},
        "forward": {"durations": [3.0], "notes": [], "self_s": 3.0},
        "backward": {"durations": [4.0], "notes": [], "self_s": 4.0},
        "loader": {"durations": [1.0], "notes": [], "self_s": 1.0},
    }
    layers = training_layers(spans, wall=10.0, respawns=0)
    assert layers["pretrain.samples_per_s"] == 100.0
    assert layers["forward.busy_share"] == 0.3 and layers["backward.busy_share"] == 0.4
    # The pretrain loop's own second plus the second outside it.
    assert layers["unattributed_s"] == 2.0
