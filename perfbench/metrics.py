"""Names and units of every reported metric, and the per-layer arithmetic.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks that
the two agree.  Every run reports every metric of its mode, so a layer a
workload never calls reads 0 there.  Layer times are therefore reported as
shares of the traced wall time, or as rates, never as raw times: a zero is
then a measured "no work", not a time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .stats import unattributed_seconds

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
}

JIT_BUCKETS = (1, 2, 4, 8, 16, 32)

PER_LAYER: Dict[str, str] = {
    # serving.gateway
    "gateway.self_share": "share",
    "gateway.responses.200": "count",
    "gateway.responses.429": "count",
    "gateway.responses.503": "count",
    "gateway.responses.other": "count",
    # serving.ingestion
    "ingestion.busy_share": "share",
    "ingestion.windows": "count",
    # serving.server / serving.batcher
    "server.resolve_share": "share",
    "batcher.queue_share": "share",
    "batcher.batch_size.mean": "count",
    # nn.jit
    "jit.busy_share": "share",
    "jit.padded_share": "share",
    "jit.traces": "count",
    "jit.fallbacks": "count",
    **{f"jit.calls.b{b}": "count" for b in JIT_BUCKETS},
    **{f"jit.windows_per_s.b{b}": "1/s" for b in JIT_BUCKETS},
    # training
    "pretrain.busy_share": "share",
    "pretrain.samples_per_s": "1/s",
    "finetune.busy_share": "share",
    # bayesopt
    "bayesopt.self_share": "share",
    "bayesopt.evaluations": "count",
    # masking, models / nn, datasets
    "masking.busy_share": "share",
    "forward.busy_share": "share",
    "gru.busy_share": "share",
    "loss.busy_share": "share",
    "backward.busy_share": "share",
    "optim.busy_share": "share",
    "loader.busy_share": "share",
    # parallel (parent side)
    "parallel.start_share": "share",
    "parallel.close_share": "share",
    "parallel.steps_per_s": "1/s",
    "parallel.accumulate_share": "share",
    "parallel.broadcast_share": "share",
    "parallel.respawns": "count",
    # per workload
    "unattributed_s": "s",
    "tracing_overhead": "ratio",
}

#: Span labels whose self time is loop glue rather than a layer's work; it
#: counts as unattributed.
CONTAINERS = ("pretrain", "finetune", "bayesopt.evaluate", "parallel.step")

#: Compute layers reported by self time, so that their shares add up.
SELF_TIME_LAYERS = {
    "masking": "masking.busy_share",
    "forward": "forward.busy_share",
    "gru": "gru.busy_share",
    "loss": "loss.busy_share",
    "backward": "backward.busy_share",
    "optim": "optim.busy_share",
    "loader": "loader.busy_share",
    "bayesopt.search": "bayesopt.self_share",
}

Spans = Mapping[str, Mapping[str, Sequence[float]]]
"""``label -> {"durations": [...], "notes": [...], "self_s": float}``."""


@dataclass
class Outcome:
    """What one run measured and checked.

    ``detail`` holds ``(name, value, unit, samples)`` rows printed for
    people: the per-route latencies, raw layer times and check values behind
    the metrics.
    """

    end_to_end: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=lambda: {name: 0.0 for name in PER_LAYER})
    detail: List[Tuple[str, float, str, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)


def span_details(spans: Spans) -> List[Tuple[str, float, str, int]]:
    """Raw time of every traced layer: calls, busy and self seconds, median call."""
    rows = []
    for label in sorted(spans):
        durations = _durations(spans, label)
        rows.append((f"{label}.busy_s", sum(durations), "s", len(durations)))
        rows.append((f"{label}.self_s", _self(spans, label), "s", len(durations)))
        rows.append((f"{label}.call_ms.p50", 1000.0 * _median(durations), "ms", len(durations)))
    return rows


def _durations(spans: Spans, label: str) -> List[float]:
    return list(spans.get(label, {}).get("durations", ()))


def _self(spans: Spans, label: str) -> float:
    return float(spans.get(label, {}).get("self_s", 0.0))


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def unattributed(spans: Spans, wall: float) -> float:
    """Traced wall time minus the self time of every span except the
    containers, whose own time is the training loop's glue."""
    return unattributed_seconds(wall, (_self(spans, label) for label in spans if label not in CONTAINERS))


def training_layers(spans: Spans, wall: float, respawns: float) -> Dict[str, float]:
    """Per-layer metrics of a traced training run from its spans."""
    layers = {}
    for label, name in SELF_TIME_LAYERS.items():
        layers[name] = _self(spans, label) / wall
    pretrain = _durations(spans, "pretrain")
    samples = sum(spans.get("pretrain", {}).get("notes", ()))
    layers["pretrain.busy_share"] = sum(pretrain) / wall
    layers["pretrain.samples_per_s"] = samples / sum(pretrain) if pretrain else 0.0
    layers["finetune.busy_share"] = sum(_durations(spans, "finetune")) / wall
    layers["bayesopt.evaluations"] = float(len(_durations(spans, "bayesopt.evaluate")))
    layers["parallel.start_share"] = sum(_durations(spans, "parallel.start")) / wall
    layers["parallel.close_share"] = sum(_durations(spans, "parallel.close")) / wall
    step = _median(_durations(spans, "parallel.step"))
    layers["parallel.steps_per_s"] = 1.0 / step if step else 0.0
    layers["parallel.accumulate_share"] = _median(_durations(spans, "parallel.accumulate")) / step if step else 0.0
    layers["parallel.broadcast_share"] = _median(_durations(spans, "parallel.broadcast")) / step if step else 0.0
    layers["parallel.respawns"] = float(respawns)
    layers["unattributed_s"] = unattributed(spans, wall)
    return layers


def serving_layers(
    spans: Spans,
    wall: float,
    client_ms: Sequence[float],
    server_ms: Sequence[float],
    gateway_self_ms: Sequence[float],
    statuses: Mapping[str, int],
    compile_delta: Mapping[str, float],
    batch_delta: Tuple[float, float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced serving run.

    ``client_ms`` are the latencies of single-window operations as the
    client saw them, ``server_ms`` the submit-to-resolve latencies the server
    reported.  The gateway and server shares are of the client's median; the
    queue share is of the server's.  ``batch_delta`` is ``(requests,
    batches)`` processed.
    """
    layers = {}
    client_p50 = _median(client_ms)
    forward = _durations(spans, "jit.forward")
    forward_p50_ms = 1000.0 * _median(forward)
    layers["gateway.self_share"] = _median(gateway_self_ms) / client_p50 if client_p50 else 0.0
    layers["server.resolve_share"] = _median(server_ms) / client_p50 if client_p50 else 0.0
    resolve_p50 = _median(server_ms)
    layers["batcher.queue_share"] = (resolve_p50 - forward_p50_ms) / resolve_p50 if resolve_p50 else 0.0
    for status in ("200", "429", "503"):
        layers[f"gateway.responses.{status}"] = float(statuses.get(status, 0))
    layers["gateway.responses.other"] = float(
        sum(count for status, count in statuses.items() if status not in ("200", "429", "503"))
    )
    layers["ingestion.busy_share"] = sum(_durations(spans, "ingestion.push")) / wall
    layers["ingestion.windows"] = float(sum(spans.get("ingestion.push", {}).get("notes", ())))
    requests, batches = batch_delta
    layers["batcher.batch_size.mean"] = requests / batches if batches else 0.0
    layers["jit.busy_share"] = sum(forward) / wall
    replays = compile_delta.get("replays", 0.0)
    layers["jit.padded_share"] = compile_delta.get("padded_replays", 0.0) / replays if replays else 0.0
    layers["jit.traces"] = float(compile_delta.get("traces", 0.0))
    layers["jit.fallbacks"] = float(compile_delta.get("fallbacks", 0.0))
    notes = spans.get("jit.forward", {}).get("notes", ())
    for bucket in JIT_BUCKETS:
        times = [d for d, b in zip(forward, notes) if int(b) == bucket]
        layers[f"jit.calls.b{bucket}"] = float(len(times))
        layers[f"jit.windows_per_s.b{bucket}"] = bucket / _median(times) if times else 0.0
    layers["unattributed_s"] = unattributed(spans, wall)
    return layers
