"""The served side of the serving workloads, run as its own process.

Builds the paper-scale classifier, casts it to float32, traces every batch
bucket, and puts it behind the HTTP gateway with the default
``ServerConfig`` and ``GatewayConfig``.  It then answers JSON commands, one
per line on stdin, with one JSON line on stdout:

* ``{"cmd": "snapshot"}`` — compile counters and batcher totals;
* ``{"cmd": "trace"}`` — install the serving-layer timing wrappers;
* ``{"cmd": "report"}`` — the spans recorded since ``trace``;
* ``{"cmd": "quit"}`` — stop the gateway and the server, then exit.

The first line it prints is ``{"ready": ...}`` once the gateway listens.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import model as served_model  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


def _bucket_of(buckets):
    def note(args, kwargs, result):
        batch = np.shape(args[1])[0]
        return float(next(size for size in buckets if size >= batch))

    return note


def install_serving_wrappers(recorder: SpanRecorder) -> None:
    """Time the serving layers: ingestion, the compiled forward and the
    submit-to-resolve latency the server reports for each window."""
    from repro.nn.jit import CompiledModule
    from repro.serving import InferenceServer
    from repro.serving.ingestion import StreamIngestor

    recorder.install(StreamIngestor, "push", "ingestion.push", note=lambda a, k, r: float(r.shape[0]))
    buckets = served_model.server_config().compile_bucket_sizes()
    recorder.install(CompiledModule, "run", "jit.forward", note=_bucket_of(buckets))
    submit = InferenceServer.__dict__["submit"]

    def traced_submit(self, window):
        future = submit(self, window)
        future.add_done_callback(
            lambda done: done.exception() is None and recorder.value("server.resolve_ms", done.result().latency_ms)
        )
        return future

    recorder.patch(InferenceServer, "submit", traced_submit)


def main() -> int:
    from repro.serving import InferenceServer, serve_gateway

    started = time.perf_counter()
    compiled = served_model.build_compiled()
    warmed = time.perf_counter()
    server = InferenceServer(model=compiled, config=served_model.server_config())
    gateway = serve_gateway(server)
    recorder = SpanRecorder()
    traced_at = None

    def reply(obj) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    def snapshot():
        stats = server.stats()
        return {
            "compile": server.compile_stats().as_dict(),
            "requests": stats.requests,
            "batches": stats.batches,
            "clock": time.perf_counter(),
        }

    reply({
        "ready": True,
        "port": gateway.port,
        "build_and_warm_s": warmed - started,
        "listen_s": time.perf_counter() - warmed,
        **snapshot(),
    })
    try:
        for line in sys.stdin:
            cmd = json.loads(line)["cmd"]
            if cmd == "snapshot":
                reply(snapshot())
            elif cmd == "trace":
                install_serving_wrappers(recorder)
                traced_at = time.perf_counter()
                reply({"tracing": True})
            elif cmd == "report":
                reply({
                    "wall_s": time.perf_counter() - traced_at,
                    "layers": recorder.snapshot(),
                    "values": recorder.values_snapshot(),
                })
            elif cmd == "quit":
                break
            else:
                reply({"error": f"unknown command {cmd!r}"})
    finally:
        recorder.uninstall()
        gateway.stop()
        server.close()
    reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
