"""Client side of the serving workloads: ``serve_mixed`` and ``serve_bulk``.

One client process drives the gateway of a separate server process
(``perfbench/server.py``) over at most two connections on one asyncio loop,
so the client's Python never competes for the server's GIL.

* ``serve_mixed`` (open loop): connection 1 carries one ``/v1/stream``
  session fed one window of samples every ``1 / STREAM_RATE`` s; connection
  2 sends seeded Poisson ``/v1/predict`` requests at ``PREDICT_RATE``.  Every
  operation is timed from its due time, and the generator's own lateness is
  reported and bounded.
* ``serve_bulk`` (closed loop): two connections each post ``/v1/batch``
  bodies of ``BULK_WINDOWS`` seeded windows back to back.

Every request body is encoded before timing starts, and every answer is
checked against reference labels computed in this process from the same
model on the same windows.
"""

from __future__ import annotations

import asyncio
import base64
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import checks, model as served_model
from .stats import due_latencies, generator_lags, percentile, subwindow_median, summarize

#: Both rates sit well below the stream knee: about 200 windows/s on a calm
#: 2-CPU host, and still above 100 when neighbours halve its speed.
STREAM_RATE = 40.0  # windows/s on the stream session
PREDICT_RATE = 20.0  # Poisson arrivals/s on the unary connection
BULK_WINDOWS = 64  # windows per /v1/batch body
BULK_CONNECTIONS = 2
POOL = 32  # distinct seeded windows each traffic kind draws from
WARMUP_S = 1.0  # untimed traffic before the timed window
SETUPS = 3  # server processes started per run; setup_s is their median
#: A run is invalid when the generator falls behind: when more than 1% of
#: operations go out later than this after they were due (and their
#: connection was free).  Measured p99 lag is 4-6 ms; single stalls of
#: ~30 ms happen on a loaded host without the schedule slipping.
MAX_LAG_P99_MS = 20.0
READY_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 60.0

SERVER_SCRIPT = Path(__file__).resolve().parent / "server.py"


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """A fresh gateway + server process, controlled over its stdin/stdout."""

    def __init__(self) -> None:
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.ready: Dict = {}
        self.setup_s = 0.0

    async def start(self) -> "ServerProcess":
        started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(SERVER_SCRIPT),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            limit=1 << 26,  # a trace report carries every span of the run on one line
        )
        self.ready = await self._read(READY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - started
        if not self.ready.get("ready"):
            raise RuntimeError(f"server did not come up: {self.ready}")
        return self

    async def _read(self, timeout: float) -> Dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not line:
            raise RuntimeError(f"server process exited with {await self.proc.wait()}")
        return json.loads(line)

    async def command(self, cmd: str) -> Dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}).encode() + b"\n")
        await self.proc.stdin.drain()
        return await self._read(REPLY_TIMEOUT_S)

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write(b'{"cmd": "quit"}\n')
            await self.proc.stdin.drain()
            self.proc.stdin.close()
            await asyncio.wait_for(self.proc.wait(), 30.0)
        except (OSError, asyncio.TimeoutError):
            self.proc.kill()
            await self.proc.wait()

    @property
    def port(self) -> int:
        return int(self.ready["port"])


# ----------------------------------------------------------------------
# Inputs and reference labels
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """Seeded request pools, their wire encodings and accepted labels."""

    windows: np.ndarray  # (POOL, L, C) float32, for /v1/predict and /v1/batch
    chunks: np.ndarray  # (POOL, L, C) float32 raw samples, one window each
    window_accepts: List[frozenset]
    chunk_accepts: List[frozenset]
    predict_bodies: List[bytes]
    chunk_messages: List[bytes]


def make_traffic(seed: int) -> Traffic:
    from repro.serving.loadgen import predict_body

    rng = np.random.default_rng(seed)
    model = served_model.build_model()
    shape = (POOL, served_model.WINDOW_LENGTH, served_model.NUM_CHANNELS)
    windows = rng.standard_normal(shape).astype(np.float32)
    # Raw phone samples: gravity on z plus motion on the accelerometer axes,
    # angular rate on the gyroscope axes.  The server's ingestor normalises.
    chunks = rng.normal(0.0, 2.0, shape)
    chunks[..., 2] += 9.81
    chunks[..., 3:] *= 0.25
    chunks = chunks.astype(np.float32)
    ingested = np.stack([_ingestor().push(chunk.astype(np.float64))[0] for chunk in chunks])
    return Traffic(
        windows=windows,
        chunks=chunks,
        window_accepts=checks.acceptable_labels(served_model.reference_probabilities(model, windows)),
        chunk_accepts=checks.acceptable_labels(served_model.reference_probabilities(model, ingested)),
        predict_bodies=[predict_body(window) for window in windows],
        chunk_messages=[
            json.dumps({"samples_b64": base64.b64encode(chunk.astype("<f4").tobytes()).decode()}).encode() + b"\n"
            for chunk in chunks
        ],
    )


def _ingestor():
    """An ingestor shaped like the gateway's per-session one: the server's
    ingestion settings, with the served model's window shape."""
    from repro.serving.ingestion import StreamIngestor

    config = served_model.server_config().ingestion
    return StreamIngestor(replace(config, window_length=served_model.WINDOW_LENGTH, num_channels=served_model.NUM_CHANNELS))


def check_stream_ingestion(traffic: Traffic, order: np.ndarray) -> List[str]:
    """A local ingestor over the exact sample sequence the session sends must
    emit, window for window, the pool windows the reference labels came from."""
    sent = traffic.chunks[order].reshape(-1, served_model.NUM_CHANNELS).astype(np.float64)
    windows = _ingestor().push(sent)
    expected = np.stack([_ingestor().push(c.astype(np.float64))[0] for c in traffic.chunks])
    if windows.shape[0] != len(order) or not np.array_equal(windows, expected[order]):
        return [f"stream: local ingestion of {len(order)} chunks does not reproduce the reference windows"]
    return []


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    async def post(self, path: str, body: bytes, client: str) -> Tuple[int, bytes]:
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nX-Client-Id: {client}\r\n\r\n".encode("ascii") + body
        )
        await self.writer.drain()
        status, headers = await self.read_head()
        return status, await self.reader.readexactly(int(headers.get("content-length", "0")))

    async def read_head(self) -> Tuple[int, Dict[str, str]]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(status_line.split()[1]), headers

    async def read_chunk(self) -> bytes:
        size = int((await self.reader.readline()).split(b";")[0], 16)
        if size == 0:
            await self.reader.readline()
            return b""
        data = await self.reader.readexactly(size)
        await self.reader.readexactly(2)
        return data

    def write_chunk(self, data: bytes) -> None:
        self.writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # the peer may have closed first
            pass


async def sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


# ----------------------------------------------------------------------
# One timed phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Everything one window of traffic produced."""

    wall_s: float = 0.0
    stream_ms: List[float] = field(default_factory=list)
    predict_ms: List[float] = field(default_factory=list)
    bulk_ms: List[float] = field(default_factory=list)
    # When each latency's operation was due (stream, predict) or sent (bulk),
    # in seconds from the start of the phase.
    stream_at: List[float] = field(default_factory=list)
    predict_at: List[float] = field(default_factory=list)
    bulk_at: List[float] = field(default_factory=list)
    gateway_self_ms: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    statuses: Dict[str, int] = field(default_factory=dict)
    windows_ok: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def status(self, key) -> None:
        self.statuses[str(key)] = self.statuses.get(str(key), 0) + 1


async def mixed_phase(port: int, traffic: Traffic, rng: np.random.Generator, seconds: float) -> Phase:
    """Open loop: one stream session plus Poisson unary predicts."""
    phase = Phase()
    n_stream = int(seconds * STREAM_RATE)
    stream_order = rng.integers(0, POOL, n_stream)
    # A Poisson process conditioned on its count: the arrival times are
    # sorted uniform draws, so every run offers the same number of requests.
    predict_offsets = np.sort(rng.uniform(0.0, seconds, int(round(seconds * PREDICT_RATE))))
    predict_order = rng.integers(0, POOL, len(predict_offsets))
    phase.failures += check_stream_ingestion(traffic, stream_order)

    stream_conn = await Connection.open(port)
    predict_conn = await Connection.open(port)
    t0 = time.perf_counter() + 0.05
    stream_due = t0 + np.arange(n_stream) / STREAM_RATE
    predict_due = t0 + predict_offsets

    async def stream() -> None:
        writer = stream_conn.writer
        writer.write(
            b"POST /v1/stream HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\nX-Client-Id: stream\r\n\r\n"
        )
        await writer.drain()
        status, _ = await stream_conn.read_head()
        phase.status(status)
        if status != 200:
            phase.failed += n_stream
            phase.failures.append(f"stream: session answered {status}")
            return
        arrived: Dict[int, float] = {}
        done: Dict = {}

        async def read_lines() -> None:
            buffer = b""
            while True:
                data = await stream_conn.read_chunk()
                if not data:
                    return
                now = time.perf_counter()
                buffer += data
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    message = json.loads(line)
                    if message.get("done"):
                        done.update(message)
                    elif "label" in message:
                        index = message["index"]
                        label_failures = checks.check_labels(
                            "stream", [(int(stream_order[index]), message["label"])], traffic.chunk_accepts
                        )
                        if label_failures:
                            phase.failures += label_failures
                        else:
                            arrived[index] = now
                    elif "error" in message:
                        phase.failures.append(f"stream: {message['error']}")

        reader = asyncio.ensure_future(read_lines())
        sent = []
        for i in range(n_stream):
            await sleep_until(stream_due[i])
            stream_conn.write_chunk(traffic.chunk_messages[stream_order[i]])
            sent.append(time.perf_counter())
            await writer.drain()
        stream_conn.write_chunk(b'{"end": true}\n')
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        await asyncio.wait_for(reader, REPLY_TIMEOUT_S)
        phase.attempted += n_stream
        phase.failures += checks.check_stream_done(done or None, n_stream)
        answered = sorted(arrived)
        phase.windows_ok += len(answered)
        phase.failed += n_stream - len(answered)
        phase.stream_ms = due_latencies([stream_due[i] for i in answered], [arrived[i] for i in answered])
        phase.stream_at = [stream_due[i] - t0 for i in answered]
        phase.lags_ms += generator_lags(stream_due, sent)

    async def predict() -> None:
        free = t0
        for j, due in enumerate(predict_due):
            await sleep_until(due)
            sent = time.perf_counter()
            phase.lags_ms += generator_lags([due], [sent], [free])
            phase.attempted += 1
            try:
                status, body = await predict_conn.post("/v1/predict", traffic.predict_bodies[predict_order[j]], "predict")
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                phase.failed += len(predict_due) - j
                phase.attempted += len(predict_due) - j - 1
                phase.failures.append(f"predict: transport error {exc!r}")
                return
            free = time.perf_counter()
            phase.status(status)
            if status != 200:
                phase.failed += 1
                continue
            answer = json.loads(body)
            label_failures = checks.check_labels(
                "predict", [(int(predict_order[j]), answer["label"])], traffic.window_accepts
            )
            if label_failures:
                phase.failures += label_failures
                phase.failed += 1
                continue
            client_ms = 1000.0 * (free - due)
            phase.predict_ms.append(client_ms)
            phase.predict_at.append(due - t0)
            phase.gateway_self_ms.append(1000.0 * (free - sent) - answer["latency_ms"])
            phase.windows_ok += 1

    started = time.perf_counter()
    try:
        await asyncio.gather(stream(), predict())
    finally:
        await stream_conn.close()
        await predict_conn.close()
    phase.wall_s = time.perf_counter() - started
    return phase


async def bulk_phase(port: int, traffic: Traffic, rng: np.random.Generator, seconds: float) -> Phase:
    """Closed loop: each connection posts its next batch when the last returns."""
    from repro.serving.loadgen import batch_body

    phase = Phase()
    orders = [rng.integers(0, POOL, BULK_WINDOWS) for _ in range(8)]
    bodies = [batch_body(traffic.windows[order]) for order in orders]
    connections = [await Connection.open(port) for _ in range(BULK_CONNECTIONS)]
    started = time.perf_counter()
    deadline = started + seconds

    async def client(index: int, conn: Connection) -> None:
        k = index
        while time.perf_counter() < deadline:
            which = k % len(bodies)
            k += BULK_CONNECTIONS
            sent = time.perf_counter()
            phase.attempted += BULK_WINDOWS
            try:
                status, body = await conn.post("/v1/batch", bodies[which], f"bulk-{index}")
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                phase.failed += BULK_WINDOWS
                phase.failures.append(f"batch: transport error {exc!r}")
                return
            phase.status(status)
            if status != 200:
                phase.failed += BULK_WINDOWS
                continue
            phase.bulk_ms.append(1000.0 * (time.perf_counter() - sent))
            phase.bulk_at.append(sent - started)
            labels = [row["label"] for row in json.loads(body)["predictions"]]
            pairs = list(zip(orders[which].tolist(), labels))
            phase.failures += checks.check_labels("batch", pairs, traffic.window_accepts)
            bad = sum(label not in traffic.window_accepts[i] for i, label in pairs)
            phase.failed += bad + BULK_WINDOWS - len(labels)
            phase.windows_ok += len(labels) - bad

    try:
        await asyncio.gather(*(client(i, conn) for i, conn in enumerate(connections)))
    finally:
        for conn in connections:
            await conn.close()
    phase.wall_s = time.perf_counter() - started
    return phase


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _latency_details(prefix: str, values: List[float]) -> List[Tuple[str, float, str, int]]:
    if not values:
        return []
    summary = summarize(values)
    tail = f"{summary['tail_q']:g}".replace(".", "_")
    return [(f"{prefix}_p50_ms", summary["p50"], "ms", len(values)),
            (f"{prefix}_p{tail}_ms", summary["tail"], "ms", len(values))]


async def _run(workload: str, seed: int, seconds: float, trace: bool):
    from .metrics import Outcome, serving_layers, span_details

    traffic = make_traffic(seed)
    rng = np.random.default_rng([seed, 1])
    phase_fn = mixed_phase if workload == "serve_mixed" else bulk_phase
    setups: List[float] = []
    server: Optional[ServerProcess] = None
    plain: Optional[Phase] = None
    report: Dict = {}
    try:
        for _ in range(SETUPS):
            if server is not None:
                await server.stop()
            server = ServerProcess()
            await server.start()
            setups.append(server.setup_s)
        warm = await phase_fn(server.port, traffic, rng, WARMUP_S)
        before = await server.command("snapshot")
        if trace:
            plain = await phase_fn(server.port, traffic, rng, seconds / 2)
            await server.command("trace")
            mid = await server.command("snapshot")
            timed = await phase_fn(server.port, traffic, rng, seconds / 2)
            report = await server.command("report")
        else:
            timed = await phase_fn(server.port, traffic, rng, seconds)
        after = await server.command("snapshot")
    finally:
        if server is not None:
            await server.stop()

    outcome = Outcome()
    measured = [phase for phase in (plain, timed) if phase is not None]
    for phase in [warm] + measured:
        outcome.failures += phase.failures
    for phase in measured:
        outcome.attempted += phase.attempted
        outcome.failed += phase.failed
    outcome.failures += checks.check_compile_stats(before["compile"], after["compile"])
    untraced = plain if trace else timed
    lags = [lag for phase in measured for lag in phase.lags_ms]
    span = seconds / 2 if trace else seconds
    if workload == "serve_mixed":
        latencies = untraced.stream_ms + untraced.predict_ms
        latencies_at = untraced.stream_at + untraced.predict_at
        if lags and percentile(lags, 99) > MAX_LAG_P99_MS:
            outcome.failures.append(
                f"generator fell behind: p99 lag {percentile(lags, 99):.1f} ms > {MAX_LAG_P99_MS:g} ms"
            )
    else:
        latencies = untraced.bulk_ms
        latencies_at = untraced.bulk_at
    if not latencies:
        outcome.failures.append("no operation succeeded")
        latencies, latencies_at = [float("nan")], [0.0]
    throughput = untraced.windows_ok / untraced.wall_s
    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        # The median of the medians of each third of the window: a burst of
        # load from outside the benchmark that covers one third does not
        # move it.
        "latency_p50_ms": subwindow_median(latencies, latencies_at, span, statistics.median),
        "throughput_per_s": throughput,
    }
    outcome.samples = {"setup_s": len(setups), "latency_p50_ms": len(latencies),
                       "throughput_per_s": untraced.windows_ok}
    outcome.detail += _latency_details("stream", untraced.stream_ms)
    outcome.detail += _latency_details("predict", untraced.predict_ms)
    outcome.detail += _latency_details("batch", untraced.bulk_ms)
    if workload == "serve_bulk":
        outcome.detail.append(("bulk_windows_per_s", throughput, "windows/s", untraced.windows_ok))
    outcome.detail.append(("error_rate", outcome.failed / max(outcome.attempted, 1), "share", outcome.attempted))
    if lags:
        outcome.detail += [("generator_lag_p99_ms", percentile(lags, 99), "ms", len(lags)),
                           ("generator_lag_max_ms", max(lags), "ms", len(lags))]
    outcome.detail.append(("server_build_and_warm_s", server.ready["build_and_warm_s"], "s", 1))
    if trace:
        spans = report["layers"]
        outcome.per_layer.update(serving_layers(
            spans, report["wall_s"],
            client_ms=timed.stream_ms + timed.predict_ms,
            server_ms=report["values"].get("server.resolve_ms", []),
            gateway_self_ms=timed.gateway_self_ms,
            statuses=timed.statuses,
            compile_delta={key: after["compile"][key] - mid["compile"][key] for key in after["compile"]},
            batch_delta=(after["requests"] - mid["requests"], after["batches"] - mid["batches"]),
        ))
        if workload == "serve_mixed":
            traced_p50 = statistics.median(timed.stream_ms + timed.predict_ms)
            outcome.per_layer["tracing_overhead"] = traced_p50 / outcome.end_to_end["latency_p50_ms"]
        else:
            outcome.per_layer["tracing_overhead"] = throughput / (timed.windows_ok / timed.wall_s)
        outcome.detail += span_details(spans)
        outcome.detail += _latency_details("gateway.self", timed.gateway_self_ms)
        outcome.detail += _latency_details("server.resolve", report["values"].get("server.resolve_ms", []))
    return outcome


def run(workload: str, seed: int, seconds: float, trace: bool):
    return asyncio.run(_run(workload, seed, seconds, trace))
