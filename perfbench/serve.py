"""serve-small / serve-wide: a closed loop against one ``repro-serve``.

Two threads share one :class:`~repro.serve.client.ServeClient`, so the
server sees two keep-alive connections.  The loop runs in passes: in each
pass the two connections answer every table of the pool once, and the next
request is sent only after the previous one returned.  The server holds
an OurRF artifact trained once per run, outside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perfbench import common, inputs

#: (tables in the pool, columns per table, rows per table)
SHAPES = {
    "serve-small": (16, 8, 60),
    "serve-wide": (10, 40, 800),
}
TINY_SHAPES = {
    "serve-small": (3, 8, 20),
    "serve-wide": (2, 12, 200),
}
CONNECTIONS = 2
SETUPS = 3
#: Requests a measured loop answers at least, so p90 has 10 beyond it.
MIN_REQUESTS = 100

#: Server spans folded into each per-request layer (self time).
SERVER_LAYERS = {
    "wire": ("client.request",),
    "serve.request_self": ("serve.request",),
    "serve.queue_wait": ("serve.queue_wait",),
    "serve.batch": ("serve.batch",),
    "serve.profile": ("serve.profile", "featurize.column"),
    "serve.predict": ("serve.predict", "pipeline.predict_profiles"),
}
COUNTERS = ("serve.shed", "serve.deadline_exceeded", "serve.scan_cache_reset")


class Server:
    """One ``repro-serve --model ARTIFACT`` child on an ephemeral port."""

    def __init__(self, model: Path, workdir: Path, label: str, extra=()):
        from repro.serve.client import ServeClient

        argv = [sys.executable, "-m", "repro.serve", "--port", "0",
                "--model", str(model), *extra]
        self._stderr = open(workdir / f"{label}.stderr", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=common.program_env(), cwd=common.ROOT,
        )
        guard = threading.Timer(common.CHILD_TIMEOUT_S, self.proc.kill)
        guard.start()
        try:
            banner = self.proc.stdout.readline()
            url = next(
                (tok for tok in banner.split() if tok.startswith("http://")),
                None,
            )
            if url is None:
                raise RuntimeError(f"repro-serve did not start: {banner!r}")
            self.client = ServeClient(url, timeout_s=60.0, retry=None)
            self.client.wait_ready(timeout_s=60.0, poll_s=0.005)
        except BaseException:
            self.stop()
            raise
        finally:
            guard.cancel()
        self.setup_s = time.perf_counter() - started

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def expected_predictions(model: Path, pool) -> dict[str, str]:
    """In-process ``predict_table`` on each table: the byte-exact answer."""
    from repro.core.persistence import load_model
    from repro.core.pipeline import TypeInferencePipeline
    from repro.serve.http import parse_table

    pipeline = TypeInferencePipeline(load_model(model))
    return {
        table.name: json.dumps([
            p.as_dict() for p in pipeline.predict_table(
                parse_table("text/csv", table.text.encode(), name=table.name)
            )
        ])
        for table in pool
    }


class Loop:
    """The closed loop's tallies; ``run`` answers whole pool passes."""

    def __init__(self, server: Server, pool, expected, result):
        self.server = server
        self.pool = pool
        self.expected = expected
        self.result = result
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.columns = 0
        self.correct_columns = 0
        self.bytes = 0
        #: set for the traced half: one benchmark span per request
        self.tracer = None
        self.executor = ThreadPoolExecutor(max_workers=CONNECTIONS)

    def _one(self, table) -> None:
        from repro.serve.client import ServeClientError

        body = table.text
        span = (self.tracer.span("client.request", table=table.name)
                if self.tracer is not None else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                response = self.server.client.infer_csv_text(
                    body, table=table.name
                )
                if self.tracer is not None:
                    span.set(trace_id=response.get("trace_id"))
        except ServeClientError as exc:
            with self.lock:
                self.result.attempted += 1
                self.result.failed += 1
                self.result.problems.append(f"request {table.name}: {exc}")
            return
        latency = time.perf_counter() - t0
        predictions = response.get("predictions", [])
        hits = sum(
            p.get("feature_type") == label
            for p, label in zip(predictions, table.labels)
        )
        with self.lock:
            self.result.attempted += 1
            ok = self.result.check(
                "serve_matches_in_process",
                json.dumps(predictions) == self.expected[table.name],
                f"{table.name} differs from predict_table",
            )
            self.latencies.append(latency)
            if ok:
                self.columns += table.n_columns
                self.correct_columns += hits
                self.bytes += table.n_bytes

    def _drain(self, queue: list) -> None:
        while True:
            with self.lock:
                if not queue:
                    return
                table = queue.pop()
            self._one(table)

    def one_pass(self) -> None:
        queue = list(reversed(self.pool))
        t0 = time.perf_counter()
        futures = [
            self.executor.submit(self._drain, queue) for _ in range(CONNECTIONS)
        ]
        for future in futures:
            future.result()
        self.pass_walls.append(time.perf_counter() - t0)

    def reset(self) -> None:
        self.latencies.clear()
        self.pass_walls.clear()
        self.columns = self.correct_columns = self.bytes = 0

    def run(self, seconds: float, min_requests: int = 0) -> None:
        end = time.perf_counter() + seconds
        while True:
            self.one_pass()
            if (time.perf_counter() >= end
                    and len(self.latencies) >= min_requests):
                return

    def close(self) -> None:
        self.executor.shutdown(wait=True)


def _histogram_mean(before: dict, after: dict, name: str) -> float:
    h0 = before.get("histograms", {}).get(name, {})
    h1 = after.get("histograms", {}).get(name, {})
    count = h1.get("count", 0) - h0.get("count", 0)
    return (h1.get("sum", 0.0) - h0.get("sum", 0.0)) / count if count else 0.0


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return (after.get("counters", {}).get(name, 0.0)
            - before.get("counters", {}).get(name, 0.0))


def parse_ms(pool, rounds: int) -> float:
    """Median ms of ``repro.serve.http.parse_table`` over the pool bodies."""
    from repro.serve.http import parse_table

    bodies = [(t.name, t.text.encode()) for t in pool]
    times = []
    for _ in range(rounds):
        for name, body in bodies:
            t0 = time.perf_counter()
            parse_table("text/csv", body, name=name)
            times.append(time.perf_counter() - t0)
    return 1000.0 * common.median(times)


def layers(client_spans: list, server_spans: list, result) -> None:
    """Per-request self time of each layer, from the traced half's spans.

    Each benchmark span is joined to the server's ``serve.request`` span by
    the trace id the server echoed; the server span becomes its child.
    """
    by_trace = {
        r.trace_id: r for r in server_spans if r.name == "serve.request"
    }
    matched, unmatched = [], 0
    for record in client_spans:
        trace_id = record.attrs.get("trace_id")
        server_request = by_trace.get(trace_id)
        if server_request is None:
            unmatched += 1
            continue
        record.trace_id = trace_id
        server_request.parent_span_id = record.span_id
        matched.append(record)
    ids = {r.trace_id for r in matched}
    records = matched + [r for r in server_spans if r.trace_id in ids]
    seconds = common.layer_times(records, SERVER_LAYERS)
    n = max(1, len(matched))
    in_flight = sum(r.wall_s for r in matched) or 1.0
    for layer, total in seconds.items():
        result.metric(f"{layer}_ms", 1000.0 * total / n, "ms")
        result.metric(f"{layer}_share", total / in_flight, "fraction")
    result.metric("client.request_ms", 1000.0 * sum(
        r.wall_s for r in client_spans) / max(1, len(client_spans)), "ms")
    result.metric("wire_unmatched", unmatched, "count")
    result.samples["traced_requests"] = len(client_spans)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        result, workdir: Path, artifact: Path) -> None:
    n_tables, n_columns, n_rows = (TINY_SHAPES if tiny else SHAPES)[workload]
    pool = inputs.table_pool(seed, n_tables, n_columns, n_rows)
    result.inputs.update({
        "tables": n_tables, "columns_per_table": n_columns,
        "rows_per_table": n_rows,
        "body_bytes": sum(t.n_bytes for t in pool),
        "distinct_values": inputs.distinct_values(pool),
        "connections": CONNECTIONS,
    })
    expected = expected_predictions(artifact, pool)

    setups = []
    for i in range(SETUPS - 1):
        server = Server(artifact, workdir, f"setup{i}")
        setups.append(server.setup_s)
        server.stop()
    trace_out = workdir / "server-trace.jsonl"
    extra = ("--trace-out", str(trace_out)) if trace else ()
    server = Server(artifact, workdir, "loop", extra)
    setups.append(server.setup_s)
    loop = Loop(server, pool, expected, result)
    try:
        loop.one_pass()  # warm-up: lazy imports, scan cache, connections
        warm = len(loop.latencies)
        loop.reset()
        before = server.client.metrics()
        if trace:
            # First half untraced, second half traced: the difference is
            # the benchmark's tracing overhead.
            from repro.obs.trace import Tracer

            loop.run(seconds / 2)
            untraced = common.median(loop.latencies)
            n_untraced = len(loop.latencies)
            before = server.client.metrics()
            cpu0 = server.cpu_s()
            loop.tracer = Tracer()
            loop.run(seconds / 2)
            cpu1 = server.cpu_s()
            traced = common.median(loop.latencies[n_untraced:])
            result.metric("trace_overhead", traced / untraced - 1.0, "fraction")
            result.metric("serve.cpu_ms_per_request", 1000.0 * (cpu1 - cpu0)
                          / max(1, len(loop.latencies) - n_untraced), "ms")
        else:
            loop.run(seconds, MIN_REQUESTS)
        after = server.client.metrics()
        peak_rss = server.peak_rss_mb()
    finally:
        loop.close()
        server.stop()
    result.samples.update({
        "warmup_requests": warm, "requests": len(loop.latencies),
        "passes": len(loop.pass_walls), "setups": len(setups),
        "pass_walls_s": [round(w, 4) for w in loop.pass_walls],
        "batch_size": _histogram_mean(before, after, "serve.batch_size"),
    })
    if trace:
        spans = common.read_spans(trace_out)
        layers(loop.tracer.records, spans, result)
        result.metric("serve.batch_size", result.samples["batch_size"],
                      "requests")
        for name in COUNTERS:
            result.metric(name, _counter_delta(before, after, name), "count")
        loads = [r.wall_s for r in spans if r.name == "serve.model_load"]
        result.metric("model_load_ms", 1000.0 * sum(loads), "ms")
        result.metric("tabular.parse_ms", parse_ms(pool, 3), "ms")
        return
    # Rates use the median pass, so a burst of load from elsewhere on the
    # host moves one pass, not the run's figure.
    pass_s = common.median(loop.pass_walls)
    passes = len(loop.pass_walls)
    result.metric("setup_s", common.median(setups), "s")
    result.metric("columns_per_s", loop.columns / passes / pass_s, "columns/s")
    result.metric("latency_p50_ms", 1000 * common.quantile(loop.latencies, 0.5), "ms")
    result.metric("latency_p90_ms", 1000 * common.quantile(loop.latencies, 0.9), "ms")
    result.metric("mb_per_s", loop.bytes / passes / pass_s / 1e6, "MB/s")
    result.metric("peak_rss_mb", peak_rss, "MB")
    result.metric("wall_s", pass_s, "s")
    result.metric("accuracy_mean",
                  loop.correct_columns / max(1, loop.columns), "fraction")
