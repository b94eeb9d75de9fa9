"""stream: ``repro-infer --stream --model ARTIFACT`` over a generated CSV.

The CSV is written once per run, outside the timed region, and a buffered
``repro-infer`` over the same file gives the reference output every
streamed invocation must equal byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench import common, inputs

N_BYTES = 6_000_000
N_COLUMNS = 20
#: distinct values per column: under the sketch's 65,536 cap, while the
#: columns together exceed the scan cache's 200,000 recycle threshold.
POOL_SIZE = 25_000
TINY = (300_000, 10, 500)
SETUPS = 3

LAYERS = {
    "tabular.chunks": ("infer.stream_profile",),
    "sketch.consume": ("sketch.chunk",),
    "sketch.finalize": ("sketch.finalize",),
    "model_load": ("infer.load_model",),
}
COUNTERS = {
    "chunks": "sketch.chunks",
    "rows": "sketch.rows",
    "sketch.scan_cache_reset": "sketch.scan_cache_reset",
}


def _infer(csv: Path, artifact: Path, *flags: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", str(csv),
            "--model", str(artifact), "--json", *flags]


def run(seed: int, seconds: float, trace: bool, tiny: bool, result,
        workdir: Path, artifact: Path) -> None:
    n_bytes, n_columns, pool_size = TINY if tiny else (
        N_BYTES, N_COLUMNS, POOL_SIZE
    )
    data = inputs.write_stream_csv(
        workdir / "stream.csv", seed, n_columns, n_bytes, pool_size
    )
    result.inputs.update({
        "file_bytes": data.n_bytes, "rows": data.n_rows,
        "columns": n_columns, "distinct_values": data.distinct,
    })
    csv = Path(data.path)
    with open(csv, encoding="utf-8") as handle:
        one_row = workdir / "one_row.csv"
        one_row.write_text(handle.readline() + handle.readline(),
                           encoding="utf-8")

    buffered = common.run_program(_infer(csv, artifact), workdir, "buffered")
    if buffered.returncode != 0:
        raise RuntimeError(f"buffered repro-infer failed: {buffered.stderr}")
    result.samples["buffered_wall_s"] = buffered.wall_s
    result.samples["buffered_peak_rss_mb"] = buffered.peak_rss_mb

    setups = []
    for i in range(SETUPS):
        child = common.run_program(
            _infer(one_row, artifact, "--stream"), workdir, f"setup{i}"
        )
        if child.returncode != 0:
            raise RuntimeError(f"repro-infer setup failed: {child.stderr}")
        setups.append(child.wall_s)

    walls = {False: [], True: []}
    rss, hits, columns = [], 0, 0
    seen_layers = {layer: 0.0 for layer in LAYERS}
    counts = {name: 0.0 for name in COUNTERS}
    spent = 0.0
    index = 0
    while spent < seconds or (trace and not (walls[False] and walls[True])):
        traced = trace and index % 2 == 1
        flags = ["--stream"]
        if traced:
            flags += ["--trace-out", str(workdir / "trace.jsonl"),
                      "--metrics-out", str(workdir / "metrics.json")]
        child = common.run_program(_infer(csv, artifact, *flags), workdir,
                                   f"stream{index}")
        index += 1
        spent += child.wall_s
        result.attempted += 1
        if child.returncode != 0:
            result.failed += 1
            result.problems.append(f"repro-infer --stream: {child.stderr[-500:]}")
            continue
        result.check("stream_equals_buffered", child.stdout == buffered.stdout,
                     "streamed output differs from buffered")
        walls[traced].append(child.wall_s)
        rss.append(child.peak_rss_mb)
        predictions = json.loads(child.stdout)
        columns += len(predictions)
        hits += sum(p["feature_type"] == label
                    for p, label in zip(predictions, data.labels))
        if traced:
            spans = common.read_spans(workdir / "trace.jsonl")
            for layer, total in common.layer_times(spans, LAYERS).items():
                seen_layers[layer] += total
            metrics = json.loads((workdir / "metrics.json").read_text())
            for name, counter in COUNTERS.items():
                counts[name] += metrics["counters"].get(counter, 0.0)
    result.samples.update({
        "invocations": index, "traced_invocations": len(walls[True]),
        "setups": len(setups), "walls_s": walls[False],
    })
    if trace:
        n = len(walls[True])
        wall = sum(walls[True])
        for layer, total in seen_layers.items():
            result.metric(f"{layer}_ms", 1000.0 * total / n, "ms")
            result.metric(f"{layer}_share", total / wall, "fraction")
        for name, total in counts.items():
            result.metric(name, total / n, "count")
        result.metric(
            "trace_overhead",
            common.median(walls[True]) / common.median(walls[False]) - 1.0,
            "fraction",
        )
        return
    op_walls = walls[False]
    wall = common.median(op_walls)
    result.metric("setup_s", common.median(setups), "s")
    result.metric("columns_per_s", n_columns / wall, "columns/s")
    result.metric("latency_p50_ms", 1000 * common.quantile(op_walls, 0.5), "ms")
    result.metric("latency_p90_ms", 1000 * common.quantile(op_walls, 0.9), "ms")
    result.metric("mb_per_s", data.n_bytes / wall / 1e6, "MB/s")
    result.metric("peak_rss_mb", common.median(rss), "MB")
    result.metric("wall_s", wall, "s")
    result.metric("accuracy_mean", hits / max(1, columns), "fraction")
