"""Tiny-input self-test of every workload.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

For each workload and each mode (``--trace 0`` and ``--trace 1``) it runs
``perfbench/run.py --tiny`` and asserts that the run exits 0, that its last
line carries exactly the metrics ``BENCHMARK.json`` names for that mode
with their units, that the workload's output checks ran and passed, and
that a traced run measured every layer the workload exercises.  A tiny
run takes a few seconds; the whole self-test about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import declared_metrics  # noqa: E402

#: Output checks each workload must run at least once.
CHECKS = {
    "serve-small": ("serve_matches_in_process",),
    "serve-wide": ("serve_matches_in_process",),
    "stream": ("stream_equals_buffered",),
    "train": ("goldens_strict", "predictions_repeat"),
}

#: Per-layer metrics each workload must measure above zero when traced.
LAYERS = {
    "serve-small": ("client.request_ms", "wire_ms", "serve.queue_wait_ms",
                    "serve.profile_ms", "serve.predict_ms", "serve.batch_size",
                    "tabular.parse_ms", "serve.cpu_ms_per_request",
                    "model_load_ms"),
    "serve-wide": ("client.request_ms", "wire_ms", "serve.profile_ms",
                   "serve.predict_ms", "tabular.parse_ms", "model_load_ms"),
    "stream": ("tabular.chunks_ms", "chunks", "rows", "sketch.consume_ms",
               "sketch.finalize_ms", "model_load_ms"),
    "train": ("datagen.corpus_ms", "fit.rf_ms", "fit.logreg_ms", "fit.svm_ms",
              "fit.cnn_ms", "predict.rf_ms", "predict.knn_ms"),
}


def check_run(workload: str, trace: int, out: Path) -> list[str]:
    """Problems with one tiny run (empty when it passes)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    problems = []
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        problems.append(f"correct={last['correct']} attempted="
                        f"{last['attempted']} failed={last['failed']}")
    expected = declared_metrics(bool(trace))
    metrics = last["metrics"]
    if list(metrics) != list(expected):
        problems.append(f"metric names {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
        elif not trace and entry["value"] <= 0:
            problems.append(f"{name}: end-to-end value {entry['value']} <= 0")
    if trace:
        for name in LAYERS[workload]:
            if metrics.get(name, {}).get("value", 0) <= 0:
                problems.append(f"layer {name} not measured")
    record = json.loads(out.read_text(encoding="utf-8"))
    for name in CHECKS[workload]:
        ran = record["checks"].get(name, {}).get("ran", 0)
        if ran < 1:
            problems.append(f"output check {name} did not run")
    for key in ("nproc", "python", "numpy", "source_sha256"):
        if not record["host"].get(key):
            problems.append(f"host record lacks {key}")
    if not record["inputs"]:
        problems.append("no input sizes recorded")
    return problems


def main() -> int:
    failures = 0
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in CHECKS:
            for trace in (0, 1):
                problems = check_run(workload, trace, Path(tmp) / "result.json")
                status = "ok" if not problems else "FAIL"
                print(f"{status:4s} {workload} --trace {trace}")
                for problem in problems:
                    print(f"     {problem}")
                failures += bool(problems)
    print("self-test passed" if not failures else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
