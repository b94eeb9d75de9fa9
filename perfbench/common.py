"""Shared plumbing: paths, child processes, statistics, spans, results.

The benchmark drives the program from its source tree (``src/``) and keeps
every file it writes under ``.perfbench_work/`` in the checkout: one
directory per run, removed when the run ends, and the cached artifacts.  Nothing
here imports ``repro`` at module level, so ``run.py`` can refuse to run
cleanly when the source tree is absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Per-child wall-clock limit; a run as a whole must end within 180 s.
CHILD_TIMEOUT_S = 150.0


def program_env() -> dict:
    """Environment for a program child: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)  # no warm artifact cache across runs
    return env


class WorkDir:
    """A private scratch directory under ``.perfbench_work``, removed on exit."""

    def __init__(self, tag: str):
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


# -- host and inputs ------------------------------------------------------------
def source_fingerprint() -> str:
    """sha256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit_sha(),
        "source_sha256": source_fingerprint(),
    }


# -- child processes ------------------------------------------------------------
@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_program(argv: list[str], workdir: Path, label: str) -> ChildRun:
    """Run a program child to completion; its own wall time and peak RSS.

    ``os.wait4`` reaps exactly this child, so ``ru_maxrss`` is the peak RSS
    of the program's process and not of the benchmark.
    """
    out_path = workdir / f"{label}.stdout"
    err_path = workdir / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=program_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# -- spans ------------------------------------------------------------------------
def read_spans(path: Path) -> list:
    """Span records a program exported with ``--trace-out`` (JSONL)."""
    from repro.obs.export import read_jsonl
    from repro.obs.trace import SpanRecord

    return [SpanRecord.from_dict(payload) for payload in read_jsonl(str(path))]


def self_time_records(records: list) -> list:
    """Copies of ``records`` whose ``wall_s`` is the span's self time.

    Self time is the span's duration minus the part of its interval that
    its child spans (linked by ``parent_span_id``) cover; the union of the
    children is taken, so overlapping children are not subtracted twice.
    """
    from dataclasses import replace

    children: dict[str, list] = {}
    for record in records:
        if record.parent_span_id:
            children.setdefault(record.parent_span_id, []).append(record)
    out = []
    for record in records:
        start = record.started_at
        end = start + record.wall_s
        intervals = sorted(
            (max(start, c.started_at), min(end, c.started_at + c.wall_s))
            for c in children.get(record.span_id, ())
        )
        covered = 0.0
        cursor = start
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        out.append(replace(record, wall_s=max(0.0, record.wall_s - covered)))
    return out


def layer_times(
    records: list, layers: dict[str, tuple[str, ...]]
) -> dict[str, float]:
    """Self seconds per layer: ``layers`` maps a layer to its span names."""
    from repro.obs.trace import aggregate_spans

    summary = aggregate_spans(self_time_records(records))
    return {
        layer: sum(summary.get(name, {}).get("wall_s", 0.0) for name in names)
        for layer, names in layers.items()
    }


# -- results ------------------------------------------------------------------------
@dataclass
class Result:
    """What one run measured, checked and fed the program."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failure counts as a failed operation."""
        entry = self.checks.setdefault(name, {"ran": 0, "failed": 0})
        entry["ran"] += 1
        if not ok:
            entry["failed"] += 1
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {detail}")
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def record(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "host": host_info(),
            "inputs": self.inputs,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "samples": self.samples,
            "problems": self.problems,
            "metrics": self.metrics,
        }

    def emit(self, out_path: str | None) -> None:
        """Print a readable report, then the one-line JSON result last."""
        record = self.record()
        print(f"workload {self.workload} seed {self.seed} "
              f"trace {int(self.trace)}")
        print("host " + json.dumps(record["host"], sort_keys=True))
        print("inputs " + json.dumps(self.inputs, sort_keys=True))
        print("samples " + json.dumps(self.samples, sort_keys=True))
        for name, entry in self.checks.items():
            print(f"check {name}: ran {entry['ran']} failed {entry['failed']}")
        for problem in self.problems:
            print(f"problem {problem}")
        for name, entry in self.metrics.items():
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
        if out_path:
            Path(out_path).write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }))
