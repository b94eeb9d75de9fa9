"""train: corpus → split → fit and predict of the five models, per child.

Each iteration is a fresh interpreter (``perfbench/train_child.py``), so its
peak RSS is its own.  Once per run, outside the timed iterations, the
program's strict goldens check runs at its committed corpus address.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench import common
from perfbench.train_child import MODELS

#: Corpus columns per iteration: three iterations fit one run.
SCALE = 600
TINY_SCALE = 120
SETUPS = 3
MIN_ITERATIONS = 2

LAYERS = {
    "datagen.corpus": ("datagen.corpus",),
    **{f"fit.{name}": (f"fit.{name}",) for name in MODELS},
    **{f"predict.{name}": (f"predict.{name}",) for name in MODELS},
}


def run(seed: int, seconds: float, trace: bool, tiny: bool, result,
        workdir: Path) -> None:
    from repro.obs.trace import SpanRecord

    scale = TINY_SCALE if tiny else SCALE
    result.inputs.update({"corpus_scale": scale, "corpus_seed": seed,
                          "goldens": "scale 300, seed 1, strict"})

    goldens = common.run_program(
        [sys.executable, "-m", "repro.benchmark.runner", "goldens", "check",
         "--strict", "--scale", "300", "--seed", "1"],
        workdir, "goldens",
    )
    result.attempted += 1
    result.check("goldens_strict", goldens.returncode == 0,
                 goldens.stdout[-500:] + goldens.stderr[-500:])

    setups = []
    for i in range(SETUPS):
        child = common.run_program(
            [sys.executable, "-c", "import repro.benchmark.runner"],
            workdir, f"setup{i}",
        )
        if child.returncode != 0:
            raise RuntimeError(f"import failed: {child.stderr}")
        setups.append(child.wall_s)

    script = str(Path(__file__).with_name("train_child.py"))
    runs = {False: [], True: []}
    spent = 0.0
    index = 0
    while (spent < seconds or index < MIN_ITERATIONS
           or (trace and not (runs[False] and runs[True]))):
        traced = trace and index % 2 == 1
        out = workdir / f"train{index}.json"
        child = common.run_program(
            [sys.executable, script, str(scale), str(seed),
             "1" if traced else "0", str(out)],
            workdir, f"train{index}",
        )
        index += 1
        spent += child.wall_s
        result.attempted += 1
        if child.returncode != 0:
            result.failed += 1
            result.problems.append(f"train child: {child.stderr[-500:]}")
            continue
        payload = json.loads(out.read_text())
        payload["peak_rss_mb"] = child.peak_rss_mb
        runs[traced].append(payload)
    done = runs[False] + runs[True]
    if not done:
        raise RuntimeError("every train iteration failed")
    first = done[0]["digests"]
    for payload in done[1:]:
        changed = [name for name in MODELS
                   if payload["digests"][name] != first[name]]
        result.check("predictions_repeat", not changed,
                     f"predict_proba changed between iterations: {changed}")
    result.inputs.update({"corpus_columns": done[0]["columns"],
                          "corpus_bytes": done[0]["corpus_bytes"]})
    result.samples.update({"iterations": index,
                           "traced_iterations": len(runs[True]),
                           "setups": len(setups),
                           "walls_s": [p["wall_s"] for p in runs[False]]})
    if trace:
        n = len(runs[True])
        records = [SpanRecord.from_dict(s)
                   for payload in runs[True] for s in payload["spans"]]
        wall = sum(payload["wall_s"] for payload in runs[True])
        for layer, total in common.layer_times(records, LAYERS).items():
            result.metric(f"{layer}_ms", 1000.0 * total / n, "ms")
            result.metric(f"{layer}_share", total / wall, "fraction")
        result.metric(
            "trace_overhead",
            common.median([p["wall_s"] for p in runs[True]])
            / common.median([p["wall_s"] for p in runs[False]]) - 1.0,
            "fraction",
        )
        return
    walls = [payload["wall_s"] for payload in runs[False]]
    wall = common.median(walls)
    result.metric("setup_s", common.median(setups), "s")
    result.metric("columns_per_s", done[0]["columns"] / wall, "columns/s")
    result.metric("latency_p50_ms", 1000 * common.quantile(walls, 0.5), "ms")
    result.metric("latency_p90_ms", 1000 * common.quantile(walls, 0.9), "ms")
    result.metric("mb_per_s", done[0]["corpus_bytes"] / wall / 1e6, "MB/s")
    result.metric("peak_rss_mb",
                  common.median([p["peak_rss_mb"] for p in runs[False]]), "MB")
    result.metric("wall_s", wall, "s")
    result.metric("accuracy_mean", common.median([
        sum(p["accuracy"].values()) / len(MODELS) for p in runs[False]
    ]), "fraction")
