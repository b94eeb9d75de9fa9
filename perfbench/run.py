"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 1 \
        --out result.json
    python3 perfbench/run.py --compare base/ new/     # result files or dirs
    python3 perfbench/selftest.py                     # tiny-input self-test

``--trace 0`` measures and prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check failed or the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = ("serve-small", "serve-wide", "stream", "train")


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def ourrf_artifact(tiny: bool) -> Path:
    """The OurRF artifact the serve and stream workloads load (untimed).

    ``repro-infer``'s default training (1,500 columns, 50 trees), seeded, so
    the artifact is a pure function of the program source.  It is trained
    on first use and kept under ``.perfbench_work/artifacts``, keyed by the
    source's sha256, for later runs in the same checkout.
    """
    from perfbench import common
    from repro.core.models import RandomForestModel
    from repro.core.persistence import save_model
    from repro.datagen.corpus import generate_corpus

    key = common.source_fingerprint()[:16] + ("-tiny" if tiny else "")
    path = common.WORK_ROOT / "artifacts" / f"ourrf-{key}.model"
    if not path.exists():
        n_examples, trees = (300, 10) if tiny else (1500, 50)
        corpus = generate_corpus(n_examples=n_examples, seed=0)
        model = RandomForestModel(n_estimators=trees, random_state=0)
        model.fit(corpus.dataset)
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
        save_model(model, partial)
        os.replace(partial, path)  # a killed run never leaves half a file
    return path


def run_workload(args) -> int:
    from perfbench import common

    result = common.Result(workload=args.workload, seed=args.seed,
                           trace=bool(args.trace))
    with common.WorkDir(args.workload) as workdir:
        if args.workload == "train":
            from perfbench import train

            train.run(args.seed, args.seconds, result.trace, args.tiny,
                      result, workdir)
        else:
            from repro.core.persistence import model_fingerprint

            artifact = ourrf_artifact(args.tiny)
            result.inputs["artifact_sha256"] = model_fingerprint(artifact)
            if args.workload == "stream":
                from perfbench import stream

                stream.run(args.seed, args.seconds, result.trace, args.tiny,
                           result, workdir, artifact)
            else:
                from perfbench import serve

                serve.run(args.workload, args.seed, args.seconds,
                          result.trace, args.tiny, result, workdir, artifact)
    result.inputs["tiny"] = args.tiny

    declared = declared_metrics(result.trace)
    if result.trace:
        result.metric("error_rate",
                      result.failed / max(1, result.attempted), "fraction")
        # A layer the workload does not run reads 0: it did no work.
        for name, unit in declared.items():
            result.metrics.setdefault(name, {"value": 0.0, "unit": unit})
    undeclared = set(result.metrics) - set(declared)
    missing = set(declared) - set(result.metrics)
    wrong_unit = [name for name, unit in declared.items()
                  if name in result.metrics
                  and result.metrics[name]["unit"] != unit]
    if undeclared or missing or wrong_unit:
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: undeclared "
            f"{sorted(undeclared)}, missing {sorted(missing)}, "
            f"unit {wrong_unit}"
        )
    result.metrics = {name: result.metrics[name] for name in declared}
    result.emit(args.out)
    return 0 if result.correct else 1


def _load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def compare(base_path: Path, new_path: Path) -> int:
    """Median of each metric per side, over runs paired by workload+seed.

    Refuses (exit 2) when a pair's inputs or host core count differ: the
    two sides then measured different work.
    """
    from perfbench.common import median

    base = {(r["workload"], r["seed"], r["trace"]): r
            for r in _load_results(base_path)}
    new = {(r["workload"], r["seed"], r["trace"]): r
           for r in _load_results(new_path)}
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("compare: no runs with the same workload, seed and mode",
              file=sys.stderr)
        return 2
    for key in pairs:
        a, b = base[key], new[key]
        if a["inputs"] != b["inputs"] or a["host"]["nproc"] != b["host"]["nproc"]:
            print(f"compare: refusing {key}: inputs or host differ\n"
                  f"  base {json.dumps(a['inputs'], sort_keys=True)}\n"
                  f"  new  {json.dumps(b['inputs'], sort_keys=True)}",
                  file=sys.stderr)
            return 2
    by_group: dict[tuple, dict[str, tuple[list, list]]] = {}
    for key in pairs:
        group = by_group.setdefault((key[0], key[2]), {})
        for name, entry in base[key]["metrics"].items():
            if name in new[key]["metrics"]:
                sides = group.setdefault(name, ([], []))
                sides[0].append(entry["value"])
                sides[1].append(new[key]["metrics"][name]["value"])
    for (workload, trace), metrics in sorted(by_group.items()):
        print(f"{workload} trace {int(trace)}")
        for name, (a, b) in metrics.items():
            ma, mb = median(a), median(b)
            change = f"{(mb / ma - 1.0) * 100:+.1f}%" if ma else "n/a"
            print(f"  {name:32s} base {ma:12.6g}  new {mb:12.6g}  {change}"
                  f"  (n={len(a)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-test's mode)")
    parser.add_argument("--out", default=None,
                        help="also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare saved result records")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # SIGTERM unwinds like an exception, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
