"""One train iteration in a fresh interpreter (run by ``perfbench.train``).

Usage: ``python perfbench/train_child.py SCALE SEED TRACE OUT_JSON``.

Corpus (``BenchmarkContext.corpus``) → canonical 80:20 split → ``fit`` of
rf, logreg, svm, cnn and knn → ``predict_proba`` on the held-out split.
With ``TRACE=1`` the benchmark's own spans wrap each of those calls; they
are recorded on a private tracer, so the program's telemetry stays off.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time

MODELS = ("rf", "logreg", "svm", "cnn", "knn")


def main(argv: list[str]) -> int:
    scale, seed, trace, out_path = int(argv[0]), int(argv[1]), argv[2] == "1", argv[3]

    import numpy as np

    from repro.benchmark.context import BenchmarkContext
    from repro.obs.trace import Tracer
    from repro.tabular.csv_io import to_csv_text

    tracer = Tracer()

    def span(name: str):
        return tracer.span(name) if trace else contextlib.nullcontext()

    context = BenchmarkContext(n_examples=scale, seed=seed)
    started = time.perf_counter()
    with span("datagen.corpus"):
        context.corpus
    test = context.test
    probabilities = {}
    for name in MODELS:
        with span(f"fit.{name}"):
            model = context.model(name)
        with span(f"predict.{name}"):
            probabilities[name] = model.predict_proba(test.profiles)
    wall_s = time.perf_counter() - started

    truths = [label.value for label in test.labels]
    accuracy, digests = {}, {}
    for name in MODELS:
        classes = [c.value for c in context.model(name).classes_]
        proba = np.ascontiguousarray(probabilities[name])
        predicted = [classes[i] for i in proba.argmax(axis=1)]
        accuracy[name] = sum(p == t for p, t in zip(predicted, truths)) / len(truths)
        digests[name] = hashlib.sha256(proba.tobytes()).hexdigest()
    payload = {
        "wall_s": wall_s,
        "columns": len(context.dataset),
        "corpus_bytes": sum(
            len(to_csv_text(table).encode()) for table in context.corpus.files
        ),
        "accuracy": accuracy,
        "digests": digests,
        "spans": [record.to_dict() for record in tracer.records],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
