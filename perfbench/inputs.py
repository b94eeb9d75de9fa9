"""Seeded, labelled inputs: serve table pools and the stream CSV.

The benchmark generates its own inputs instead of calling the program's
``repro.datagen``, so a change to the program cannot change what the
serve and stream workloads feed it.  Every column has an intended feature
type (the nine-class label set), which ``accuracy_mean`` scores the
program's predictions against.  Shapes and column kinds depend only on the
workload; ``--seed`` changes only the values.  No value
contains a comma, quote or newline, so every table is plain CSV.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

WORDS = (
    "account address agent air amount answer area arm art bank base bed "
    "bird blood board boat body book box boy bread car card care case cat "
    "chair child city class cloud coat color cost country court cup day "
    "desk dog door dream earth east egg end energy face fact farm field "
    "fire fish floor flower food foot forest friend fruit game garden "
    "glass gold grass group hair hand head heart hill home horse hour "
    "house idea island job key king lake land law leaf letter level life "
    "light line list lunch machine map market meal metal milk mind money "
    "month moon morning mother mountain music name nation night north "
    "note number ocean office oil page paper park party peace pen person "
    "picture place plant point price queen rain river road rock room "
    "salt school sea season seat ship shop side sign silver sister sky "
    "snow song sound south space spring square star station stone story "
    "street sun table tea team test time tool town train tree truth unit "
    "valley voice wall water wave way week west wind window winter wood "
    "word work world year"
).split()

SITES = ("example", "shopfront", "datahub", "newsroom", "travelog", "recipes")
DOMAINS = ("example.org", "mail.net", "corp.com", "uni.edu")
CATEGORIES = (
    "red", "green", "blue", "yellow", "black", "white", "orange", "purple"
)
UNITS = ("kg", "km", "lb", "ml", "cm")


@dataclass(frozen=True)
class Kind:
    """One column kind: its feature type, header names and value maker."""

    key: str
    label: str
    names: tuple[str, ...]
    #: distinct values a pool of this kind can hold (None: unbounded)
    domain: int | None = None


KINDS = (
    Kind("float", "Numeric", ("amount", "balance", "salary", "weight", "score")),
    Kind("int", "Numeric", ("quantity", "population", "visits", "count")),
    Kind("category", "Categorical", ("color", "segment", "group", "status"),
         domain=len(CATEGORIES)),
    Kind("date", "Datetime", ("date", "created_at", "signup_date", "timestamp")),
    Kind("sentence", "Sentence", ("comment", "description", "review", "notes")),
    Kind("url", "URL", ("url", "homepage", "link", "website")),
    Kind("money", "Embedded Number", ("price", "cost", "fee", "distance")),
    Kind("list", "List", ("tags", "keywords", "labels", "topics")),
    Kind("id", "Not-Generalizable", ("id", "record_id", "uuid", "key")),
    Kind("email", "Context-Specific", ("email", "contact", "address", "owner")),
)


def make_value(kind: Kind, rng: random.Random, index: int) -> str:
    """One cell of ``kind``; ``index`` makes identifier kinds unique."""
    key = kind.key
    if key == "float":
        return f"{rng.uniform(0.0, 100000.0):.2f}"
    if key == "int":
        return str(rng.randint(0, 1_000_000))
    if key == "category":
        return rng.choice(CATEGORIES)
    if key == "date":
        return (f"{rng.randint(1990, 2024)}-{rng.randint(1, 12):02d}-"
                f"{rng.randint(1, 28):02d} {rng.randint(0, 23):02d}:"
                f"{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}")
    if key == "sentence":
        return " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 12)))
    if key == "url":
        return (f"https://www.{rng.choice(SITES)}.com/{rng.choice(WORDS)}/"
                f"{rng.randint(1, 999999)}")
    if key == "money":
        if rng.random() < 0.5:
            return f"${rng.uniform(1.0, 9999.0):.2f}"
        return f"{rng.randint(1, 9999)} {rng.choice(UNITS)}"
    if key == "list":
        return ";".join(rng.sample(WORDS, rng.randint(2, 5)))
    if key == "id":
        return f"ID-{index:09d}"
    if key == "email":
        return (f"{rng.choice(WORDS)}.{rng.choice(WORDS)}{rng.randint(1, 9999)}"
                f"@{rng.choice(DOMAINS)}")
    raise ValueError(f"unknown kind {key!r}")


@dataclass
class TableInput:
    name: str
    text: str
    labels: list[str]
    n_rows: int

    @property
    def n_columns(self) -> int:
        return len(self.labels)

    @property
    def n_bytes(self) -> int:
        return len(self.text.encode())


def _header(kinds: list[Kind]) -> list[str]:
    """Header names fixed by position, so accuracy does not move with seed."""
    names: list[str] = []
    for position, kind in enumerate(kinds):
        name = kind.names[position // len(KINDS) % len(kind.names)]
        if name in names:
            name = f"{name}_{position}"
        names.append(name)
    return names


def make_table(
    name: str, kinds: list[Kind], n_rows: int, rng: random.Random,
    id_base: int,
) -> TableInput:
    columns = [
        [make_value(kind, rng, id_base + row) for row in range(n_rows)]
        for kind in kinds
    ]
    lines = [",".join(_header(kinds))]
    lines.extend(",".join(row) for row in zip(*columns))
    return TableInput(
        name=name, text="\n".join(lines) + "\n",
        labels=[kind.label for kind in kinds], n_rows=n_rows,
    )


def table_pool(
    seed: int, n_tables: int, n_columns: int, n_rows: int
) -> list[TableInput]:
    """``n_tables`` tables whose column kinds rotate through :data:`KINDS`."""
    rng = random.Random(seed)
    pool = []
    for t in range(n_tables):
        kinds = [KINDS[(t + c) % len(KINDS)] for c in range(n_columns)]
        pool.append(make_table(
            f"table_{t:03d}", kinds, n_rows, rng,
            id_base=rng.randint(0, 10**8),
        ))
    return pool


def distinct_values(pool: list[TableInput]) -> int:
    """Distinct cell values across a pool (the server's scan-cache load)."""
    seen: set[str] = set()
    for table in pool:
        for line in table.text.splitlines()[1:]:
            seen.update(line.split(","))
    return len(seen)


@dataclass
class StreamInput:
    path: str
    n_bytes: int
    n_rows: int
    labels: list[str]
    distinct: int


def write_stream_csv(
    path, seed: int, n_columns: int, n_bytes: int, pool_size: int
) -> StreamInput:
    """Write a CSV of about ``n_bytes``; each column cycles a value pool.

    Each column draws its rows from a pool of at most ``pool_size`` distinct
    values, so every column stays under the sketch's distinct cap and
    streamed statistics equal the buffered ones.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    kinds = [KINDS[c % len(KINDS)] for c in range(n_columns)]
    pools = []
    for kind in kinds:
        size = min(pool_size, kind.domain or pool_size)
        values: set[str] = set()
        base = rng.randint(0, 10**8)
        while len(values) < size:
            values.add(make_value(kind, rng, base + len(values)))
        pools.append(np.array(sorted(values), dtype=object))
    used = [np.zeros(len(pool), dtype=bool) for pool in pools]
    avg_row = sum(
        sum(len(v) for v in pool) / len(pool) + 1 for pool in pools
    )
    n_rows = max(1, int(n_bytes / avg_row))
    header = ",".join(_header(kinds))
    written = 0
    block = 20_000
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        for start in range(0, n_rows, block):
            size = min(block, n_rows - start)
            picks = [nprng.integers(0, len(pool), size) for pool in pools]
            for seen, index in zip(used, picks):
                seen[index] = True
            cols = [pool[index] for pool, index in zip(pools, picks)]
            handle.write("\n".join(",".join(row) for row in zip(*cols)) + "\n")
            written += size
    return StreamInput(
        path=str(path), n_bytes=os.path.getsize(path), n_rows=written,
        labels=[kind.label for kind in kinds],
        distinct=int(sum(seen.sum() for seen in used)),
    )
