"""Micro-benchmark of the partition kernel (encode / intersect / refines / g3).

Every partition-based code path — TANE/FUN/HyFD discovery, InFine's
``mineFDs`` validation and the g3 approximate checks — bottoms out in the
primitives timed here:

* **encode** — building single-attribute stripped partitions from raw columns;
* **intersect** — the partition product ``π(X) * π(Y)``;
* **refines** — the refinement test behind ``X -> A`` validity;
* **g3** — the violation-fraction measure of approximate FDs;
* **validate_level** — the batched per-level candidate validation entry
  point (one kernel call per lattice level, stacking candidates across LHS
  partitions when the level is dispatch-bound), timed
  against the equivalent scalar ``fd_holds_fast`` loop (``validate_scalar``).

The benchmark is a plain script (no pytest dependency) so it can run on any
checkout and emit comparable numbers::

    PYTHONPATH=src python benchmarks/bench_partition_kernel.py --label seed
    PYTHONPATH=src python benchmarks/bench_partition_kernel.py --label columnar
    PYTHONPATH=src python benchmarks/bench_partition_kernel.py --label vectorized

The kernel name is recorded with each run.  Each run is merged under its label into
``BENCH_partitions.json`` (repo root by default) so successive PRs
accumulate a perf trajectory.  The headline number — the one the acceptance
criteria compare — is the summed ``intersect`` + ``refines`` time at the
configured scale.

Scale comes from ``REPRO_BENCH_SCALE`` (``tiny``/``small``/``medium``/
``large`` or an explicit row count), matching the conventions of the pytest
benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import config_fingerprint  # noqa: E402
from repro.relational.backend import KERNEL  # noqa: E402
from repro.session import Session, engine_config  # noqa: E402
from repro.relational.partition import (  # noqa: E402
    PartitionCache,
    StrippedPartition,
    fd_holds_fast,
    fd_violation_fraction,
    validate_level,
)
from repro.relational.relation import Relation  # noqa: E402

#: Rows per named scale.  The column layout (below) is scale-independent.
SCALE_ROWS = {"tiny": 1_000, "small": 6_000, "medium": 20_000, "large": 60_000}

#: (attribute name, cardinality as a function of n_rows).  A mix of low- and
#: high-cardinality columns exercises both the dense and sparse regimes of
#: the kernel; none is unique so every partition keeps non-singleton groups.
COLUMN_SPECS = (
    ("flag", lambda n: 2),
    ("grade", lambda n: 5),
    ("code", lambda n: 12),
    ("city", lambda n: 40),
    ("dept", lambda n: max(2, n // 100)),
    ("account", lambda n: max(4, n // 20)),
    ("batch", lambda n: 8),
    ("region", lambda n: 3),
)

G3_CHECKS = (
    (("dept",), "flag"),
    (("account",), "grade"),
    (("dept", "region"), "code"),
    (("city", "batch"), "grade"),
)


def _resolve_rows(scale: str) -> int:
    if scale in SCALE_ROWS:
        return SCALE_ROWS[scale]
    try:
        return max(10, int(float(scale) * SCALE_ROWS["small"]))
    except ValueError:
        raise SystemExit(f"unknown REPRO_BENCH_SCALE {scale!r}")


def build_relation(n_rows: int, seed: int = 7) -> Relation:
    """A deterministic random relation with mixed-cardinality string columns."""
    rng = random.Random(seed)
    names = tuple(name for name, _ in COLUMN_SPECS)
    cards = [max(1, card(n_rows)) for _, card in COLUMN_SPECS]
    rows = [
        tuple(f"{name}_{rng.randrange(card)}" for (name, _), card in zip(COLUMN_SPECS, cards))
        for _ in range(n_rows)
    ]
    return Relation("bench", names, rows)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(n_rows: int, repeats: int = 3) -> dict:
    relation = build_relation(n_rows)
    names = relation.attribute_names

    # encode: fresh relation per repeat so per-column caches cannot leak
    # between measurements.
    def encode() -> None:
        fresh = Relation("bench", relation.schema, relation.rows)
        for name in names:
            StrippedPartition.from_column(fresh, name)

    encode_s = _best_of(repeats, encode)

    partitions = [StrippedPartition.from_column(relation, name) for name in names]
    pairs = [
        (partitions[i], partitions[j])
        for i in range(len(partitions))
        for j in range(i + 1, len(partitions))
    ]

    intersect_s = _best_of(repeats, lambda: [left.intersect(right) for left, right in pairs])
    refines_s = _best_of(repeats, lambda: [left.refines(right) for left, right in pairs])

    def g3() -> None:
        cache = PartitionCache(relation)
        for lhs, rhs in G3_CHECKS:
            fd_violation_fraction(relation, lhs, rhs, cache)

    g3_s = _best_of(repeats, g3)

    # Batched candidate validation: every attribute pair partition as LHS,
    # every remaining attribute as RHS — the shape of one TANE/FUN level.
    level = [
        (pair_partition, rhs)
        for (i, j), pair_partition in zip(
            ((i, j) for i in range(len(names)) for j in range(i + 1, len(names))),
            (left.intersect(right) for left, right in pairs),
        )
        for rhs in names
        if rhs not in (names[i], names[j])
    ]
    validate_batch_s = _best_of(repeats, lambda: validate_level(relation, level))
    validate_scalar_s = _best_of(
        repeats,
        lambda: [fd_holds_fast(relation, partition, rhs) for partition, rhs in level],
    )

    return {
        "n_rows": n_rows,
        "n_columns": len(names),
        "pairs": len(pairs),
        "level_candidates": len(level),
        "backend": KERNEL.name,
        "seconds": {
            "encode": round(encode_s, 6),
            "intersect": round(intersect_s, 6),
            "refines": round(refines_s, 6),
            "g3": round(g3_s, 6),
            "validate_level": round(validate_batch_s, 6),
            "validate_scalar": round(validate_scalar_s, 6),
        },
        "headline_intersect_refines": round(intersect_s + refines_s, 6),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        default="current",
        help="run label merged into the output JSON (e.g. seed, columnar)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_partitions.json"),
        help="path of the JSON trajectory file",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    # Each run executes under its own Session so its caches and kernel
    # counters are its own.
    session = Session()
    with session.activate():
        result = run_bench(_resolve_rows(scale), repeats=args.repeats)
        stats = session.kernel_stats()
    result["config_fingerprint"] = config_fingerprint(engine_config())
    # Which sort path the kernel actually took (counting-sort vs
    # introsort) — makes a run's label verifiable from the JSON alone.
    result["sort_paths"] = {
        "counting": stats.get("counting_sorts", 0),
        "introsort": stats.get("introsorts", 0),
    }

    output = Path(args.output)
    data: dict = {"schema_version": 1, "runs": {}}
    if output.exists():
        try:
            data = json.loads(output.read_text())
        except json.JSONDecodeError:
            pass
    data.setdefault("runs", {})[args.label] = {"scale": scale, **result}
    output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    print(
        f"[bench_partition_kernel] scale={scale} rows={result['n_rows']} "
        f"backend={result['backend']}"
    )
    for op, seconds in result["seconds"].items():
        print(f"  {op:<10} {seconds * 1000:9.2f} ms")
    print(f"  headline (intersect+refines): {result['headline_intersect_refines'] * 1000:.2f} ms")
    print(f"  -> merged into {output} under label {args.label!r}")


if __name__ == "__main__":
    main()
