"""Calibrate the machine-local backend threshold and print an ``EngineConfig``.

``backend_min_numpy_rows`` is a knob, not a constant, because its crossover
depends on the host (cache sizes, numpy build, CPU): below how many rows the
pure-python backend beats the numpy backend (per-call dispatch overhead
dominates tiny inputs).  It is measured by timing a full encode +
pairwise-intersect pass on the same relation under each backend across a
row-count sweep.

The output is a ready-to-paste recommendation::

    PYTHONPATH=src python benchmarks/bench_calibration.py
    PYTHONPATH=src python benchmarks/bench_calibration.py \
        --output calibration.json --repeats 9

On a machine without numpy the sweep is moot — the script says so and
exits cleanly (the python backend is the only choice).

Results are advisory: the default (``backend_min_numpy_rows=0``) is already
right for typical hosts; run this when deploying on unusual hardware or
after a numpy upgrade.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import ENV_BACKEND_MIN_NUMPY_ROWS  # noqa: E402
from repro.session import Session  # noqa: E402

from bench_partition_kernel import COLUMN_SPECS, build_relation  # noqa: E402

#: Row counts swept for the python-vs-numpy crossover.
BACKEND_ROW_SWEEP = (100, 250, 500, 1_000, 2_000, 4_000)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _encode_intersect_seconds(backend: str, n_rows: int, repeats: int) -> float:
    """Best-of time of one encode + pairwise-intersect pass on ``backend``."""
    from repro.relational.partition import StrippedPartition

    relation = build_relation(n_rows)
    names = relation.attribute_names
    with Session(backend=backend, backend_min_numpy_rows=0):
        partitions = [StrippedPartition.from_column(relation, n) for n in names]

        def work() -> None:
            for i in range(len(partitions)):
                for j in range(i + 1, len(partitions)):
                    partitions[i].intersect(partitions[j])

        return _best_of(repeats, work)


def calibrate_backend_min_rows(repeats: int) -> dict:
    """Sweep row counts; recommend the smallest n where numpy wins."""
    rows = []
    crossover = 0
    for n_rows in BACKEND_ROW_SWEEP:
        python_s = _encode_intersect_seconds("python", n_rows, repeats)
        numpy_s = _encode_intersect_seconds("numpy", n_rows, repeats)
        winner = "numpy" if numpy_s <= python_s else "python"
        rows.append(
            {
                "n_rows": n_rows,
                "python_s": round(python_s, 6),
                "numpy_s": round(numpy_s, 6),
                "winner": winner,
            }
        )
        if winner == "python":
            crossover = n_rows + 1  # python still ahead at this size
    # Everything >= the last python win goes to numpy; 0 means numpy always.
    recommended = 0 if crossover <= BACKEND_ROW_SWEEP[0] else crossover
    return {"sweep": rows, "recommended": recommended}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--output", default=None, help="optional JSON file for the raw sweep numbers"
    )
    args = parser.parse_args(argv)

    try:
        import numpy  # noqa: F401
    except ImportError:
        print(
            "[bench_calibration] numpy is not importable: the python backend "
            "is the only option, and the threshold only steers numpy code.\n"
            "Nothing to calibrate."
        )
        return

    print(f"[bench_calibration] columns={len(COLUMN_SPECS)} repeats={args.repeats}")

    backend_cal = calibrate_backend_min_rows(args.repeats)
    print("\nbackend crossover (encode + pairwise intersect):")
    for row in backend_cal["sweep"]:
        print(
            f"  rows={row['n_rows']:>6}  python={row['python_s'] * 1e3:8.2f} ms"
            f"  numpy={row['numpy_s'] * 1e3:8.2f} ms  -> {row['winner']}"
        )

    min_rows = backend_cal["recommended"]
    print("\nrecommended EngineConfig for this machine:")
    print(f"  EngineConfig(backend_min_numpy_rows={min_rows})")
    print("or via environment:")
    print(f"  export {ENV_BACKEND_MIN_NUMPY_ROWS}={min_rows}")

    if args.output:
        Path(args.output).write_text(
            json.dumps({"backend_min_numpy_rows": backend_cal}, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nraw sweep written to {args.output}")


if __name__ == "__main__":
    main()
