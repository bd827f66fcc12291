"""Differential conformance fuzzer: one workload, every kernel path, same bytes.

The repo's central invariant is that *no kernel path selection changes
artefacts*, and that the vectorized kernel computes exactly what its
pure-python reference (``tests/kernel_oracle.py``) computes.  This tool
makes both *fuzzed* invariants instead of per-PR claims: a seed-replayable
generator produces adversarial relations (skew, constants, all-distinct
runs, nulls, long equal blocks, empty and single-row instances) and every
registered discovery algorithm is executed on every leg of the conformance
grid.  The kernel picks between two equivalent paths by input size in three
places, and the grid has two legs: ``default`` (the size-based selection)
and ``other-paths``, which zeroes the three size bounds so that every call
takes the other path:

* ``COUNTING_SORT_SPACE = 0`` — stable grouping by composite introsort,
  never the ``uint16`` counting sort;
* ``NumpyBackend.PRODUCT_LABELS_SPACE = 0`` — row labels ranked by
  ``np.unique``, never by scatter;
* ``NumpyBackend.LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE = 0`` — level
  validation by the per-LHS loop, never the stacked prescreen.

Per seed:

* on every leg, every kernel primitive call returns what the oracle
  returns on the same inputs;
* across legs, the canonical FD set of every algorithm is identical, the
  full ``RunResult`` artefacts block is **byte**-identical (serialised with
  sorted keys), the configuration-invariant ``artifact_fingerprint()``
  agrees, and so do the stripped partitions themselves (flat
  positions/offsets of every single attribute and of the full attribute
  combination).

Usage::

    PYTHONPATH=src python tools/fuzz_differential.py --seeds 25
    PYTHONPATH=src python tools/fuzz_differential.py --seed 17   # replay one

Every failure message names the seed, so a CI hit replays locally with
``--seed``.  Exit status is non-zero on any divergence.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Iterator
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from kernel_oracle import cross_checked  # noqa: E402

from repro.discovery.registry import available_algorithms  # noqa: E402
from repro.relational import backend  # noqa: E402
from repro.relational.backend import NumpyBackend  # noqa: E402
from repro.relational.partition import StrippedPartition  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.session import Session  # noqa: E402

#: Row counts the generator draws from — deliberately including the empty
#: relation, the single row and other tiny sizes.
ROW_COUNT_CHOICES = (0, 1, 2, 3, 5, 8, 13, 30, 60, 120)

#: Column shapes; each is an adversarial regime of the grouping kernel.
SHAPES = ("constant", "distinct", "skewed", "nulls", "blocks", "random")


def _column(rng: random.Random, n: int, shape: str) -> list:
    if shape == "constant":
        return ["k"] * n
    if shape == "distinct":
        return [f"v{i}" for i in range(n)]
    if shape == "skewed":
        # One dominant value: most pairs agree, a few cold stragglers.
        return ["hot" if rng.random() < 0.85 else f"cold{rng.randrange(3)}" for _ in range(n)]
    if shape == "nulls":
        return [None if rng.random() < 0.4 else f"v{rng.randrange(3)}" for _ in range(n)]
    if shape == "blocks":
        # Long equal runs: few, large groups.
        out: list = []
        value = 0
        while len(out) < n:
            run = min(n - len(out), rng.randrange(1, max(2, n // 2 + 1)))
            out.extend([f"b{value}"] * run)
            value += 1
        return out
    return [rng.randrange(max(1, n)) for _ in range(n)]


def generate_case(seed: int) -> tuple[tuple[str, ...], list[tuple], list[str]]:
    """The ``(attribute names, rows, column shapes)`` of one fuzz case.

    Pure function of ``seed`` — the replayability contract of the suite.
    """
    rng = random.Random(seed)
    n_rows = rng.choice(ROW_COUNT_CHOICES)
    n_columns = rng.randrange(2, 5)
    shapes = [rng.choice(SHAPES) for _ in range(n_columns)]
    columns = [_column(rng, n_rows, shape) for shape in shapes]
    names = tuple(chr(ord("a") + i) for i in range(n_columns))
    rows = [tuple(column[i] for column in columns) for i in range(n_rows)]
    return names, rows, shapes


#: One patch of a leg: ``(owner, attribute, value)``.  The module constant
#: lives on ``repro.relational.backend``, the two class attributes on
#: ``NumpyBackend`` itself.
Patch = tuple[object, str, int]


def conformance_legs() -> list[tuple[str, tuple[Patch, ...]]]:
    """The legs of the grid, as ``(label, patches)`` pairs."""
    return [
        ("default", ()),
        (
            "other-paths",
            (
                (backend, "COUNTING_SORT_SPACE", 0),
                (NumpyBackend, "PRODUCT_LABELS_SPACE", 0),
                (NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE", 0),
            ),
        ),
    ]


@contextmanager
def patched(patches: tuple[Patch, ...]) -> Iterator[None]:
    """Apply ``patches`` for the extent of the ``with`` block."""
    with ExitStack() as stack:
        for owner, attribute, value in patches:
            stack.enter_context(mock.patch.object(owner, attribute, value))
        yield


def _observe_leg(
    names: tuple[str, ...],
    rows: list[tuple],
    patches: tuple[Patch, ...],
    algorithms: list[str],
    oracle: bool = False,
) -> dict:
    """Everything one leg produces, in a directly comparable form.

    ``patches`` are applied for the leg.  With ``oracle``, every kernel
    primitive call is also replayed on the pure-python oracle; a divergence
    raises ``AssertionError``.
    """
    checked = cross_checked() if oracle else nullcontext()
    with patched(patches), Session() as session, checked:
        relation = Relation("fuzz", names, rows)
        partitions = {}
        for attribute in names:
            partitions[attribute] = StrippedPartition.from_column(relation, attribute).flat_lists()
        partitions["*combined*"] = StrippedPartition.from_columns(relation, names).flat_lists()
        runs = {}
        for algorithm in algorithms:
            result = session.discover(relation, algorithm=algorithm)
            runs[algorithm] = {
                "fds": sorted((sorted(fd.lhs), fd.rhs) for fd in result.fds),
                "artifact_bytes": json.dumps(result.artifacts, sort_keys=True),
                "artifact_fingerprint": result.artifact_fingerprint(),
            }
    return {"partitions": partitions, "runs": runs}


def check_case(label: str, names: tuple[str, ...], rows: list[tuple]) -> list[str]:
    """Run one case over the whole grid; returns human-readable mismatches."""
    algorithms = available_algorithms()
    mismatches: list[str] = []
    reference_leg: str | None = None
    reference: dict | None = None
    for leg, patches in conformance_legs():
        try:
            observed = _observe_leg(names, rows, patches, algorithms, oracle=True)
        except AssertionError as exc:
            return [f"{label}: {exc} on leg {leg}"]
        if reference is None:
            reference_leg, reference = leg, observed
            continue
        if observed == reference:
            continue
        for attribute, flat in observed["partitions"].items():
            if flat != reference["partitions"][attribute]:
                mismatches.append(
                    f"{label}: partition({attribute!r}) differs on leg {leg} vs {reference_leg}"
                )
        for algorithm, run in observed["runs"].items():
            for key, value in run.items():
                if value != reference["runs"][algorithm][key]:
                    mismatches.append(
                        f"{label}: {algorithm} {key} differs on leg {leg} vs {reference_leg}"
                    )
    return mismatches


def check_seed(seed: int) -> list[str]:
    """Generate and check one seed; returns mismatch descriptions (empty = ok)."""
    names, rows, shapes = generate_case(seed)
    label = f"seed {seed} (rows={len(rows)}, shapes={shapes})"
    return check_case(label, names, rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to sweep (0..N-1)")
    parser.add_argument("--seed", type=int, default=None, help="replay exactly one seed")
    args = parser.parse_args(argv)

    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    legs = [leg for leg, _ in conformance_legs()]
    print(
        f"[fuzz_differential] seeds={seeds[0]}..{seeds[-1]} legs={legs} "
        f"algorithms={available_algorithms()}"
    )
    failures = 0
    for seed in seeds:
        mismatches = check_seed(seed)
        if mismatches:
            failures += 1
            for line in mismatches:
                print(f"  MISMATCH {line}")
            print(f"  replay: PYTHONPATH=src python tools/fuzz_differential.py --seed {seed}")
        else:
            print(f"  seed {seed}: conforms")
    if failures:
        print(f"[fuzz_differential] FAILED: {failures}/{len(seeds)} seeds diverged")
        return 1
    print(f"[fuzz_differential] all {len(seeds)} seeds conform")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
