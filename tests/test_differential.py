"""Differential conformance suite: pins the fuzz tool's grid as tier-1 tests.

``tools/fuzz_differential.py`` is the replayable generator/checker; this
module drives it from pytest so the conformance grid — the default leg and
the leg that forces every size-selected kernel path the other way, ×
every registered discovery algorithm, with every kernel call checked
against the pure-python oracle — runs on every tier-1 invocation with
fixed seeds plus explicit adversarial fixtures the random generator is not
guaranteed to hit (empty relation, single row, three rows, pure constants,
all-distinct, heavy skew, nulls).
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import fuzz_differential  # noqa: E402

from repro.discovery.registry import available_algorithms  # noqa: E402
from repro.relational import backend  # noqa: E402
from repro.relational.backend import NumpyBackend  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.session import Session  # noqa: E402

FIXED_SEEDS = (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seeds_conform(seed):
    assert fuzz_differential.check_seed(seed) == []


def test_generator_is_seed_replayable():
    for seed in FIXED_SEEDS:
        assert fuzz_differential.generate_case(seed) == fuzz_differential.generate_case(seed)
    cases = {
        fuzz_differential.generate_case(seed)[:2] == fuzz_differential.generate_case(0)[:2]
        for seed in FIXED_SEEDS
    }
    assert False in cases, "distinct seeds should not all collapse to one case"


ADVERSARIAL_CASES = {
    "empty": (("a", "b"), []),
    "single_row": (("a", "b"), [("x", 1)]),
    "fewer_rows_than_shards": (("a", "b"), [("x", 1), ("x", 2), ("y", 1)]),
    "constants": (("a", "b", "c"), [("k", "k", "k")] * 12),
    "all_distinct": (("a", "b"), [(f"v{i}", i) for i in range(20)]),
    "skew": (
        ("a", "b", "c"),
        [("hot", i % 2, "x") for i in range(25)] + [(f"cold{i}", i, "y") for i in range(5)],
    ),
    "nulls": (
        ("a", "b"),
        [(None, 1), ("x", None), (None, 1), ("x", 2), (None, None), ("y", 1)],
    ),
    "blocks_across_boundaries": (
        ("a", "b"),
        [(f"b{i // 7}", i % 3) for i in range(42)],
    ),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
def test_adversarial_fixtures_conform(case):
    names, rows = ADVERSARIAL_CASES[case]
    assert fuzz_differential.check_case(case, names, rows) == []


def test_grid_covers_required_legs():
    """The default selection, and a leg that forces every other kernel path."""
    legs = dict(fuzz_differential.conformance_legs())
    assert list(legs) == ["default", "other-paths"]
    assert legs["default"] == ()
    forced = {(owner, attribute): value for owner, attribute, value in legs["other-paths"]}
    assert forced == {
        (backend, "COUNTING_SORT_SPACE"): 0,
        (NumpyBackend, "PRODUCT_LABELS_SPACE"): 0,
        (NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE"): 0,
    }


def test_other_paths_leg_takes_the_other_paths():
    """Under the second leg no call takes a size-selected fast path."""
    names, rows = ADVERSARIAL_CASES["blocks_across_boundaries"]
    patches = dict(fuzz_differential.conformance_legs())["other-paths"]
    with fuzz_differential.patched(patches), Session() as session:
        assert backend.COUNTING_SORT_SPACE == 0
        assert NumpyBackend.PRODUCT_LABELS_SPACE == 0
        assert NumpyBackend.LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE == 0
        with mock.patch.object(np, "stack", wraps=np.stack) as stacked:
            session.discover(Relation("r", names, rows), algorithm="fun")
        assert session.counters.batched_levels > 0
        assert stacked.call_count == 0  # the per-LHS loop, not the prescreen
        assert session.counters.introsorts > 0
        assert session.counters.counting_sorts == 0
    assert backend.COUNTING_SORT_SPACE == 1 << 16
    assert NumpyBackend.PRODUCT_LABELS_SPACE == 1 << 15
    assert NumpyBackend.LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE == 512


def test_oracle_divergence_is_reported(monkeypatch):
    """A kernel primitive that disagrees with the oracle fails the case."""
    every_row_a_singleton = (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
    monkeypatch.setattr(NumpyBackend, "group_by_codes", lambda self, *args: every_row_a_singleton)
    names, rows = ADVERSARIAL_CASES["constants"]
    mismatches = fuzz_differential.check_case("constants", names, rows)
    assert mismatches and "group_by_codes differs from the oracle" in mismatches[0]


def test_grid_covers_all_registered_algorithms():
    names, rows = ADVERSARIAL_CASES["fewer_rows_than_shards"]
    legs = fuzz_differential.conformance_legs()
    observed = fuzz_differential._observe_leg(
        names, rows, legs[0][1], list(available_algorithms())
    )
    assert set(observed["runs"]) == set(available_algorithms())


def test_cli_replays_single_seed(capsys):
    assert fuzz_differential.main(["--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "seed 3: conforms" in out
