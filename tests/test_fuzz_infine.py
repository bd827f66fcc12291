"""InFine soundness fuzz, pinned: ``tools/fuzz_infine.py`` on fixed seeds.

The tool compares InFine's FD set with TANE on the materialised view, under
the same LHS cap, for seed-replayable 2- and 3-table inner/semi join views
with optional selections and projections, NULL values and NULL join keys,
and one- or two-attribute join keys; CI sweeps many more seeds in its
``fuzz`` job.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import fuzz_infine  # noqa: E402

FIXED_SEEDS = range(40)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seeds_match_full_view_tane(seed):
    assert fuzz_infine.check_seed(seed) == []


def test_generator_is_seed_replayable():
    for seed in FIXED_SEEDS:
        assert fuzz_infine.generate_case(seed) == fuzz_infine.generate_case(seed)
    views = {fuzz_infine.generate_case(seed)[0].describe() for seed in FIXED_SEEDS}
    assert len(views) > len(FIXED_SEEDS) // 2, "distinct seeds should give distinct views"


def test_cli_reports_success():
    assert fuzz_infine.main(["--seeds", "3"]) == 0


def test_fixed_seeds_cover_every_dimension():
    """The fixed seeds draw each NULL and two-key dimension both on and off."""
    dims = [fuzz_infine._dimensions(seed)[0] for seed in FIXED_SEEDS]
    for name in ("null_values", "null_keys", "two_keys"):
        assert {getattr(d, name) for d in dims} == {True, False}, name
    seen_null = False
    for seed, d in zip(FIXED_SEEDS, dims):
        _, catalog, _ = fuzz_infine.generate_case(seed)
        assert ("k2" in catalog["A"].attribute_names) == d.two_keys
        has_null = any(v is None for r in catalog.values() for row in r.rows for v in row)
        assert has_null <= (d.null_values or d.null_keys)
        seen_null |= has_null
    assert seen_null
