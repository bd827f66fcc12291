"""InFine soundness fuzzer: InFine's FD set must equal TANE on the materialised view.

The paper's soundness and completeness claim is that InFine derives exactly
the minimal FDs of an SPJ view without discovering them on the view.  This
tool makes that a fuzzed invariant: a seed-replayable generator builds
2- and 3-table join views over small adversarial relations and compares
``InFine(max_lhs_size=cap).run(view, catalog)`` with
``StraightforwardPipeline(TANE(max_lhs_size=cap))``, which materialises the
view and runs TANE on it, under the same LHS cap.  The generated cases mix

* inner, left-semi and right-semi joins, left- and right-nested for three
  tables;
* join keys drawn from tiny domains (long duplicate runs, many dangling or
  fully matching keys, empty joins), on one attribute or on two;
* constant columns and planted single-table FDs;
* NULL values: in some cases 15% of the non-key values are NULL, and in
  some cases 20% of the join key values are (a NULL key matches nothing);
* optional range selections (``lo <= a <= hi``) on a base relation or on
  the view itself;
* an optional projection of the view onto a proper subset of its
  attributes;
* an LHS cap drawn from ``None`` (uncapped), 1 and 2.

The NULL and two-attribute-key dimensions are drawn from a second random
stream of the seed, so a case with all three off is the case the seed gave
before they were added.

Outer joins are deliberately not generated: InFine reports constant FDs on
the padded side that TANE rejects (a known defect pinned as a strict xfail
in ``tests/test_infine_engine.py``), so they stay out until it is fixed.

Usage::

    PYTHONPATH=src python tools/fuzz_infine.py --seeds 200
    PYTHONPATH=src python tools/fuzz_infine.py --seed 17   # replay one

A divergence prints the seed, the view and the FDs only one side found,
plus its own replay command; the exit status is then non-zero.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.discovery.tane import TANE  # noqa: E402
from repro.infine import InFine, StraightforwardPipeline  # noqa: E402
from repro.relational.algebra import JoinKind  # noqa: E402
from repro.relational.predicates import conjunction, ge, le  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.view import ViewSpec, base, join, proj, sel, validate_view  # noqa: E402

#: The join kinds the generator draws from (outer joins excluded, see above),
#: and their weights: only inner joins reach ``mineFDs``.
JOIN_KINDS = (JoinKind.INNER, JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI)
JOIN_WEIGHTS = (2, 1, 1)

#: Values of every non-key column lie in ``range(VALUE_DOMAIN)``.
VALUE_DOMAIN = 4

#: The LHS caps drawn for InFine and the reference TANE (``None`` = uncapped).
MAX_LHS_SIZES = (None, 1, 2)

#: In a case with NULL values, the share of non-key values that are NULL.
NULL_VALUE_RATE = 0.15

#: In a case with NULL join keys, the share of key values that are NULL.
NULL_KEY_RATE = 0.2


@dataclass(frozen=True)
class Dimensions:
    """The per-case draws of the second random stream."""

    null_values: bool
    null_keys: bool
    two_keys: bool


def _dimensions(seed: int) -> tuple[Dimensions, random.Random]:
    """The case's dimensions and the stream its NULLs and second keys come from."""
    rng = random.Random(f"fuzz_infine dimensions {seed}")
    return Dimensions(rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5), rng


def _relation(
    rng: random.Random,
    name: str,
    keys: list[str],
    key_domain: int,
    prefix: str,
    dims: Dimensions,
    extra: random.Random,
) -> Relation:
    """Up to 30 rows and 1-4 non-key columns, some of them constant or derived.

    ``keys`` holds one or two key names.  The first key, every non-NULL
    value and the column layout come from ``rng``; the second key and the
    NULLs come from ``extra``.
    """
    n_rows = rng.randint(0, 30)
    others = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    constant = {a for a in others if rng.random() < 0.15}
    # A planted FD ``others[0] -> others[1]`` when there is room for one.
    planted = len(others) > 1 and rng.random() < 0.5
    rows = []
    for _ in range(n_rows):
        values = {a: 0 if a in constant else rng.randrange(VALUE_DOMAIN) for a in others}
        if planted and others[1] not in constant:
            values[others[1]] = values[others[0]] % 2
        key_values = [rng.randrange(key_domain)]
        key_values += [extra.randrange(key_domain) for _ in keys[1:]]
        if dims.null_keys:
            key_values = [None if extra.random() < NULL_KEY_RATE else v for v in key_values]
        if dims.null_values:
            values = {a: None if extra.random() < NULL_VALUE_RATE else v for a, v in values.items()}
        rows.append((*key_values, *(values[a] for a in others)))
    return Relation(name, [*keys, *others], rows)


def _maybe_select(rng: random.Random, view: ViewSpec, attributes: tuple[str, ...]) -> ViewSpec:
    """Wrap ``view`` in a range selection on one attribute, with probability 1/5.

    The range spans at least two values, so most selections keep some rows.
    """
    if rng.random() >= 1 / 5:
        return view
    attribute = rng.choice(attributes)
    low = rng.randrange(VALUE_DOMAIN - 1)
    high = rng.randrange(low + 1, VALUE_DOMAIN)
    return sel(view, conjunction([ge(attribute, low), le(attribute, high)]))


def _maybe_project(rng: random.Random, view: ViewSpec, attributes: tuple[str, ...]) -> ViewSpec:
    """Project ``view`` onto a proper subset of its attributes, with probability 1/3."""
    if len(attributes) < 2 or rng.random() >= 1 / 3:
        return view
    kept = set(rng.sample(attributes, rng.randint(1, len(attributes) - 1)))
    return proj(view, [a for a in attributes if a in kept])


def _join_kind(rng: random.Random) -> JoinKind:
    return rng.choices(JOIN_KINDS, weights=JOIN_WEIGHTS)[0]


def generate_case(seed: int) -> tuple[ViewSpec, dict[str, Relation], int | None]:
    """The ``(view, catalog, max_lhs_size)`` of one fuzz case; a pure function of ``seed``."""
    rng = random.Random(seed)
    dims, extra = _dimensions(seed)
    n_tables = rng.choice((2, 3))
    # One tiny key domain per case: long duplicate runs, and most keys match.
    key_domain = rng.randint(1, 6)
    ab_keys = ["k", "k2"] if dims.two_keys else ["k"]
    c_keys = ["j", "j2"] if dims.two_keys else ["j"]
    catalog = {
        "A": _relation(rng, "A", ab_keys, key_domain, "a", dims, extra),
        "B": _relation(rng, "B", ab_keys, key_domain, "b", dims, extra),
    }
    if n_tables == 3:
        catalog["C"] = _relation(rng, "C", c_keys, key_domain, "c", dims, extra)

    def leaf(name: str) -> ViewSpec:
        return _maybe_select(rng, base(name), catalog[name].attribute_names)

    view: ViewSpec = join(leaf("A"), leaf("B"), on=ab_keys, kind=_join_kind(rng))
    if n_tables == 3:
        # Join C on any attribute the two-table view still exposes, and on
        # a second, distinct one for a two-attribute key.
        exposed = validate_view(view, catalog)
        on = [rng.choice(exposed)]
        if dims.two_keys:
            on.append(extra.choice([a for a in exposed if a != on[0]]))
        kind = _join_kind(rng)
        if rng.random() < 0.5:
            view = join(view, leaf("C"), on=on, right_on=c_keys, kind=kind)
        else:
            view = join(leaf("C"), view, on=c_keys, right_on=on, kind=kind)
    view = _maybe_select(rng, view, validate_view(view, catalog))
    # Drawn last, so the projection and the cap leave the joins and
    # selections of every seed as they were before they were added.
    view = _maybe_project(rng, view, validate_view(view, catalog))
    return view, catalog, rng.choice(MAX_LHS_SIZES)


def check_seed(seed: int) -> list[str]:
    """Generate and check one seed; returns mismatch descriptions (empty = ok)."""
    view, catalog, max_lhs_size = generate_case(seed)
    infine = set(InFine(max_lhs_size=max_lhs_size).run(view, catalog).fds.as_set())
    reference = StraightforwardPipeline(TANE(max_lhs_size=max_lhs_size)).run(
        view, catalog, with_provenance=False
    )
    expected = set(reference.fds.as_set())
    if infine == expected:
        return []
    sizes = {name: len(relation) for name, relation in sorted(catalog.items())}
    return [
        f"seed {seed}: {view.describe()} rows={sizes} max_lhs_size={max_lhs_size}",
        f"  only InFine: {sorted(map(str, infine - expected))}",
        f"  only TANE:   {sorted(map(str, expected - infine))}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds to sweep (0..N-1)")
    parser.add_argument("--seed", type=int, default=None, help="replay exactly one seed")
    args = parser.parse_args(argv)

    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    print(f"[fuzz_infine] seeds={seeds[0]}..{seeds[-1]} join kinds={[k.value for k in JOIN_KINDS]}")
    failures = 0
    for seed in seeds:
        mismatches = check_seed(seed)
        if mismatches:
            failures += 1
            for line in mismatches:
                print(f"  MISMATCH {line}")
            print(f"  replay: PYTHONPATH=src python tools/fuzz_infine.py --seed {seed}")
    if failures:
        print(f"[fuzz_infine] FAILED: {failures}/{len(seeds)} seeds diverged")
        return 1
    print(f"[fuzz_infine] all {len(seeds)} seeds: InFine == TANE on the view")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
