#!/usr/bin/env python3
"""Quickstart: the `repro.Session` API on a tiny two-table catalog.

The example builds two small relations, opens a :class:`repro.Session`
(the explicit engine context owning cache budgets and kernel counters), and
walks the four session verbs:

* ``session.discover``  — exact minimal FDs of one relation;
* ``session.validate``  — check specific FDs (with their g3 errors);
* ``session.profile``   — approximate FDs (the upstaging candidates);
* ``session.infine``    — every minimal FD of an SPJ view, with provenance.

Each verb returns a unified :class:`repro.RunResult` that serialises to
canonical JSON (``save``/``load`` round-trip byte-identically) and records
which kernel and configuration produced it.
"""

import tempfile
from pathlib import Path

from repro import Relation, RunResult, Session, StraightforwardPipeline, base, join


def build_catalog() -> dict[str, Relation]:
    """Two small relations sharing the join attribute ``customer_id``."""
    customers = Relation(
        "customers",
        ("customer_id", "name", "segment", "country"),
        [
            (1, "ada", "research", "uk"),
            (2, "grace", "navy", "us"),
            (3, "edsger", "research", "nl"),
            (4, "barbara", "academia", "us"),
            (5, "alan", "research", "uk"),
        ],
    )
    orders = Relation(
        "orders",
        ("order_id", "customer_id", "priority", "status"),
        [
            (100, 1, "high", "shipped"),
            (101, 1, "low", "open"),
            (102, 2, "high", "shipped"),
            (103, 3, "medium", "open"),
            (104, 3, "high", "shipped"),
            (105, 4, "low", "open"),
        ],
    )
    return {"customers": customers, "orders": orders}


def main() -> None:
    catalog = build_catalog()

    # One explicit engine context for the whole workload: its own kernel
    # caches and counters.  The engine has no settings to pass.
    session = Session()
    print(f"== Session ==\n  {session!r}")

    # 1. Classical single-table discovery on a base relation.
    discovered = session.discover(catalog["customers"], algorithm="tane")
    print(f"\n== Minimal FDs of `customers` (TANE, backend={discovered.backend}) ==")
    for dependency in discovered.fds:
        print("  ", dependency)

    # 2. Validate hand-written FDs (g3 = fraction of violating rows).
    verdicts = session.validate(
        catalog["orders"], ["order_id -> status", "customer_id -> priority"]
    )
    print("\n== Validation of two candidate FDs on `orders` ==")
    for check in verdicts.artifacts["checks"]:
        lhs = ",".join(check["lhs"])
        print(f"   {lhs} -> {check['rhs']}: holds={check['holds']} g3={check['g3']:.3f}")

    # 3. Approximate FDs: the dependencies a selection/join could upstage.
    profiled = session.profile(catalog["orders"], threshold=0.4, max_lhs=1)
    print(f"\n== AFDs of `orders` (g3 <= 0.4): {len(profiled)} found ==")

    # 4. InFine on the integrated view: every minimal FD with its provenance.
    view = join(base("customers"), base("orders"), on="customer_id")
    run = session.infine(view, catalog)
    print(f"\n== {len(run)} FDs of the view, with provenance ==")
    for triple in run.artifacts["provenance"]:
        print(f"  [{triple['type']:18s}] {triple['fd']}   (holds in {triple['subquery']})")

    # RunResults are plain JSON artefacts: save/load round-trips are
    # byte-identical and record the engine configuration fingerprint.
    with tempfile.TemporaryDirectory() as tmp:
        path = run.save(Path(tmp) / "view_fds.json")
        reloaded = RunResult.load(path)
        assert reloaded.to_json() == run.to_json()
    print(f"\nRunResult round-trip OK (config fingerprint {run.config_fingerprint})")

    # 5. Cross-check against the straightforward approach (full view + discovery).
    reference = StraightforwardPipeline("tane").run(view, catalog)
    assert set(run.fds.as_set()) == set(reference.fds.as_set())
    print("InFine found exactly the FDs a full-view discovery finds "
          f"({len(reference.fds)} FDs), without mining the full view from scratch.")
    print(f"Step breakdown: {run.artifacts['count_by_step']}")
    print("\nKernel work of this session:")
    print(session.render_kernel_stats())


if __name__ == "__main__":
    main()
