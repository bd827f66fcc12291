"""Self-tests of the end-to-end benchmark (fast; no timed runs).

Run with ``python -m pytest e2ebench`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import base_tables  # noqa: E402
import hostcal  # noqa: E402
import paper_views  # noqa: E402
import run  # noqa: E402
import serve_mix  # noqa: E402
from checks import FDChecker, fd_problems  # noqa: E402
from metrics import END_TO_END, PER_LAYER, Outcome  # noqa: E402
from repro import Session  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- seeded generators ---------------------------------------------------------
def test_base_table_generator_is_deterministic():
    first = base_tables.generate(11, n_rows=2_000)
    assert first == base_tables.generate(11, n_rows=2_000)
    assert first != base_tables.generate(12, n_rows=2_000)
    assert len(first[0]) == len(base_tables.ATTRIBUTES)


def test_serve_relations_are_deterministic():
    first = serve_mix.make_relation("r", 5)
    assert first.rows == serve_mix.make_relation("r", 5).rows
    assert first.rows != serve_mix.make_relation("r", 6).rows
    assert len(first) == serve_mix.ROWS


# -- statistics and calibration ----------------------------------------------
def test_tail_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        hostcal.tail_percentile([1.0] * 10)
    assert hostcal.tail_percentile([float(i) for i in range(11)]) == (100 / 11, 0.0)
    values = [float(i) for i in range(100)]
    percentile, value = hostcal.tail_percentile(values)
    assert value == 89.0 and percentile == 90.0
    assert sum(1 for v in values if v > value) == 10


def test_geomean():
    assert hostcal.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert hostcal.geomean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        hostcal.geomean([1.0, 0.0])


def test_calibration_arithmetic():
    nominal = hostcal.PROBE_NOMINAL_S
    assert hostcal.calibrate(2.0, [nominal] * 5) == pytest.approx(2.0)
    # Probes twice as slow as nominal: the host ran at half speed.
    assert hostcal.calibrate(3.0, [2 * nominal, 2 * nominal, nominal]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        hostcal.calibrate(1.0, [])


def test_window_widens_to_the_minimum_probe_count():
    meter = hostcal.Speedometer()
    meter.times = [float(t) for t in range(100)]
    meter.durations = [float(t) for t in range(100)]
    inside = meter.window(10.0, 60.0)
    assert inside == [float(t) for t in range(10, 61)]
    narrow = meter.window(50.2, 50.4)  # no probe inside: nearest ones on both sides
    assert len(narrow) >= hostcal.MIN_WINDOW_PROBES
    assert min(narrow) < 50.2 < 50.4 < max(narrow)


def test_quartile_spread():
    assert hostcal.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert hostcal.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


# -- metric names --------------------------------------------------------------
def test_metric_names_and_counts():
    e2e = [name for name, _, _ in END_TO_END]
    layers = [name for name, _ in PER_LAYER]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    for name in e2e + layers:
        assert NAME.match(name), name
    for unit in [unit for _, unit, _ in END_TO_END] + [unit for _, unit in PER_LAYER]:
        assert UNIT.match(unit), unit
    assert "setup_s" in e2e


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


# -- answer checks ----------------------------------------------------------------
def test_fd_checker_catches_corrupted_fds():
    rows = base_tables.generate(3, n_rows=3_000)
    fds = Session().discover(
        __import__("repro").Relation("t", base_tables.ATTRIBUTES, rows), "tane", max_lhs_size=2
    ).artifacts["fds"]
    checker = FDChecker(base_tables.ATTRIBUTES, rows)
    assert base_tables.PLANTED in fds
    assert fd_problems(checker, fds) == []
    too_small = {"lhs": ["k40"], "rhs": "derived"}
    too_big = {"lhs": ["k2", "k300", "k40"], "rhs": "derived"}
    problems = fd_problems(checker, [too_small, too_big])
    assert problems == ["does not hold: k40 -> derived", "not minimal: k2,k300,k40 -> derived"]


def test_serve_check_catches_a_corrupted_result():
    relation = serve_mix.make_relation("hot_0", 1)
    kind, params = serve_mix.JOB_MIX[0]
    expected = {("hot_0", kind): serve_mix.reference_artifacts(relation, kind, params)}
    good = serve_mix.JobRecord(kind, "hot_0", traced=False)
    good.status = "done"
    good.payload = {"result": {"artifacts": json.loads(expected[("hot_0", kind)])}}
    bad = serve_mix.JobRecord(kind, "hot_0", traced=False)
    bad.status = "done"
    bad.payload = {"result": {"artifacts": json.loads(expected[("hot_0", kind)])}}
    bad.payload["result"]["artifacts"]["checks"][0]["g3"] = 0.0
    out = Outcome()
    serve_mix._check([good, bad], {}, expected, out)
    assert out.attempted == 2 and out.failed == 1
    assert "differ from a bare Session" in out.problems[0]


def test_paper_views_check_catches_a_corrupted_baseline():
    catalogs = paper_views.load_all("tiny", 3)
    case = paper_views.paper_views()[0]
    catalog = catalogs[case.database]
    infine = paper_views.Job(0, case.key, "infine", 0, traced=False)
    infine.record(Session().infine(case.spec, catalog))
    tane = paper_views.Job(1, case.key, "tane", 0, traced=False)
    tane.record(paper_views.StraightforwardPipeline("tane").run(
        case.spec, catalog, with_provenance=False))
    out = Outcome()
    paper_views._check([infine, tane], out)
    assert out.problems == []
    tane.fds = tane.fds[1:]  # one FD lost
    paper_views._check([infine, tane], out)
    assert out.failed == 1 and "different FDs" in out.problems[0]


def test_a_wrong_answer_makes_the_run_fail(capsys):
    args = argparse.Namespace(workload="base_tables", seed=1, seconds=1.0, trace=0)
    out = Outcome()
    out.attempted = 3
    out.e2e = {name: 1.0 for name, _, _ in END_TO_END}
    assert run.finish(out, args) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True
    out.fail("corrupted answer")
    assert run.finish(out, args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {name for name, _, _ in END_TO_END}
