"""Tests for the `repro.Session` engine API and `RunResult`.

Covers the acceptance criteria of the session redesign:

* ``Session.discover``/``validate``/``profile``/``infine`` return
  :class:`RunResult` objects whose ``save``/``load`` round-trips are
  byte-identical;
* artefacts stay byte-identical with every kernel call checked against the
  pure-python oracle, and with the kernel's cache-size constants at their
  minimum;
* the retired configuration surface: the cache variables are ignored, the
  former fields are not keywords, and every run records the same
  ``engine.config`` mapping as before;
* two concurrent sessions share neither kernel caches nor counters;
* ``--kernel-stats`` is scoped to the CLI invocation's session (no
  double-counting across repeated commands in one process).
"""

import threading
from pathlib import Path

import pytest
from kernel_oracle import LEGS, kernel_leg

import repro
from repro import Relation, RunResult, Session, TANE, base, join
from repro.cli import main
from repro.config import config_fingerprint
from repro.relational.backend import KERNEL_COUNTERS
from repro.relational.partition import (
    StrippedPartition,
    fd_holds_fast,
    fd_violation_fraction_from_partition,
    validate_level,
    validate_level_errors,
)
from repro.session import default_session, engine_config


def small_relation(name: str = "r") -> Relation:
    return Relation(
        name,
        ("a", "b", "c", "d"),
        [
            (1, "x", 10, "p"),
            (1, "x", 10, "q"),
            (2, "y", 10, "p"),
            (2, "y", 20, "q"),
            (3, "x", 30, "p"),
            (3, "x", 30, "p"),
        ],
    )


def tiny_catalog() -> dict[str, Relation]:
    customers = Relation(
        "customers",
        ("cid", "name", "segment"),
        [(1, "ada", "research"), (2, "grace", "navy"), (3, "edsger", "research")],
    )
    orders = Relation(
        "orders",
        ("oid", "cid", "status"),
        [(10, 1, "open"), (11, 1, "shipped"), (12, 2, "open"), (13, 3, "open")],
    )
    return {"customers": customers, "orders": orders}


# ---------------------------------------------------------------------------
# The retired EngineConfig: cache sizes are constants, recorded by every run.
# ---------------------------------------------------------------------------

#: The ``engine.config`` mapping of a default run.  These are the field values
#: of the retired configuration object's defaults, so every result saved by
#: older code keeps its fingerprint.
DEFAULT_ENGINE_CONFIG = {
    "marks_cache_bytes": 128 * 1024 * 1024,
    "combined_codes_cache_entries": 16,
    "partition_cache_max_positions": None,
}

RETIRED_FIELDS = (
    "marks_cache_bytes",
    "combined_codes_cache_entries",
    "partition_cache_max_positions",
)


class TestEngineConfig:
    def test_pristine_env_yields_defaults(self):
        run = Session().discover(small_relation())
        assert run.config == engine_config() == DEFAULT_ENGINE_CONFIG
        assert run.config_fingerprint == config_fingerprint(DEFAULT_ENGINE_CONFIG)
        assert run.config_fingerprint == "7bb7e62453c10097"

    def test_env_variables_are_defaults(self, monkeypatch):
        # Retired: the cache variable no longer provides a default; a run
        # records the constants whatever it says.
        monkeypatch.setenv("REPRO_MARKS_CACHE_BYTES", "4096")
        assert Session().discover(small_relation()).config == DEFAULT_ENGINE_CONFIG

    def test_malformed_env_values_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MARKS_CACHE_BYTES", "not-a-number")
        assert Session().discover(small_relation()).config == DEFAULT_ENGINE_CONFIG

    def test_invalid_backend_rejected(self):
        # No configuration object is left to name a backend in.
        assert not hasattr(repro, "EngineConfig")
        for choice in ("python", "numpy", "auto"):
            with pytest.raises(TypeError, match="backend"):
                Session(backend=choice)

    @pytest.mark.parametrize("field", RETIRED_FIELDS)
    @pytest.mark.parametrize("value", ["x", 1.5, True])
    def test_integer_fields_reject_non_integers(self, field, value):
        # The former fields are keywords of neither a session nor a verb.
        with pytest.raises(TypeError, match=field):
            Session(**{field: value})
        with pytest.raises(TypeError, match=field):
            Session().discover(small_relation(), **{field: value})

    def test_integer_fields_accept_integers_and_unbounded_cache(self):
        # Integers are refused too (``Session(marks_cache_bytes=0)``); what is
        # left of the fields is the recorded mapping: integer cache sizes and
        # an unbounded partition cache.
        with pytest.raises(TypeError, match="marks_cache_bytes"):
            Session(marks_cache_bytes=0)
        with pytest.raises(TypeError, match="config"):
            Session(config=DEFAULT_ENGINE_CONFIG)
        config = Session().validate(small_relation(), ["a -> b"]).config
        assert isinstance(config["marks_cache_bytes"], int)
        assert isinstance(config["combined_codes_cache_entries"], int)
        assert config["partition_cache_max_positions"] is None

    def test_fingerprint_tracks_content(self):
        assert config_fingerprint(engine_config()) == config_fingerprint(DEFAULT_ENGINE_CONFIG)
        assert config_fingerprint(engine_config()) != config_fingerprint(
            {**DEFAULT_ENGINE_CONFIG, "marks_cache_bytes": 0}
        )


# ---------------------------------------------------------------------------
# RunResult: unified payload, byte-identical save/load round-trips.
# ---------------------------------------------------------------------------


class TestRunResultRoundTrip:
    def run_all_verbs(self, session: Session) -> dict[str, RunResult]:
        relation = small_relation()
        catalog = tiny_catalog()
        view = join(base("customers"), base("orders"), on="cid")
        return {
            "discover": session.discover(relation, algorithm="tane"),
            "validate": session.validate(relation, ["a -> b", "c -> a", (("a", "d"), "c")]),
            "profile": session.profile(relation, threshold=0.5, max_lhs=1),
            "infine": session.infine(view, catalog),
        }

    def test_save_load_round_trip_is_byte_identical(self, tmp_path):
        for kind, result in self.run_all_verbs(Session()).items():
            path = result.save(tmp_path / f"{kind}.json")
            first_bytes = path.read_bytes()
            reloaded = RunResult.load(path)
            assert reloaded.save(tmp_path / f"{kind}_again.json").read_bytes() == first_bytes
            assert reloaded.kind == kind
            assert reloaded.fds == result.fds
            assert reloaded.config == result.config
            assert reloaded.artifact_fingerprint() == result.artifact_fingerprint()

    def test_every_verb_reports_engine_provenance(self):
        session = Session()
        for result in self.run_all_verbs(session).values():
            assert result.backend == "numpy"
            assert result.config_fingerprint == config_fingerprint(engine_config())
            assert "fds" in result.artifacts
            assert result.stats  # non-empty volatile section

    def test_discover_matches_legacy_entry_point(self):
        relation = small_relation()
        session = Session()
        via_session = session.discover(relation, algorithm="tane")
        with session.activate():
            legacy = TANE().discover(relation)
        assert via_session.fds == legacy.fds
        assert via_session.subject == legacy.relation_name

    def test_non_runresult_payload_rejected(self):
        with pytest.raises(ValueError):
            RunResult({"schema": "something-else"})


# ---------------------------------------------------------------------------
# Byte-identical artefacts across the oracle check and configuration styles.
# ---------------------------------------------------------------------------


class TestArtifactsAcrossConfigurations:
    # The ``python`` leg replays every kernel primitive call on the
    # pure-python oracle; a divergence fails inside the run.
    def test_discover_identical_across_backends(self):
        relation_rows = list(small_relation())
        fingerprints = set()
        for leg in LEGS:
            with kernel_leg(leg):
                result = Session().discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
            assert result.backend == "numpy"
            fingerprints.add(result.artifact_fingerprint())
        assert len(fingerprints) == 1

    def test_infine_identical_across_backends(self):
        view = join(base("customers"), base("orders"), on="cid")
        outputs = []
        checked = {}
        for leg in LEGS:
            with kernel_leg(leg) as checked[leg]:
                result = Session().infine(view, tiny_catalog())
            outputs.append(result.artifact_fingerprint())
        assert checked["python"]["match"] > 0
        assert outputs[0] == outputs[1]

    def test_batched_and_scalar_validation_identical(self):
        # Lattice levels are always validated batched; the per-candidate
        # scalar checks remain its oracle.
        relation = small_relation()
        with Session() as session:
            session.profile(relation, threshold=0.5)
            assert session.counters.batched_levels > 0
            partitions = {a: StrippedPartition.from_column(relation, a) for a in "abcd"}
            batch = [(partitions[lhs], rhs) for lhs in "abcd" for rhs in "abcd" if lhs != rhs]
            assert validate_level(relation, batch) == [
                fd_holds_fast(relation, partition, rhs) for partition, rhs in batch
            ]
            assert validate_level_errors(relation, batch) == [
                fd_violation_fraction_from_partition(relation, partition, rhs)
                for partition, rhs in batch
            ]

    def test_env_var_and_engine_config_produce_identical_artifacts(self, monkeypatch):
        # The retired variable is ignored: the artefacts and the recorded
        # engine.config are those of a run without it.
        relation_rows = list(small_relation())
        monkeypatch.setenv("REPRO_MARKS_CACHE_BYTES", "8192")
        first = Session().discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
        assert first.config == DEFAULT_ENGINE_CONFIG
        monkeypatch.delenv("REPRO_MARKS_CACHE_BYTES")
        second = Session().discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
        assert first.artifact_fingerprint() == second.artifact_fingerprint()
        assert second.config == DEFAULT_ENGINE_CONFIG


# ---------------------------------------------------------------------------
# Retired environment variables of earlier engine settings.
# ---------------------------------------------------------------------------


class TestBackendMinNumpyRows:
    def test_env_var_provides_the_default(self, monkeypatch):
        # REPRO_BACKEND_MIN_NUMPY_ROWS is retired: it no longer provides a
        # default for any field, and small relations run on the one kernel.
        monkeypatch.setenv("REPRO_BACKEND_MIN_NUMPY_ROWS", "64")
        run = Session().discover(small_relation())
        assert run.config == DEFAULT_ENGINE_CONFIG
        assert run.backend == "numpy"


# ---------------------------------------------------------------------------
# Session isolation: no shared caches, no shared counters.
# ---------------------------------------------------------------------------


class TestSessionIsolation:
    def test_sessions_do_not_share_counters(self):
        relation = small_relation()
        first, second = Session(), Session()
        first.discover(relation)
        assert first.counters.counting_sorts > 0
        assert second.counters.counting_sorts == 0
        assert second.counters.batched_levels == 0

    def test_sessions_do_not_share_relation_caches(self):
        relation = small_relation()
        first, second = Session(), Session()
        first_caches = first.state.caches_for(relation)
        second_caches = second.state.caches_for(relation)
        assert first_caches is not second_caches
        assert first.partition_cache(relation) is not second.partition_cache(relation)

    def test_explicit_sessions_do_not_pollute_the_default_session(self):
        before = KERNEL_COUNTERS.snapshot()
        Session().discover(small_relation())
        assert KERNEL_COUNTERS.delta(before) == {key: 0 for key in before}

    def test_legacy_entry_points_count_into_the_default_session(self):
        before = KERNEL_COUNTERS.snapshot()
        TANE().discover(small_relation())
        delta = KERNEL_COUNTERS.delta(before)
        assert sum(delta.values()) > 0
        assert default_session().counters is KERNEL_COUNTERS

    def test_concurrent_sessions_in_threads_are_isolated(self):
        rows = list(small_relation())
        results: dict[str, RunResult] = {}
        errors: list[BaseException] = []
        sessions = {"one": Session(), "two": Session()}

        def work(key: str) -> None:
            try:
                relation = Relation(key, ("a", "b", "c", "d"), rows)
                for _ in range(3):
                    results[key] = sessions[key].discover(relation)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(key,)) for key in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert (
            results["one"].artifacts["fds"] == results["two"].artifacts["fds"]
        )
        for session in sessions.values():
            assert session.counters.counting_sorts > 0

    def test_validate_reuses_the_session_partition_cache(self):
        session = Session()
        relation = small_relation()
        session.validate(relation, ["a -> b"])
        second = session.validate(relation, ["a -> c"])
        assert second.stats["partition_cache"]["hits"] >= 1

    def test_validate_with_errors_is_a_single_kernel_pass(self):
        session = Session()
        session.validate(small_relation(), ["a -> b", "a -> c"])
        # holds is derived from g3 == 0, so one batched pass serves both.
        assert session.counters.batched_levels == 1

    def test_nested_with_blocks_unwind_correctly(self):
        session = Session()
        with session:
            with session:
                session.discover(small_relation())
            session.discover(small_relation())
        assert session.counters.counting_sorts > 0

    def test_max_lhs_size_with_algorithm_instance_rejected(self):
        with pytest.raises(ValueError):
            Session().discover(small_relation(), TANE(), max_lhs_size=2)

    def test_dead_session_releases_caches_while_relation_lives(self):
        import gc
        import weakref

        relation = small_relation()
        session = Session()
        session.validate(relation, ["a -> b"])
        entry_ref = weakref.ref(session.state.caches_for(relation))
        del session
        gc.collect()
        # The relation is still alive, but the session's caches are gone:
        # the relation-side finalizer only weakly references the state.
        assert entry_ref() is None
        assert len(relation) > 0  # keep the relation alive past the check

    def test_shared_session_context_manager_across_threads(self):
        session = Session()
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def work() -> None:
            try:
                for _ in range(5):
                    with session:
                        barrier.wait()  # both threads are inside the block
                        session.discover(small_relation())
                        barrier.wait()  # ... and exit concurrently
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_close_drops_caches_but_session_stays_usable(self):
        session = Session()
        relation = small_relation()
        session.validate(relation, ["a -> b"])
        session.close()
        assert session.validate(relation, ["a -> b"]).artifacts["checks"][0]["holds"] in (
            True,
            False,
        )

    def test_partitions_do_not_pin_their_session(self):
        """A collected session's state is released even while partitions
        built under it live on, and those partitions still probe correctly."""
        import gc
        import weakref

        from repro.relational.partition import StrippedPartition

        relation = small_relation()
        session = Session()
        with session.activate():
            lhs = StrippedPartition.from_column(relation, "a")
            rhs = StrippedPartition.from_column(relation, "b")
            product = lhs.intersect(rhs)
        state_ref = weakref.ref(session.state)
        del session
        gc.collect()
        assert state_ref() is None
        assert lhs.intersect(rhs).error == product.error
        assert isinstance(lhs.refines(rhs), bool)

    def test_validated_relations_do_not_outlive_their_callers(self):
        """A long-lived session keeps no relation alive: its per-relation
        caches, the partition cache included, die with the relation."""
        import gc
        import weakref

        session = Session()
        refs = []
        for salt in range(50):
            rows = [(i % 5, (i + salt) % 7, i % 3) for i in range(40)]
            relation = Relation(f"t{salt}", ("a", "b", "c"), rows)
            session.validate(relation, ["a -> b", "b,c -> a"])
            refs.append(weakref.ref(relation))
        del relation
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert session._state._relation_caches == {}


# ---------------------------------------------------------------------------
# CLI: --kernel-stats scoped per invocation (double-counting fix).
# ---------------------------------------------------------------------------


class TestKernelStatsScoping:
    ARGS = ["table1", "--scale", "tiny", "--databases", "pte", "--kernel-stats"]

    @staticmethod
    def kernel_block(output: str) -> list[str]:
        return [line for line in output.splitlines() if line.startswith("[kernel]")]

    def test_repeated_invocations_report_identical_counters(self, capsys):
        assert main(self.ARGS) == 0
        first = self.kernel_block(capsys.readouterr().out)
        assert main(self.ARGS) == 0
        second = self.kernel_block(capsys.readouterr().out)
        assert first  # the block is present
        assert first == second  # scoped to the invocation: no accumulation
        # ... and it reports real work: the sort paths of the grouping kernel.
        assert any(
            "counting=" in line and "counting=0 " not in line + " " for line in first
        )

    def test_cli_backend_flag(self, capsys):
        # The flag is gone: naming it is a usage error, and the kernel
        # statistics name the one kernel.
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--scale", "tiny", "--databases", "pte", "--backend", "python"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(self.ARGS) == 0
        assert "[kernel] backend=numpy" in capsys.readouterr().out

    def test_cli_tables_identical_across_backends(self, capsys):
        # The python leg replays every kernel primitive call on the oracle.
        outputs = []
        for leg in LEGS:
            with kernel_leg(leg):
                assert main(["table1", "--scale", "tiny", "--databases", "pte"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


    def test_benchmark_counter_contract(self, monkeypatch):
        # e2ebench/metrics.py reads these counters from every traced run: a
        # counter dropped from kernel_stats() must fail here, in tier-1.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "e2ebench"))
        import metrics

        layers: dict[str, float] = {}
        metrics.session_layers(layers, Session().kernel_stats())
        assert layers["session.sharded_groupings"] == 0


# ---------------------------------------------------------------------------
# Module-level shims (one-liner ergonomics on the default session).
# ---------------------------------------------------------------------------


class TestModuleLevelShims:
    def test_discover_shim(self):
        result = repro.discover(small_relation())
        assert isinstance(result, RunResult)
        assert result.kind == "discover"

    def test_validate_profile_and_infine_shims(self):
        relation = small_relation()
        assert repro.validate(relation, ["a -> b"]).kind == "validate"
        assert repro.profile(relation, threshold=0.5).kind == "profile"
        view = join(base("customers"), base("orders"), on="cid")
        assert repro.infine(view, tiny_catalog()).kind == "infine"

    def test_default_session_is_stable(self):
        assert default_session() is default_session()

    def test_default_session_lazy_init_is_race_free(self):
        """Concurrent first calls must all observe one session instance."""
        import repro.session as session_module

        saved = session_module._DEFAULT_SESSION
        session_module._DEFAULT_SESSION = None
        try:
            n_threads = 8
            barrier = threading.Barrier(n_threads)
            seen: list[Session] = []
            lock = threading.Lock()

            def race() -> None:
                barrier.wait()
                session = default_session()
                with lock:
                    seen.append(session)

            threads = [threading.Thread(target=race) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(seen) == n_threads
            assert len({id(session) for session in seen}) == 1
            # All racers share the default engine state (and its counters).
            assert seen[0]._state is default_session()._state
        finally:
            session_module._DEFAULT_SESSION = saved

    def test_default_session_usable_from_many_threads(self):
        """The classic shims work concurrently on the shared default state."""
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def work() -> None:
            try:
                barrier.wait()
                for _ in range(3):
                    result = repro.discover(small_relation())
                    assert result.kind == "discover"
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
