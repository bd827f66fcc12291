"""Tests for the `repro.Session` engine API, `EngineConfig` and `RunResult`.

Covers the acceptance criteria of the session redesign:

* ``Session.discover``/``validate``/``profile``/``infine`` return
  :class:`RunResult` objects whose ``save``/``load`` round-trips are
  byte-identical;
* artefacts stay byte-identical across backends, across the per-relation
  backend switch point (``backend_min_numpy_rows``), and across env-var vs
  ``EngineConfig`` configuration of the same settings;
* configuration precedence: env var < ``EngineConfig``/constructor kwarg <
  per-call override;
* two concurrent sessions share neither kernel caches nor counters;
* ``--kernel-stats`` is scoped to the CLI invocation's session (no
  double-counting across repeated commands in one process).
"""

import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import EngineConfig, Relation, RunResult, Session, TANE, base, join
from repro.cli import main
from repro.config import (
    ENV_BACKEND,
    ENV_BACKEND_MIN_NUMPY_ROWS,
    ENV_COMBINED_CACHE_ENTRIES,
    ENV_MARKS_CACHE_BYTES,
    ConfigError,
)
from repro.relational.backend import KERNEL_COUNTERS, numpy_available
from repro.relational.partition import (
    StrippedPartition,
    fd_holds_fast,
    fd_violation_fraction_from_partition,
    validate_level,
    validate_level_errors,
)
from repro.session import default_session

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy fast path not importable"
)


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
# EngineConfig: env parsing, validation, precedence, fingerprints.
# ---------------------------------------------------------------------------


class TestEngineConfig:
    def test_pristine_env_yields_defaults(self):
        assert EngineConfig.from_env(env={}) == EngineConfig()

    def test_env_variables_are_defaults(self):
        config = EngineConfig.from_env(
            env={
                ENV_BACKEND: "python",
                ENV_BACKEND_MIN_NUMPY_ROWS: "128",
                ENV_MARKS_CACHE_BYTES: "4096",
                ENV_COMBINED_CACHE_ENTRIES: "5",
            }
        )
        assert config.backend == "python"
        assert config.backend_min_numpy_rows == 128
        assert config.marks_cache_bytes == 4096
        assert config.combined_codes_cache_entries == 5

    def test_malformed_env_values_fall_back(self):
        config = EngineConfig.from_env(env={ENV_MARKS_CACHE_BYTES: "not-a-number"})
        assert config.marks_cache_bytes == EngineConfig().marks_cache_bytes

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(backend="fortran")
        with pytest.raises(ConfigError):
            EngineConfig.from_env(env={ENV_BACKEND: "fortran"})

    def test_replace_ignores_none_and_rejects_unknown(self):
        config = EngineConfig(backend="python")
        assert config.replace(backend=None) is config
        assert config.replace(backend="auto").backend == "auto"
        with pytest.raises(ConfigError):
            config.replace(warp_drive=True)

    @pytest.mark.parametrize(
        "field",
        [
            "backend_min_numpy_rows",
            "marks_cache_bytes",
            "combined_codes_cache_entries",
            "partition_cache_max_positions",
        ],
    )
    @pytest.mark.parametrize("value", ["x", 1.5, True])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            EngineConfig.from_dict({field: value})

    def test_integer_fields_accept_integers_and_unbounded_cache(self):
        unbounded = EngineConfig(partition_cache_max_positions=None)
        assert unbounded.partition_cache_max_positions is None
        config = EngineConfig(marks_cache_bytes=0, partition_cache_max_positions=7)
        assert (config.marks_cache_bytes, config.partition_cache_max_positions) == (0, 7)
        with pytest.raises(ConfigError, match="marks_cache_bytes"):
            EngineConfig(marks_cache_bytes=None)
        with pytest.raises(ConfigError, match="combined_codes_cache_entries"):
            EngineConfig(combined_codes_cache_entries=1)

    def test_fingerprint_tracks_content(self):
        assert EngineConfig().fingerprint() == EngineConfig().fingerprint()
        assert EngineConfig().fingerprint() != EngineConfig(backend="python").fingerprint()

    def test_env_vs_explicit_config_are_the_same_settings(self):
        explicit = EngineConfig(backend="python", marks_cache_bytes=4096)
        from_env = EngineConfig.from_env(
            env={ENV_BACKEND: "python", ENV_MARKS_CACHE_BYTES: "4096"}
        )
        assert explicit == from_env
        assert explicit.fingerprint() == from_env.fingerprint()


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
            assert result.backend in ("python", "numpy")
            assert result.config_fingerprint == session.config.fingerprint()
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
# Byte-identical artefacts across backends and configuration styles.
# ---------------------------------------------------------------------------


@requires_numpy
class TestArtifactsAcrossConfigurations:
    def test_discover_identical_across_backends(self):
        relation_rows = list(small_relation())
        fingerprints = set()
        for backend in ("python", "numpy"):
            session = Session(backend=backend)
            result = session.discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
            assert result.backend == backend
            fingerprints.add(result.artifact_fingerprint())
        assert len(fingerprints) == 1

    def test_infine_identical_across_backends(self):
        view = join(base("customers"), base("orders"), on="cid")
        outputs = []
        for backend in ("python", "numpy"):
            result = Session(backend=backend).infine(view, tiny_catalog())
            outputs.append(result.artifact_fingerprint())
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
        relation_rows = list(small_relation())
        monkeypatch.setenv(ENV_BACKEND, "python")
        monkeypatch.setenv(ENV_MARKS_CACHE_BYTES, "8192")
        via_env = Session()  # EngineConfig.from_env()
        monkeypatch.delenv(ENV_BACKEND)
        monkeypatch.delenv(ENV_MARKS_CACHE_BYTES)
        explicit = Session(
            config=EngineConfig(backend="python", marks_cache_bytes=8192)
        )
        assert via_env.config == explicit.config
        first = via_env.discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
        second = explicit.discover(Relation("r", ("a", "b", "c", "d"), relation_rows))
        # Same artefacts AND the very same engine provenance (config +
        # fingerprint + resolved backend); only runtimes may differ.
        assert first.artifact_fingerprint() == second.artifact_fingerprint()
        assert first.payload["engine"] == second.payload["engine"]


# ---------------------------------------------------------------------------
# Configuration precedence: env var < EngineConfig kwarg < per-call override.
# ---------------------------------------------------------------------------


@requires_numpy
class TestConfigPrecedence:
    def test_constructor_kwarg_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "python")
        assert Session().config.backend == "python"  # env provides the default
        session = Session(backend="numpy")  # explicit kwarg wins
        assert session.config.backend == "numpy"
        assert session.discover(small_relation()).backend == "numpy"

    def test_explicit_config_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        session = Session(config=EngineConfig(backend="python"))
        assert session.discover(small_relation()).backend == "python"

    def test_per_call_override_beats_session_config(self):
        session = Session(backend="numpy")
        pinned = session.discover(small_relation(), backend="python")
        assert pinned.backend == "python"
        assert pinned.config.backend == "python"
        # The session itself is untouched by per-call overrides.
        assert session.config.backend == "numpy"
        assert session.discover(small_relation()).backend == "numpy"

    def test_per_call_override_artifacts_identical(self):
        session = Session(backend="numpy")
        relation = small_relation()
        assert (
            session.discover(relation, backend="python").artifact_fingerprint()
            == session.discover(relation).artifact_fingerprint()
        )

    def test_per_call_override_still_counts_into_the_session(self):
        session = Session(backend="numpy")
        session.discover(small_relation(), backend="python")
        snapshot = session.kernel_stats()
        assert snapshot["partition_misses"] + snapshot["mark_misses"] > 0

    def test_repeated_per_call_overrides_reuse_one_derived_state(self):
        session = Session(backend="numpy")
        # The derived state (and with it the relation-scoped caches) is
        # memoised per overridden configuration instead of being rebuilt on
        # every call; no-op overrides resolve to the session state itself.
        first = session._call_state({"backend": "python"})
        assert first is session._call_state({"backend": "python"})
        assert first is not session.state
        assert first.counters is session.counters
        assert session._call_state({"backend": "numpy"}) is session.state


# ---------------------------------------------------------------------------
# Session isolation: no shared caches, no shared counters.
# ---------------------------------------------------------------------------


class TestSessionIsolation:
    def test_sessions_do_not_share_counters(self):
        relation = small_relation()
        first, second = Session(), Session()
        first.discover(relation)
        assert first.counters.mark_misses > 0
        assert second.counters.mark_misses == 0
        assert second.counters.mark_hits == 0

    def test_sessions_do_not_share_relation_caches(self):
        relation = small_relation()
        first, second = Session(), Session()
        first_caches = first.state.caches_for(relation)
        second_caches = second.state.caches_for(relation)
        assert first_caches is not second_caches
        assert first_caches.marks is not second_caches.marks
        assert first_caches.combined is not second_caches.combined

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
            assert session.counters.mark_misses > 0

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
        assert session.counters.mark_misses > 0

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

    def test_partitions_bind_their_mark_cache_weakly(self):
        """ROADMAP regression: a collected session's mark cache is released
        even while partitions built under it live on."""
        import gc
        import weakref

        from repro.relational.partition import StrippedPartition

        relation = small_relation()
        session = Session()
        with session.activate():
            lhs = StrippedPartition.from_column(relation, "a")
            rhs = StrippedPartition.from_column(relation, "b")
            product = lhs.intersect(rhs)  # populates the mark cache
            cache_ref = weakref.ref(relation.mark_cache)
            assert lhs._mark_cache is cache_ref()
        del session
        gc.collect()
        # The partition no longer pins the dead session's cache ...
        assert cache_ref() is None
        assert lhs._mark_cache is None
        # ... and still probes correctly via the fallback cache.
        assert lhs.intersect(rhs).error == product.error
        assert isinstance(lhs.refines(rhs), bool)


# ---------------------------------------------------------------------------
# Per-relation backend override heuristic (ROADMAP open item).
# ---------------------------------------------------------------------------


@requires_numpy
class TestBackendMinNumpyRows:
    def test_small_relations_resolve_to_python(self):
        session = Session(backend="auto", backend_min_numpy_rows=100)
        small = small_relation()
        assert session.state.backend_for(len(small)).name == "python"
        assert session.state.backend_for(100).name == "numpy"
        assert session.discover(small).backend == "python"

    def test_env_var_provides_the_default(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND_MIN_NUMPY_ROWS, "64")
        assert Session().config.backend_min_numpy_rows == 64

    def test_disabled_by_default(self):
        assert EngineConfig().backend_min_numpy_rows == 0
        assert Session(backend="auto").state.backend_for(1).name == "numpy"

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(st.none(), st.integers(0, 2)),
                st.integers(0, 1),
            ),
            min_size=0,
            max_size=24,
        ),
        threshold=st.integers(0, 30),
    )
    def test_artifacts_byte_identical_across_the_switch_point(self, rows, threshold):
        """Property: the heuristic never changes artefacts, wherever it lands.

        ``threshold`` sweeps across the relation size, so the three sessions
        exercise below-, at- and above-threshold resolution; the forced
        python/numpy runs bracket both sides of the switch.
        """
        payloads = set()
        backends = set()
        for config in (
            EngineConfig(backend="auto", backend_min_numpy_rows=threshold),
            EngineConfig(backend="python"),
            EngineConfig(backend="numpy"),
        ):
            session = Session(config=config)
            relation = Relation("r", ("a", "b", "c"), rows)
            result = session.discover(relation, algorithm="tane")
            payloads.add(result.artifact_fingerprint())
            backends.add(result.backend)
            graded = session.profile(relation, threshold=0.5, max_lhs=1)
            payloads.add(graded.artifact_fingerprint())
        assert len(payloads) == 2  # one discover payload + one profile payload
        if 0 < threshold <= len(rows):
            pass  # heuristic landed exactly at the boundary for some runs
        if threshold > len(rows):
            assert "python" in backends  # the heuristic actually switched


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
        assert any(
            "misses=" in line and "misses=0" not in line.replace(" ", "")
            for line in first
        )

    def test_cli_backend_flag(self, capsys):
        assert main(["table1", "--scale", "tiny", "--databases", "pte",
                     "--backend", "python", "--kernel-stats"]) == 0
        output = capsys.readouterr().out
        assert "[kernel] backend=python" in output

    @requires_numpy
    def test_cli_tables_identical_across_backends(self, capsys):
        outputs = []
        for backend in ("python", "numpy"):
            assert main(["table1", "--scale", "tiny", "--databases", "pte",
                         "--backend", backend]) == 0
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
