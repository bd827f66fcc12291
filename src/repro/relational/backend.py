"""Pluggable vectorized backends for the partition kernel.

The probe loops of the stripped-partition kernel (grouping, partition
product, refinement, g3 counting) bottom out in a handful of primitives over
flat integer arrays.  This module isolates those primitives behind a
:class:`PartitionBackend` interface with two interchangeable
implementations:

* :class:`PythonBackend` — the pure-python ``list``/``array('q')`` loops of
  the columnar kernel (always available, no dependencies);
* :class:`NumpyBackend` — a vectorized fast path built on ``np.argsort`` /
  factorize-style grouping and boolean-mask probes, auto-selected whenever
  numpy is importable.

Both backends are **bit-compatible**: group order (first-value-appearance),
position order inside groups (ascending probe order) and dense-code
assignment (first-appearance factorisation) are identical, so every
downstream artefact — discovered FD sets, CLI tables, provenance triples —
is byte-identical regardless of the active backend.

Selection
---------
Backend choice, cache budgets and counters all live on an *engine state*
(:class:`EngineState`): the resolved runtime of one
:class:`~repro.config.EngineConfig`.  ``get_backend(n_rows=None)`` resolves
against the *active* state (a context variable installed by
:meth:`repro.session.Session.activate`; when no session is active, a lazy
module-level default built from the environment — the pre-session
behaviour):

* ``EngineConfig.backend`` (defaulting to the ``REPRO_PARTITION_BACKEND``
  environment variable) forces ``python`` or ``numpy`` explicitly; ``auto``
  selects numpy whenever importable (install the ``fast`` extra —
  ``pip install .[fast]`` — to guarantee the vectorized path);
* under ``auto``, relations smaller than
  ``EngineConfig.backend_min_numpy_rows`` resolve to the pure-python loops
  (their lower constant factors beat numpy's fixed per-call cost on micro
  inputs); pass ``n_rows`` to opt a call site into the heuristic.

``use_backend()``/``set_backend()`` remain as *process-wide test/benchmark
pins* that take precedence over any session configuration.

The module also hosts the relation-scoped, byte-budgeted
:class:`MarkTableCache` (the reusable row -> group-id scratch tables of the
probe algorithms) and the :class:`KernelCounters` incremented by every
kernel-level cache.  Counters are **state-scoped**: each
:class:`~repro.session.Session` owns its own instance, so concurrent
sessions never double-count each other's work; the module-level
:data:`KERNEL_COUNTERS` is the default state's instance.
"""

from __future__ import annotations

import os
import threading
import weakref
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Sequence

from ..config import (
    DEFAULT_MARKS_CACHE_BYTES,
    ENV_BACKEND,
    ENV_COMBINED_CACHE_ENTRIES,
    ENV_MARKS_CACHE_BYTES,
    EngineConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .relation import Relation

try:  # pragma: no cover - exercised via the fallback tests
    import numpy as _np
except ImportError:  # pragma: no cover - the container always ships numpy
    _np = None

#: Environment variable forcing the backend (``python`` / ``numpy`` / ``auto``).
BACKEND_ENV_VAR = ENV_BACKEND

#: Environment variable overriding the mark-table cache budget in bytes.
MARKS_BUDGET_ENV_VAR = ENV_MARKS_CACHE_BYTES

#: Default mark-table budget: sixteen ~1M-row tables at 8 bytes per row.
DEFAULT_MARKS_BUDGET_BYTES = DEFAULT_MARKS_CACHE_BYTES

#: Environment variable overriding the combined-codes prefix cache size.
COMBINED_CACHE_ENV_VAR = ENV_COMBINED_CACHE_ENTRIES


# ---------------------------------------------------------------------------
# State-scoped kernel counters (snapshotted into DiscoveryStats.extra).
# ---------------------------------------------------------------------------


@dataclass
class KernelCounters:
    """Aggregate hit/miss/eviction counters of every kernel-level cache.

    Each :class:`EngineState` (and therefore each
    :class:`~repro.session.Session`) owns one instance, incremented by all
    :class:`MarkTableCache` and ``PartitionCache`` instances and by the
    per-relation combined-codes prefix caches running under that state, so a
    snapshot/delta pair brackets exactly the kernel work of one discovery
    run and two concurrent sessions never pollute each other's numbers.
    :data:`KERNEL_COUNTERS` is the default state's instance.
    """

    mark_hits: int = 0
    mark_misses: int = 0
    mark_evictions: int = 0
    mark_evicted_bytes: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    partition_evictions: int = 0
    partition_evicted_positions: int = 0
    combined_prefix_hits: int = 0
    combined_prefix_misses: int = 0
    combined_prefix_evictions: int = 0
    batched_levels: int = 0
    batched_candidates: int = 0
    counting_sorts: int = 0
    introsorts: int = 0
    #: Never incremented (grouping is sequential); kept because the e2e
    #: benchmark reads it from every traced run.
    sharded_groupings: int = 0

    def snapshot(self) -> dict[str, int]:
        """The current counter values as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter increments since ``before`` (a previous :meth:`snapshot`)."""
        return {key: value - before.get(key, 0) for key, value in self.snapshot().items()}


#: The default engine state's kernel counters (module-level, for code and
#: tests running outside any explicit session).
KERNEL_COUNTERS = KernelCounters()


# ---------------------------------------------------------------------------
# Backend implementations.
# ---------------------------------------------------------------------------


class PartitionBackend:
    """Interface of the flat-array probe primitives.

    ``positions``/``offsets`` use the flat stripped-partition layout: group
    ``i`` is ``positions[offsets[i]:offsets[i + 1]]``.  ``codes`` are dense
    per-row integer encodings (``array('q')``, ``list`` or ``np.ndarray``);
    ``marks`` map row position -> group id (``-1`` for stripped singletons).
    Each backend stores arrays in its native representation but accepts the
    other's as input, so partitions built under different backends compose.
    """

    name = "abstract"

    # -- construction ---------------------------------------------------------
    def adopt_flat(self, positions: Sequence[int], offsets: Sequence[int]):
        """Convert externally built flat lists into the native representation."""
        raise NotImplementedError

    def encode_columns(self, relation: "Relation", attributes: Sequence[str]):
        """``(codes, n_codes)`` of the value combinations over ``attributes``.

        Delegates to the relation's cached per-column encodings and the
        backend's :meth:`combine_codes` fold (via
        :meth:`Relation.combined_column_codes`, which also caches hot
        prefixes).
        """
        if len(attributes) == 1:
            codes, n_codes = relation.column_codes(attributes[0])
            return self.as_codes(codes), n_codes
        codes, n_codes = relation.combined_column_codes(attributes)
        return self.as_codes(codes), n_codes

    def initial_codes(self, codes):
        """A mutable/foldable copy of one column's cached codes."""
        raise NotImplementedError

    def as_codes(self, codes):
        """View ``codes`` (``array('q')``/``list``/ndarray) in native form."""
        raise NotImplementedError

    def combine_codes(self, combined, width: int, nxt, radix: int):
        """One densifying mixed-radix fold step.

        Returns ``(codes, width)`` where equal ``(combined, nxt)`` pairs
        receive equal dense codes assigned in first-appearance order (the
        invariant that keeps both backends bit-compatible).  Never mutates
        ``combined`` (results are shared through the prefix cache).
        """
        raise NotImplementedError

    def group_by_codes(self, codes, n_codes: int, counts: Sequence[int] | None = None):
        """Counting-sort ``codes`` into flat ``(positions, offsets)``.

        Groups appear in ascending code order (== first-appearance order of
        the encodings); positions within a group ascend; singleton codes are
        stripped.  ``counts`` (per-code occurrence counts) is an optional
        precomputed hint.
        """
        raise NotImplementedError

    def build_marks(self, positions, offsets, n_rows: int):
        """Row position -> group id (or ``-1``) mark table of a partition."""
        raise NotImplementedError

    # -- probes ---------------------------------------------------------------
    def intersect_marks(self, positions, offsets, marks, n_marks: int):
        """Probe one partition's groups against ``marks`` (partition product).

        Output groups appear probe-group by probe-group, sub-buckets in
        first-appearance-of-mark order, positions in probe order — the exact
        emission order of the pure-python dict-bucket product.
        """
        raise NotImplementedError

    def refines_marks(self, positions, offsets, marks) -> bool:
        """Whether every group maps into a single non-singleton mark class."""
        raise NotImplementedError

    def constant_within_groups(self, positions, offsets, codes) -> bool:
        """Whether ``codes`` is constant inside every group (FD validity)."""
        raise NotImplementedError

    def g3_removals(self, positions, offsets, codes) -> int:
        """Rows to delete so ``codes`` becomes constant within every group."""
        raise NotImplementedError

    # -- batched probes (one LHS partition, many RHS columns) -----------------
    def batch_constant_within_groups(self, positions, offsets, codes_list) -> list[bool]:
        """Vectorizable batch of :meth:`constant_within_groups` checks."""
        return [
            self.constant_within_groups(positions, offsets, codes)
            for codes in codes_list
        ]

    def batch_g3_removals(self, positions, offsets, codes_list) -> list[int]:
        """Vectorizable batch of :meth:`g3_removals` counts."""
        return [self.g3_removals(positions, offsets, codes) for codes in codes_list]

    # -- level-batched probes (many LHS partitions, many RHS columns) ---------
    def validate_level_groups(self, groups) -> list[list[bool]]:
        """Validate one whole lattice level in a single backend call.

        ``groups`` is a sequence of ``(positions, offsets, codes_list)``
        triples — one per *distinct* LHS partition of the level, each paired
        with the RHS code columns checked against it.  Returns one verdict
        list per triple, in order.  The base implementation loops per
        partition (the python backend's early-exit scans dominate anyway);
        the numpy backend overrides this to stack the whole level into a
        handful of vectorized passes, so callers pay per *level* rather than
        per LHS partition.
        """
        return [
            self.batch_constant_within_groups(positions, offsets, codes_list)
            for positions, offsets, codes_list in groups
        ]

    def validate_level_error_groups(self, groups) -> list[list[int]]:
        """g3 removal counts of one whole lattice level (single backend call).

        The error-grading counterpart of :meth:`validate_level_groups`, with
        the same ``groups`` layout; returns one removal-count list per
        triple, in order.
        """
        return [
            self.batch_g3_removals(positions, offsets, codes_list)
            for positions, offsets, codes_list in groups
        ]


class PythonBackend(PartitionBackend):
    """The pure-python columnar kernel (reference semantics, no dependencies)."""

    name = "python"

    def adopt_flat(self, positions, offsets):
        return list(positions), list(offsets)

    def initial_codes(self, codes):
        return list(codes)

    def as_codes(self, codes):
        return codes

    def combine_codes(self, combined, width, nxt, radix):
        remap: dict[int, int] = {}
        assign = remap.setdefault
        out = [0] * len(combined)
        for i, code in enumerate(combined):
            out[i] = assign(code * radix + nxt[i], len(remap))
        return out, len(remap)

    def group_by_codes(self, codes, n_codes, counts=None):
        if counts is None:
            counts = [0] * n_codes
            for code in codes:
                counts[code] += 1
        buckets: list[list[int] | None] = [
            [] if count > 1 else None for count in counts
        ]
        positions: list[int] = []
        offsets: list[int] = [0]
        for position, code in enumerate(codes):
            bucket = buckets[code]
            if bucket is not None:
                bucket.append(position)
        for bucket in buckets:
            if bucket is not None:
                positions.extend(bucket)
                offsets.append(len(positions))
        return positions, offsets

    def build_marks(self, positions, offsets, n_rows):
        marks = [-1] * n_rows
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            mark = group_id - 1
            for position in positions[start:end]:
                marks[position] = mark
            start = end
        return marks

    def intersect_marks(self, positions, offsets, marks, n_marks):
        out_positions: list[int] = []
        out_offsets: list[int] = [0]
        extend = out_positions.extend
        close_group = out_offsets.append
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            buckets: dict[int, list[int]] = {}
            get_bucket = buckets.get
            for position in positions[start:end]:
                mark = marks[position]
                if mark >= 0:
                    bucket = get_bucket(mark)
                    if bucket is None:
                        buckets[mark] = [position]
                    else:
                        bucket.append(position)
            start = end
            for bucket in buckets.values():
                if len(bucket) > 1:
                    extend(bucket)
                    close_group(len(out_positions))
        return out_positions, out_offsets

    def refines_marks(self, positions, offsets, marks):
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            first = marks[positions[start]]
            if first < 0:
                # The leading position is a singleton of the mark side, yet
                # its class here has at least two members: the class splits.
                return False
            for position in positions[start + 1 : end]:
                if marks[position] != first:
                    return False
            start = end
        return True

    def constant_within_groups(self, positions, offsets, codes):
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            first = codes[positions[start]]
            for position in positions[start + 1 : end]:
                if codes[position] != first:
                    return False
            start = end
        return True

    def g3_removals(self, positions, offsets, codes):
        removals = 0
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            counts: dict[int, int] = {}
            get_count = counts.get
            most_frequent = 0
            for position in positions[start:end]:
                code = codes[position]
                tally = (get_count(code) or 0) + 1
                counts[code] = tally
                if tally > most_frequent:
                    most_frequent = tally
            removals += (end - start) - most_frequent
            start = end
        return removals


#: Exclusive upper bound of the key spaces grouped by the counting-sort path:
#: the path narrows keys to ``uint16`` before sorting, and it wins over the
#: composite introsort at every key space it can represent.
COUNTING_SORT_SPACE = 1 << 16


class NumpyBackend(PartitionBackend):
    """Vectorized probe primitives over ``np.int64`` arrays.

    Every primitive reproduces the python backend's ordering exactly:
    grouping keeps first-appearance group order via a stable
    first-occurrence factorisation, and the partition product emits buckets
    in (probe group, first appearance of mark) order.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:  # pragma: no cover - guarded by the resolver
            raise RuntimeError("numpy is not importable; use the python backend")

    # -- representation helpers ----------------------------------------------
    @staticmethod
    def _as_array(values):
        if isinstance(values, _np.ndarray):
            return values if values.dtype == _np.int64 else values.astype(_np.int64)
        if isinstance(values, array) and values.typecode == "q":
            # array('q') shares int64 layout: zero-copy (read-only) view.
            return _np.frombuffer(values, dtype=_np.int64)
        return _np.asarray(values, dtype=_np.int64)

    @staticmethod
    def _stable_order(keys, bound: int):
        """Indices sorting the non-negative ``keys`` stably (ties by position).

        ``bound`` is an exclusive upper bound on the key values; the stable
        order of a key array is unique, so every path below returns the
        identical permutation — selection only moves time around:

        * ``bound <= COUNTING_SORT_SPACE`` (65536): narrow the keys to
          ``uint16`` and take numpy's stable argsort, which for 16-bit keys
          *is* a C-level counting sort (per-byte ``bincount`` counts +
          prefix-sum offsets + scatter) — ``O(n + k)`` and measured 2–4×
          faster than the introsort below across all benchmarked sizes;
        * otherwise compose ``key * n + index``: every key becomes unique,
          so the (much faster than a 64-bit radix pass) default introsort
          yields the stable order — ``bound`` proves the composition cannot
          overflow ``int64``;
        * pathological key spaces fall back to the 64-bit stable sort.
        """
        n = keys.shape[0]
        if n == 0:
            return _np.empty(0, dtype=_np.int64)
        counters = kernel_counters()
        if 0 < bound <= COUNTING_SORT_SPACE:
            counters.counting_sorts += 1
            return keys.astype(_np.uint16).argsort(kind="stable")
        counters.introsorts += 1
        if bound < (2**62) // (n + 1):
            composite = keys * _np.int64(n) + _np.arange(n, dtype=_np.int64)
            return composite.argsort()
        return keys.argsort(kind="stable")

    @classmethod
    def _run_starts(cls, sorted_keys):
        """Start indices of the equal-key runs of an already sorted array."""
        n = sorted_keys.shape[0]
        boundary = _np.empty(n, dtype=bool)
        boundary[0] = True
        _np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
        return _np.flatnonzero(boundary)

    @classmethod
    def _factorize_first_appearance(cls, keys, bound: int):
        """Dense codes of ``keys`` assigned in first-appearance order.

        Matches the python dict-``setdefault`` fold bit for bit: the first
        occurrence of a key (scanning left to right) fixes its code.
        """
        n = keys.shape[0]
        if n == 0:
            return keys.copy(), 0
        perm = cls._stable_order(keys, bound)
        starts = cls._run_starts(keys[perm])
        # Stable order ⇒ the first element of each run carries the smallest
        # original index, i.e. the key's first appearance.  First-occurrence
        # indices are distinct, so a plain introsort ranks them.
        order = perm[starts].argsort()
        rank = _np.empty(starts.shape[0], dtype=_np.int64)
        rank[order] = _np.arange(starts.shape[0], dtype=_np.int64)
        run_of_element = _np.zeros(n, dtype=_np.int64)
        run_of_element[starts[1:]] = 1
        run_of_element = _np.cumsum(run_of_element)
        codes = _np.empty(n, dtype=_np.int64)
        codes[perm] = rank[run_of_element]
        return codes, int(starts.shape[0])

    # -- construction ---------------------------------------------------------
    def adopt_flat(self, positions, offsets):
        return (
            _np.asarray(positions, dtype=_np.int64),
            _np.asarray(offsets, dtype=_np.int64),
        )

    def initial_codes(self, codes):
        return self._as_array(codes)

    def as_codes(self, codes):
        return self._as_array(codes)

    def combine_codes(self, combined, width, nxt, radix):
        keys = self._as_array(combined) * _np.int64(radix) + self._as_array(nxt)
        return self._factorize_first_appearance(keys, max(width, 1) * max(radix, 1))

    def group_by_codes(self, codes, n_codes, counts=None):
        codes = self._as_array(codes)
        if counts is not None:
            # Adopting the relation's precomputed per-code counts is
            # O(n_codes) versus the O(n_rows) counting pass below.
            counts = self._as_array(counts)
        elif codes.size:
            counts = _np.bincount(codes, minlength=n_codes)
        else:
            counts = _np.zeros(n_codes, dtype=_np.int64)
        order = self._stable_order(codes, max(n_codes, 1))
        keep_group = counts > 1
        positions = order[keep_group[codes[order]]]
        sizes = counts[keep_group]
        offsets = _np.concatenate(
            (_np.zeros(1, dtype=_np.int64), _np.cumsum(sizes, dtype=_np.int64))
        )
        return positions, offsets

    def build_marks(self, positions, offsets, n_rows):
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        marks = _np.full(n_rows, -1, dtype=_np.int64)
        sizes = _np.diff(offsets)
        marks[positions] = _np.repeat(
            _np.arange(sizes.shape[0], dtype=_np.int64), sizes
        )
        return marks

    # -- probes ---------------------------------------------------------------
    def intersect_marks(self, positions, offsets, marks, n_marks):
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        marks = self._as_array(marks)
        probe_marks = marks[positions]
        sizes = offsets[1:] - offsets[:-1]
        group_ids = _np.repeat(_np.arange(sizes.shape[0], dtype=_np.int64), sizes)
        valid = probe_marks >= 0
        radix = _np.int64(max(n_marks, 1))
        # (probe group, mark) buckets; the flat probe array is ordered group
        # by group, so ordering buckets by first appearance yields exactly
        # the python emission order: probe groups ascending, marks by first
        # appearance inside each group, positions in probe (ascending) order.
        if bool(valid.all()):
            keys = group_ids * radix + probe_marks
            survivors = positions
        else:
            keys = group_ids[valid] * radix + probe_marks[valid]
            survivors = positions[valid]
        empty = (_np.empty(0, dtype=_np.int64), _np.zeros(1, dtype=_np.int64))
        if keys.size == 0:
            return empty
        perm = self._stable_order(keys, int(sizes.shape[0]) * int(radix))
        starts = self._run_starts(keys[perm])
        counts = _np.empty(starts.shape[0], dtype=_np.int64)
        counts[:-1] = starts[1:] - starts[:-1]
        counts[-1] = keys.size - starts[-1]
        # Singleton buckets are stripped from the product, so only the kept
        # buckets need the first-appearance ordering (their relative order is
        # unchanged by dropping singletons); first-occurrence indices are
        # distinct, so a plain introsort over the few survivors orders them.
        keep = _np.flatnonzero(counts > 1)
        if keep.size == 0:
            return empty
        kept = keep[perm[starts[keep]].argsort()]
        out_sizes = counts[kept]
        out_offsets = _np.concatenate(
            (_np.zeros(1, dtype=_np.int64), _np.cumsum(out_sizes, dtype=_np.int64))
        )
        # Gather each kept bucket's (contiguous) slice of the sorted order.
        flat = _np.repeat(starts[kept] - out_offsets[:-1], out_sizes) + _np.arange(
            out_offsets[-1], dtype=_np.int64
        )
        out_positions = survivors[perm[flat]]
        return out_positions, out_offsets

    def refines_marks(self, positions, offsets, marks):
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        group_marks = self._as_array(marks)[positions]
        firsts = group_marks[offsets[:-1]]
        if firsts.size and bool((firsts < 0).any()):
            return False
        sizes = _np.diff(offsets)
        return bool((group_marks == _np.repeat(firsts, sizes)).all())

    def constant_within_groups(self, positions, offsets, codes):
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        codes = self._as_array(codes)
        starts = offsets[:-1]
        return self._constant_prepared(
            positions, offsets, codes,
            positions[starts], positions[starts + 1],
        )

    @staticmethod
    def _constant_prepared(positions, offsets, codes, first_rows, second_rows):
        """Constancy check with a cheap vectorized early reject.

        A violated candidate almost always differs already between the first
        two members of some group, so an ``O(n_groups)`` comparison rejects
        it without touching the full ``O(||π||)`` expansion — the vectorized
        analogue of the python backend's early-exit scan.
        """
        firsts = codes[first_rows]
        if bool((firsts != codes[second_rows]).any()):
            return False
        sizes = offsets[1:] - offsets[:-1]
        return bool((codes[positions] == _np.repeat(firsts, sizes)).all())

    def g3_removals(self, positions, offsets, codes):
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        return self._g3_removals_prepared(
            positions, offsets, self._as_array(codes), self._group_ids(offsets)
        )

    @staticmethod
    def _group_ids(offsets):
        sizes = _np.diff(offsets)
        return _np.repeat(_np.arange(sizes.shape[0], dtype=_np.int64), sizes)

    @staticmethod
    def _g3_removals_prepared(positions, offsets, codes, group_ids):
        if positions.size == 0:
            return 0
        group_codes = codes[positions]
        radix = _np.int64(int(group_codes.max()) + 1) if group_codes.size else _np.int64(1)
        keys = group_ids * radix + group_codes
        unique_keys, counts = _np.unique(keys, return_counts=True)
        owner = unique_keys // radix
        starts = _np.flatnonzero(
            _np.concatenate((_np.ones(1, dtype=bool), owner[1:] != owner[:-1]))
        )
        best = _np.maximum.reduceat(counts, starts)
        return int(positions.size - best.sum())

    # -- batched probes -------------------------------------------------------
    def batch_constant_within_groups(self, positions, offsets, codes_list):
        if not codes_list:
            return []
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        if positions.size == 0:
            return [True] * len(codes_list)
        # The per-group gather indices are shared by every RHS of the batch:
        # compute them once, then each candidate pays only its own (cheap)
        # prescreen plus — for the surviving candidates — one full compare.
        starts = offsets[:-1]
        first_rows = positions[starts]
        second_rows = positions[starts + 1]
        return [
            self._constant_prepared(
                positions, offsets, self._as_array(codes), first_rows, second_rows
            )
            for codes in codes_list
        ]

    def batch_g3_removals(self, positions, offsets, codes_list):
        if not codes_list:
            return []
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        group_ids = self._group_ids(offsets)
        return [
            self._g3_removals_prepared(
                positions, offsets, self._as_array(codes), group_ids
            )
            for codes in codes_list
        ]

    # -- level-batched probes -------------------------------------------------

    #: Stacked-prescreen budget: the cross-LHS pass gathers every distinct
    #: RHS column at *every* group's first/second rows, so its volume is
    #: ``n_columns * total_groups`` regardless of how many (column, group)
    #: pairs the level actually asks about.  Stacking wins while that volume
    #: stays dispatch-bound (measured crossover ≈ 500 gathered elements per
    #: candidate); sparser levels keep the per-LHS loop, whose volume is
    #: exactly the asked-for pairs.
    LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE = 512

    def validate_level_groups(self, groups):
        """Cross-LHS stacked validation of one whole lattice level.

        The level arrives as one backend call; when its shape is
        dispatch-bound (many candidates over small groups — the expensive
        regime of per-candidate numpy calls), the whole level is answered by
        two stacked passes:

        1. **prescreen** — the first/second member rows of *all* LHS groups
           are concatenated once; each distinct RHS column is gathered at
           them in a single fancy-index, and a segmented ``add.reduceat``
           yields every candidate's "any first-vs-second mismatch" verdict.
           A violated candidate almost always differs already here.
        2. **full verify** — the rare prescreen survivors get the exact
           per-group expansion of :meth:`constant_within_groups`.

        Levels whose groups are large (volume-bound, where the stacked
        pass's column × group waste outweighs the saved dispatches) fall
        back to the shared-prep per-LHS loop.  Both strategies produce
        bit-identical verdicts; the switch only moves time around.
        """
        prepped = []
        results: list[list[bool]] = []
        n_candidates = 0
        total_groups = 0
        distinct_columns: dict[int, int] = {}
        for positions, offsets, codes_list in groups:
            results.append([True] * len(codes_list))
            positions = self._as_array(positions)
            offsets = self._as_array(offsets)
            prepped.append((positions, offsets, codes_list))
            if positions.size == 0 or not codes_list:
                continue  # a superkey LHS validates every RHS
            n_candidates += len(codes_list)
            total_groups += offsets.shape[0] - 1
            for codes in codes_list:
                distinct_columns.setdefault(id(codes), len(distinct_columns))
        if n_candidates == 0:
            return results
        stacked_volume = len(distinct_columns) * total_groups
        if stacked_volume > self.LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE * n_candidates:
            for (positions, offsets, codes_list), verdicts in zip(prepped, results):
                if positions.size == 0 or not codes_list:
                    continue
                verdicts[:] = self.batch_constant_within_groups(positions, offsets, codes_list)
            return results
        # Stacked prescreen: one concatenated first/second gather per
        # distinct RHS column, shared by every LHS partition of the level.
        first_parts, second_parts, segment_group = [], [], []
        for gi, (positions, offsets, codes_list) in enumerate(prepped):
            if positions.size == 0 or not codes_list:
                continue
            starts = offsets[:-1]
            first_parts.append(positions[starts])
            second_parts.append(positions[starts + 1])
            segment_group.append(gi)
        lengths = _np.asarray([part.shape[0] for part in first_parts], dtype=_np.int64)
        bounds = _np.zeros(lengths.shape[0] + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=bounds[1:])
        first_rows = _np.concatenate(first_parts)
        second_rows = _np.concatenate(second_parts)
        columns: list = [None] * len(distinct_columns)
        candidates: list[tuple[int, int, int, int]] = []
        for segment, gi in enumerate(segment_group):
            _, _, codes_list = prepped[gi]
            for ci, codes in enumerate(codes_list):
                key = distinct_columns[id(codes)]
                if columns[key] is None:
                    columns[key] = self._as_array(codes)
                candidates.append((gi, ci, key, segment))
        firsts_by_column = []
        violation_rows = []
        for column in columns:
            firsts = column[first_rows]
            firsts_by_column.append(firsts)
            violation_rows.append(_np.add.reduceat(firsts != column[second_rows], bounds[:-1]))
        violated = _np.stack(violation_rows) > 0  # (n_columns, n_segments)
        column_index = _np.fromiter((c[2] for c in candidates), _np.int64, len(candidates))
        segment_index = _np.fromiter((c[3] for c in candidates), _np.int64, len(candidates))
        prescreen = violated[column_index, segment_index].tolist()
        for (gi, ci, key, segment), bad in zip(candidates, prescreen):
            if bad:
                results[gi][ci] = False
                continue
            # Prescreen survivor: the exact full comparison (rare — a valid
            # candidate, or a violation past the first two group members).
            positions, offsets, _ = prepped[gi]
            column = columns[key]
            firsts = firsts_by_column[key][bounds[segment] : bounds[segment + 1]]
            expected = _np.repeat(firsts, offsets[1:] - offsets[:-1])
            results[gi][ci] = bool((column[positions] == expected).all())
        return results

    def validate_level_error_groups(self, groups):
        """g3 grading of one whole lattice level in a single dispatch.

        Each partition's row -> group-id expansion is computed once and
        shared by all of its RHS columns (as in :meth:`batch_g3_removals`);
        the per-candidate ``unique`` tallies dominate, so further stacking
        across partitions would not pay for its bookkeeping.
        """
        out: list[list[int]] = []
        for positions, offsets, codes_list in groups:
            positions = self._as_array(positions)
            offsets = self._as_array(offsets)
            group_ids = self._group_ids(offsets)
            out.append(
                [
                    self._g3_removals_prepared(
                        positions, offsets, self._as_array(codes), group_ids
                    )
                    for codes in codes_list
                ]
            )
        return out


# ---------------------------------------------------------------------------
# Backend resolution and engine state.
# ---------------------------------------------------------------------------

#: Backend instances are stateless, so each is a module-level singleton (the
#: identity also matters: ``use_backend`` guarantees ``get_backend() is
#: before`` after restoring).
_PYTHON_BACKEND = PythonBackend()
_NUMPY_BACKEND: NumpyBackend | None = None

#: Process-wide backend pin installed by ``set_backend``/``use_backend``.
#: Takes precedence over every engine state (it exists for tests and
#: benchmarks that must force a backend regardless of configuration).
_FORCED_BACKEND: PartitionBackend | None = None


def _numpy_backend() -> NumpyBackend:
    global _NUMPY_BACKEND
    if _NUMPY_BACKEND is None:
        _NUMPY_BACKEND = NumpyBackend()
    return _NUMPY_BACKEND


def _resolve_backend(choice: str) -> PartitionBackend:
    choice = (choice or "auto").strip().lower()
    if choice in ("auto", ""):
        return _numpy_backend() if _np is not None else _PYTHON_BACKEND
    if choice == "python":
        return _PYTHON_BACKEND
    if choice == "numpy":
        if _np is None:
            raise RuntimeError(
                "partition backend 'numpy' requested but numpy is not importable; "
                "install the 'fast' extra (pip install .[fast]) or use auto/python"
            )
        return _numpy_backend()
    raise ValueError(
        f"unknown partition backend {choice!r}: expected auto, python or numpy"
    )


class _RelationKernelCaches:
    """The kernel caches one engine state holds for one relation.

    Owned by the state (not the relation), so two concurrent sessions
    working on the same relation never share mark tables, prefix folds or
    cache counters.  Entries are dropped automatically when the relation is
    garbage collected.
    """

    __slots__ = ("relation_ref", "marks", "combined", "partitions", "__weakref__")

    def __init__(self, relation: "Relation", config: EngineConfig) -> None:
        self.relation_ref = weakref.ref(relation)
        #: Byte-budgeted row -> group-id mark tables of the relation.
        self.marks = MarkTableCache(config.marks_cache_bytes)
        #: Bounded LRU of hot combined-codes prefixes (tagged by backend name).
        self.combined: "OrderedDict[tuple[str, ...], tuple[object, int, str]]" = (
            OrderedDict()
        )
        #: Lazily attached ``PartitionCache`` (set by ``Session.partition_cache``;
        #: lives here so its lifecycle matches the other relation caches).
        self.partitions = None


class EngineState:
    """The resolved runtime of one :class:`~repro.config.EngineConfig`.

    Owns everything that used to be process-wide: backend resolution policy,
    kernel counters, and the per-relation kernel caches.  One state is
    *active* at any point (installed by ``Session.activate()``); a lazy
    default state built from the environment serves code running outside any
    session, which is exactly the pre-session behaviour.
    """

    __slots__ = ("config", "counters", "_relation_caches", "__weakref__")

    def __init__(
        self,
        config: EngineConfig | None = None,
        counters: KernelCounters | None = None,
    ) -> None:
        self.config = EngineConfig.from_env() if config is None else config
        self.counters = KernelCounters() if counters is None else counters
        self._relation_caches: dict[int, _RelationKernelCaches] = {}

    def backend_for(self, n_rows: int | None = None) -> PartitionBackend:
        """The backend resolved for a relation of ``n_rows`` rows.

        A process-wide ``use_backend``/``set_backend`` pin wins over the
        configuration; otherwise the configured backend is honoured, with
        ``auto`` applying the ``backend_min_numpy_rows`` heuristic whenever
        the call site supplies ``n_rows``.  Both backends are
        bit-compatible, so per-relation switching never changes artefacts.
        """
        forced = _FORCED_BACKEND
        if forced is not None:
            return forced
        choice = self.config.backend
        if choice == "numpy":
            return _resolve_backend("numpy")
        if choice == "python" or _np is None:
            return _PYTHON_BACKEND
        if (
            n_rows is not None
            and n_rows < self.config.backend_min_numpy_rows
        ):
            return _PYTHON_BACKEND
        return _numpy_backend()

    def caches_for(self, relation: "Relation") -> _RelationKernelCaches:
        """This state's kernel caches for ``relation`` (created on first use).

        Entries die with the relation *or* with the state, whichever goes
        first: the relation-side finalizer only holds a weak reference to
        the state, so a collected session releases its caches even while
        the relation lives on.
        """
        key = id(relation)
        entry = self._relation_caches.get(key)
        if entry is not None and entry.relation_ref() is relation:
            return entry
        entry = _RelationKernelCaches(relation, self.config)
        self._relation_caches[key] = entry
        state_ref = weakref.ref(self)

        def _drop_entry(state_ref=state_ref, key=key):
            state = state_ref()
            if state is not None:
                state._relation_caches.pop(key, None)

        weakref.finalize(relation, _drop_entry)
        return entry

    def reset_counters(self) -> None:
        """Zero the state's kernel counters."""
        counters = self.counters
        for field in fields(counters):
            setattr(counters, field.name, 0)

    def drop_caches(self) -> None:
        """Release every relation-scoped cache held by the state."""
        self._relation_caches.clear()


#: The active engine state of the current execution context (``None`` means
#: "use the lazy default state").  Context-variable semantics give each
#: thread/async task its own activation stack, so concurrent sessions work.
_ACTIVE_STATE: "ContextVar[EngineState | None]" = ContextVar(
    "repro_engine_state", default=None
)

_DEFAULT_STATE: EngineState | None = None

#: Guards the lazy construction of the default state: concurrent first
#: resolutions (e.g. several serving workers probing outside any session)
#: must all observe the same state instance.
_DEFAULT_STATE_LOCK = threading.Lock()


def get_default_state() -> EngineState:
    """The lazy module-level engine state (configured from the environment)."""
    global _DEFAULT_STATE
    state = _DEFAULT_STATE
    if state is None:
        with _DEFAULT_STATE_LOCK:
            state = _DEFAULT_STATE
            if state is None:
                state = _DEFAULT_STATE = EngineState(
                    EngineConfig.from_env(), counters=KERNEL_COUNTERS
                )
    return state


def active_state() -> EngineState:
    """The engine state of the current context (default state when no session)."""
    state = _ACTIVE_STATE.get()
    return state if state is not None else get_default_state()


@contextmanager
def activate_state(state: EngineState) -> Iterator[EngineState]:
    """Install ``state`` as the active engine state for the dynamic extent."""
    token = _ACTIVE_STATE.set(state)
    try:
        yield state
    finally:
        _ACTIVE_STATE.reset(token)


def kernel_counters() -> KernelCounters:
    """The kernel counters of the active engine state."""
    return active_state().counters


def get_backend(n_rows: int | None = None) -> PartitionBackend:
    """The partition backend of the active engine state.

    ``n_rows`` (the size of the relation being probed) opts the call site
    into the per-relation ``backend_min_numpy_rows`` heuristic; without it
    the nominal backend choice is returned.
    """
    forced = _FORCED_BACKEND
    if forced is not None:
        return forced
    return active_state().backend_for(n_rows)


def set_backend(backend: PartitionBackend | str | None) -> PartitionBackend | None:
    """Install a process-wide backend pin; returns the previous pin.

    The pin takes precedence over every session configuration (it is the
    test/benchmark escape hatch).  Passing ``None`` clears the pin *and*
    discards the default engine state, so the next resolution re-reads the
    environment.
    """
    global _FORCED_BACKEND, _DEFAULT_STATE
    previous = _FORCED_BACKEND
    if backend is None:
        _FORCED_BACKEND = None
        _DEFAULT_STATE = None
    elif isinstance(backend, str):
        _FORCED_BACKEND = _resolve_backend(backend)
    else:
        _FORCED_BACKEND = backend
    return previous


@contextmanager
def use_backend(backend: PartitionBackend | str) -> Iterator[PartitionBackend]:
    """Temporarily pin the backend process-wide (tests / benchmarks)."""
    global _FORCED_BACKEND
    previous = _FORCED_BACKEND
    _FORCED_BACKEND = (
        _resolve_backend(backend) if isinstance(backend, str) else backend
    )
    try:
        yield _FORCED_BACKEND
    finally:
        _FORCED_BACKEND = previous


def numpy_available() -> bool:
    """Whether the numpy fast path can be selected in this process."""
    return _np is not None


# ---------------------------------------------------------------------------
# Relation-scoped, byte-budgeted mark-table cache.
# ---------------------------------------------------------------------------


@dataclass
class MarkCacheStats:
    """Hit/miss/eviction counters of one :class:`MarkTableCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


def _default_marks_budget() -> int:
    raw = os.environ.get(MARKS_BUDGET_ENV_VAR)
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_MARKS_BUDGET_BYTES


class MarkTableCache:
    """LRU cache of row -> group-id mark tables, bounded by a byte budget.

    ``intersect``/``refines`` probe one partition against the marks of
    another; level-wise exploration reuses the same partitions as the mark
    side over and over (TANE intersects every candidate with
    single-attribute partitions; refinement checks sweep one RHS partition
    across many LHSs), so cached mark tables amortise the ``O(n_rows)``
    marking pass to near zero.

    Each relation owns one instance (see ``Relation.mark_cache``), so caches
    are *relation-scoped*: a large relation cannot thrash the tables of
    another, and the cache dies with the relation.  A mark table is
    accounted at ``8 * n_rows`` bytes (one machine word per row — exact for
    the numpy backend, a close proxy for python lists); least-recently-used
    tables are evicted once the held total exceeds ``budget_bytes``
    (default ``REPRO_MARKS_CACHE_BYTES`` or 128 MiB ≈ sixteen 1M-row
    relations).  The most recent table is never evicted, so a single
    over-budget relation still amortises its own probes.  Entries hold a
    strong reference to their partition, which keeps the ``id()`` key valid.
    """

    __slots__ = ("budget_bytes", "stats", "_entries", "_held_bytes", "__weakref__")

    def __init__(self, budget_bytes: int | None = None) -> None:
        #: Byte budget of the held mark tables (``None`` -> env / default).
        self.budget_bytes = (
            _default_marks_budget() if budget_bytes is None else budget_bytes
        )
        self.stats = MarkCacheStats()
        self._entries: "OrderedDict[int, tuple[object, object, int]]" = OrderedDict()
        self._held_bytes = 0

    @staticmethod
    def _table_bytes(n_rows: int) -> int:
        return 8 * n_rows

    def get(self, partition) -> Sequence[int]:
        """The mark table of ``partition`` (built on miss, LRU-refreshed on hit)."""
        counters = kernel_counters()
        key = id(partition)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is partition:
            self.stats.hits += 1
            counters.mark_hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.stats.misses += 1
        counters.mark_misses += 1
        marks = get_backend(partition.n_rows).build_marks(
            partition.positions, partition.offsets, partition.n_rows
        )
        table_bytes = self._table_bytes(partition.n_rows)
        self._entries[key] = (partition, marks, table_bytes)
        self._held_bytes += table_bytes
        while self._held_bytes > self.budget_bytes and len(self._entries) > 1:
            _, (_, _, evicted_bytes) = self._entries.popitem(last=False)
            self._held_bytes -= evicted_bytes
            self.stats.evictions += 1
            self.stats.evicted_bytes += evicted_bytes
            counters.mark_evictions += 1
            counters.mark_evicted_bytes += evicted_bytes
        return marks

    @property
    def held_bytes(self) -> int:
        """Accounted bytes of the currently held mark tables."""
        return self._held_bytes

    def __len__(self) -> int:
        return len(self._entries)


#: Fallback cache for partitions built without a relation context
#: (direct ``StrippedPartition(groups, n_rows)`` constructions).
DEFAULT_MARK_CACHE = MarkTableCache()


def kernel_stats_summary(state: EngineState | None = None) -> dict[str, object]:
    """Kernel statistics of ``state`` (default: the active engine state).

    The counters are scoped to the state, so a fresh
    :class:`~repro.session.Session` reports exactly its own kernel work —
    runs in other sessions (or earlier CLI invocations in the same process)
    never leak into the numbers.
    """
    if state is None:
        state = active_state()
    return {"backend": state.backend_for().name, **state.counters.snapshot()}


def render_kernel_stats(state: EngineState | None = None) -> str:
    """Human-readable one-block rendering of :func:`kernel_stats_summary`."""
    summary = kernel_stats_summary(state)
    lines = [f"[kernel] backend={summary.pop('backend')}"]
    lines.append(
        "[kernel] mark cache: "
        f"hits={summary['mark_hits']} misses={summary['mark_misses']} "
        f"evictions={summary['mark_evictions']} "
        f"evicted_bytes={summary['mark_evicted_bytes']}"
    )
    lines.append(
        "[kernel] partition cache: "
        f"hits={summary['partition_hits']} misses={summary['partition_misses']} "
        f"evictions={summary['partition_evictions']} "
        f"evicted_positions={summary['partition_evicted_positions']}"
    )
    lines.append(
        "[kernel] combined-codes prefixes: "
        f"hits={summary['combined_prefix_hits']} "
        f"misses={summary['combined_prefix_misses']} "
        f"evictions={summary['combined_prefix_evictions']}"
    )
    lines.append(
        "[kernel] batched validation: "
        f"levels={summary['batched_levels']} "
        f"candidates={summary['batched_candidates']}"
    )
    lines.append(
        "[kernel] sort paths: "
        f"counting={summary['counting_sorts']} "
        f"introsort={summary['introsorts']}"
    )
    return "\n".join(lines)
