"""The vectorized partition kernel.

The probe loops of the stripped-partition kernel (grouping, partition
product, refinement, g3 counting), the dense row labels of InFine's
``mineFDs`` and the SPJ operators in code space bottom out in a handful of
primitives over flat integer arrays.  This module holds
them on :class:`NumpyBackend`, built on ``np.argsort``/factorize-style
grouping and boolean-mask probes; call sites use its one instance,
:data:`KERNEL`.

Every primitive is deterministic down to the order of its output: groups
come in ascending code order (first-value-appearance for a column),
positions ascend inside a group, and a column's dense codes are assigned in
first-appearance order.  Discovered FD sets, CLI tables and provenance
triples therefore depend only on the input.  The test suite keeps
a pure-python reference implementation of every primitive and compares the
two on the same inputs.

Kernel counters and the per-relation partition caches live on an *engine
state* (:class:`EngineState`).  The *active* state is a context variable
installed by :meth:`repro.session.Session.activate`; when no session is
active, a lazy module-level default is used.

Counters (:class:`KernelCounters`) are **state-scoped**: each
:class:`~repro.session.Session` owns its own instance, so concurrent
sessions never double-count each other's work; the module-level
:data:`KERNEL_COUNTERS` is the default state's instance.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .relation import Relation


# ---------------------------------------------------------------------------
# State-scoped kernel counters (snapshotted into DiscoveryStats.extra).
# ---------------------------------------------------------------------------


@dataclass
class KernelCounters:
    """Aggregate counters of the kernel's caches, batches and sort paths.

    Each :class:`EngineState` (and therefore each
    :class:`~repro.session.Session`) owns one instance, incremented by the
    kernel and every ``PartitionCache`` running under that state, so a
    snapshot/delta pair brackets exactly the kernel work of one discovery
    run and two concurrent sessions never pollute each other's numbers.
    :data:`KERNEL_COUNTERS` is the default state's instance.
    """

    #: Never incremented (no mark table is cached: a product probes against
    #: a column's codes); kept because the e2e benchmark reads them.
    mark_hits: int = 0
    mark_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    #: Never incremented (a partition cache keeps every partition for its
    #: lifetime); kept because the e2e benchmark reads it.
    partition_evictions: int = 0
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


#: Exclusive upper bound of the key spaces grouped by the counting-sort path:
#: the path narrows keys to ``uint16`` before sorting, and it wins over the
#: composite introsort at every key space it can represent.
COUNTING_SORT_SPACE = 1 << 16


class NumpyBackend:
    """Vectorized probe primitives over ``np.int64`` arrays.

    ``positions``/``offsets`` use the flat stripped-partition layout: group
    ``i`` is ``positions[offsets[i]:offsets[i + 1]]``.  ``codes`` are dense
    per-row integer encodings (``array('q')``, ``list`` or ``np.ndarray``);
    ``marks`` map row position -> class id: a partition's group ids
    (``-1`` for stripped singletons), or a column's codes.
    Inputs may be any of those sequences; outputs are ``np.int64`` arrays.
    Grouping emits groups in ascending code order via a stable sort, and the
    partition product emits buckets in (probe group, first appearance of
    mark) order.
    """

    #: The kernel name recorded in run results and kernel statistics.
    name = "numpy"

    # -- representation helpers ----------------------------------------------
    @staticmethod
    def _as_array(values):
        if isinstance(values, np.ndarray):
            return values if values.dtype == np.int64 else values.astype(np.int64)
        if isinstance(values, array) and values.typecode == "q":
            # array('q') shares int64 layout: zero-copy (read-only) view.
            return np.frombuffer(values, dtype=np.int64)
        return np.asarray(values, dtype=np.int64)

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
            return np.empty(0, dtype=np.int64)
        counters = kernel_counters()
        if 0 < bound <= COUNTING_SORT_SPACE:
            counters.counting_sorts += 1
            return keys.astype(np.uint16).argsort(kind="stable")
        counters.introsorts += 1
        if bound < (2**62) // (n + 1):
            composite = keys * np.int64(n) + np.arange(n, dtype=np.int64)
            return composite.argsort()
        return keys.argsort(kind="stable")

    @classmethod
    def _run_starts(cls, sorted_keys):
        """Start indices of the equal-key runs of an already sorted array."""
        n = sorted_keys.shape[0]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
        return np.flatnonzero(boundary)

    # -- construction ---------------------------------------------------------
    def as_codes(self, codes):
        """View ``codes`` (``array('q')``/``list``/ndarray) as an int64 array."""
        return self._as_array(codes)

    def adopt_flat(self, positions, offsets):
        """Externally built flat ``(positions, offsets)`` lists as int64 arrays."""
        return (
            np.asarray(positions, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
        )

    def group_by_codes(self, codes, n_codes, counts=None):
        """Counting-sort ``codes`` into flat ``(positions, offsets)``.

        Groups appear in ascending code order (first-appearance order for a
        column's encoding); positions within a group ascend; singleton codes
        are stripped.  ``counts`` (per-code occurrence counts) is an optional
        precomputed hint.
        """
        codes = self._as_array(codes)
        if counts is not None:
            # Adopting the relation's precomputed per-code counts is
            # O(n_codes) versus the O(n_rows) counting pass below.
            counts = self._as_array(counts)
        elif codes.size:
            counts = np.bincount(codes, minlength=n_codes)
        else:
            counts = np.zeros(n_codes, dtype=np.int64)
        order = self._stable_order(codes, max(n_codes, 1))
        keep_group = counts > 1
        positions = order[keep_group[codes[order]]]
        sizes = counts[keep_group]
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64))
        )
        return positions, offsets

    def build_marks(self, positions, offsets, n_rows):
        """Row position -> group id (or ``-1``) mark table of a partition."""
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        marks = np.full(n_rows, -1, dtype=np.int64)
        sizes = np.diff(offsets)
        marks[positions] = np.repeat(
            np.arange(sizes.shape[0], dtype=np.int64), sizes
        )
        return marks

    # -- probes ---------------------------------------------------------------
    def intersect_marks(self, positions, offsets, marks, n_marks):
        """Probe one partition's groups against ``marks`` (partition product).

        Output groups appear probe-group by probe-group, sub-buckets in
        first-appearance-of-mark order, positions in probe order.
        """
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        marks = self._as_array(marks)
        probe_marks = marks[positions]
        sizes = offsets[1:] - offsets[:-1]
        group_ids = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        valid = probe_marks >= 0
        radix = np.int64(max(n_marks, 1))
        # (probe group, mark) buckets; the flat probe array is ordered group
        # by group, so ordering buckets by first appearance yields probe
        # groups ascending, marks by first appearance inside each group and
        # positions in probe (ascending) order.
        if bool(valid.all()):
            keys = group_ids * radix + probe_marks
            survivors = positions
        else:
            keys = group_ids[valid] * radix + probe_marks[valid]
            survivors = positions[valid]
        empty = (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
        if keys.size == 0:
            return empty
        perm = self._stable_order(keys, int(sizes.shape[0]) * int(radix))
        starts = self._run_starts(keys[perm])
        counts = np.empty(starts.shape[0], dtype=np.int64)
        counts[:-1] = starts[1:] - starts[:-1]
        counts[-1] = keys.size - starts[-1]
        # Singleton buckets are stripped from the product, so only the kept
        # buckets need the first-appearance ordering (their relative order is
        # unchanged by dropping singletons); first-occurrence indices are
        # distinct, so a plain introsort over the few survivors orders them.
        keep = np.flatnonzero(counts > 1)
        if keep.size == 0:
            return empty
        kept = keep[perm[starts[keep]].argsort()]
        out_sizes = counts[kept]
        out_offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(out_sizes, dtype=np.int64))
        )
        # Gather each kept bucket's (contiguous) slice of the sorted order.
        flat = np.repeat(starts[kept] - out_offsets[:-1], out_sizes) + np.arange(
            out_offsets[-1], dtype=np.int64
        )
        out_positions = survivors[perm[flat]]
        return out_positions, out_offsets

    def refines_marks(self, positions, offsets, marks):
        """Whether every group maps into a single non-singleton mark class."""
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        group_marks = self._as_array(marks)[positions]
        firsts = group_marks[offsets[:-1]]
        if firsts.size and bool((firsts < 0).any()):
            return False
        sizes = np.diff(offsets)
        return bool((group_marks == np.repeat(firsts, sizes)).all())

    def constant_within_groups(self, positions, offsets, codes):
        """Whether ``codes`` is constant inside every group (FD validity)."""
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
        analogue of an early-exit scan.
        """
        firsts = codes[first_rows]
        if bool((firsts != codes[second_rows]).any()):
            return False
        sizes = offsets[1:] - offsets[:-1]
        return bool((codes[positions] == np.repeat(firsts, sizes)).all())

    def g3_removals(self, positions, offsets, codes):
        """Rows to delete so ``codes`` becomes constant within every group."""
        positions = self._as_array(positions)
        offsets = self._as_array(offsets)
        return self._g3_removals_prepared(
            positions, offsets, self._as_array(codes), self._group_ids(offsets)
        )

    @staticmethod
    def _group_ids(offsets):
        sizes = np.diff(offsets)
        return np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)

    @staticmethod
    def _g3_removals_prepared(positions, offsets, codes, group_ids):
        if positions.size == 0:
            return 0
        group_codes = codes[positions]
        radix = np.int64(int(group_codes.max()) + 1) if group_codes.size else np.int64(1)
        keys = group_ids * radix + group_codes
        unique_keys, counts = np.unique(keys, return_counts=True)
        owner = unique_keys // radix
        starts = np.flatnonzero(
            np.concatenate((np.ones(1, dtype=bool), owner[1:] != owner[:-1]))
        )
        best = np.maximum.reduceat(counts, starts)
        return int(positions.size - best.sum())

    # -- batched probes -------------------------------------------------------
    def batch_constant_within_groups(self, positions, offsets, codes_list):
        """:meth:`constant_within_groups` of several RHS columns, one partition."""
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

        ``groups`` is a sequence of ``(positions, offsets, codes_list)``
        triples, one per *distinct* LHS partition of the level, each paired
        with the RHS code columns checked against it.  Returns one verdict
        list per triple, in order.

        The level arrives as one kernel call; when its shape is
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
        lengths = np.asarray([part.shape[0] for part in first_parts], dtype=np.int64)
        bounds = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        first_rows = np.concatenate(first_parts)
        second_rows = np.concatenate(second_parts)
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
            violation_rows.append(np.add.reduceat(firsts != column[second_rows], bounds[:-1]))
        violated = np.stack(violation_rows) > 0  # (n_columns, n_segments)
        column_index = np.fromiter((c[2] for c in candidates), np.int64, len(candidates))
        segment_index = np.fromiter((c[3] for c in candidates), np.int64, len(candidates))
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
            expected = np.repeat(firsts, offsets[1:] - offsets[:-1])
            results[gi][ci] = bool((column[positions] == expected).all())
        return results

    def validate_level_error_groups(self, groups):
        """g3 grading of one whole lattice level in a single dispatch.

        Same ``groups`` layout as :meth:`validate_level_groups`; returns one
        removal-count list per triple, in order.  Each partition's row ->
        group-id expansion is computed once and shared by all of its RHS
        columns; the per-candidate ``unique`` tallies dominate, so further stacking
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

    # -- SPJ operators in code space ------------------------------------------
    def _joint_keys(self, left_keys, right_keys):
        """Per-row composite keys of both sides (``-1`` for a NULL part).

        Folds the key columns by mixed radix; when the next fold could
        overflow ``int64``, both sides are first re-densified jointly.
        """
        left = right = None
        bound = 1
        for left_key, right_key in zip(left_keys, right_keys):
            left_codes, left_table, width = left_key
            right_codes, right_table, _width = right_key
            left_next = self._as_array(left_table)[self._as_array(left_codes)]
            right_next = self._as_array(right_table)[self._as_array(right_codes)]
            if left is None:
                left, right, bound = left_next, right_next, width
                continue
            width = max(width, 1)
            if bound * width >= 2**62:
                both = np.concatenate((left, right))
                valid = both >= 0
                values, inverse = np.unique(both[valid], return_inverse=True)
                both[valid] = inverse
                left, right = both[: left.shape[0]], both[left.shape[0] :]
                bound = max(int(values.shape[0]), 1)
            left = np.where((left < 0) | (left_next < 0), -1, left * width + left_next)
            right = np.where((right < 0) | (right_next < 0), -1, right * width + right_next)
            bound *= width
        return left, right

    def match(self, left_keys, right_keys, how):
        """The row match of an equi-join over shared key codes.

        ``left_keys`` and ``right_keys`` hold one ``(codes, table, width)``
        triple per join column: row ``i`` has the key ``table[codes[i]]`` in
        that column, a code in ``0..width-1`` shared by both sides, or ``-1``
        for NULL, which never matches.  ``how`` is a
        :class:`~repro.relational.algebra.JoinKind` value.  Returns
        ``(left_idx, right_idx, n_head)``:

        * for the four joins, output row ``j`` pairs left row ``left_idx[j]``
          with right row ``right_idx[j]``.  The first ``n_head`` rows are the
          left rows in order, each followed by its matches in ascending right
          position; an unmatched left row of a left or full outer join gets
          one row with ``right_idx == -1``.  Right and full outer joins then
          append the unmatched right rows, ascending, with ``left_idx == -1``;
        * for ``left_semi`` (``right_semi``), ``left_idx`` (``right_idx``)
          holds the kept rows' ascending positions and the other is ``None``.
        """
        left, right = self._joint_keys(left_keys, right_keys)
        if how == "left_semi":
            kept = np.flatnonzero(np.isin(left, right[right >= 0]))
            return kept, None, int(kept.shape[0])
        if how == "right_semi":
            kept = np.flatnonzero(np.isin(right, left[left >= 0]))
            return None, kept, int(kept.shape[0])
        valid = np.flatnonzero(right >= 0)
        order = valid[np.argsort(right[valid], kind="stable")]
        sorted_keys = right[order]
        # NULL keys (-1) sort before every valid key: they find no match.
        low = np.searchsorted(sorted_keys, left, side="left")
        counts = np.searchsorted(sorted_keys, left, side="right") - low
        pad_left = how in ("left_outer", "full_outer")
        sizes = np.maximum(counts, 1) if pad_left else counts
        n_head = int(sizes.sum())
        left_idx = np.repeat(np.arange(left.shape[0], dtype=np.int64), sizes)
        starts = np.cumsum(sizes) - sizes
        slots = np.repeat(low - starts, sizes) + np.arange(n_head, dtype=np.int64)
        if pad_left:
            matched = np.repeat(counts > 0, sizes)
            right_idx = np.full(n_head, -1, dtype=np.int64)
            right_idx[matched] = order[slots[matched]]
        else:
            right_idx = order[slots]
        if how in ("right_outer", "full_outer"):
            unmatched = np.ones(right.shape[0], dtype=bool)
            unmatched[right_idx[right_idx >= 0]] = False
            tail = np.flatnonzero(unmatched)
            left_idx = np.concatenate((left_idx, np.full(tail.shape[0], -1, dtype=np.int64)))
            right_idx = np.concatenate((right_idx, tail))
        return left_idx, right_idx, n_head

    def gather_densify(self, segments, space, pad=None, classes=None):
        """Gather codes by row index and re-densify them.

        ``segments`` are ``(codes, idx, offset)`` triples laid end to end:
        row ``j`` of a segment holds the value ``codes[idx[j]] + offset``, or
        ``pad`` where ``idx[j] == -1``.  Values lie in ``0..space-1``, and
        ``classes`` (a table of length ``space``) optionally maps them to the
        equality classes that share one output code.  Returns
        ``(codes, counts, firsts)``: dense codes in first-appearance order,
        per-code counts, and the list ``firsts`` whose entry ``c`` is the
        value at the first appearance of code ``c``.
        """
        parts = []
        for codes, idx, offset in segments:
            codes = self._as_array(codes)
            idx = self._as_array(idx)
            if pad is None:
                values = codes[idx] + offset if offset else codes[idx]
            else:
                values = np.full(idx.shape[0], pad, dtype=np.int64)
                real = idx >= 0
                values[real] = codes[idx[real]] + offset
            parts.append(values)
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
        keys = values if classes is None else self._as_array(classes)[values]
        n = keys.shape[0]
        # First appearance of each key; then rank the present keys by it.
        first = np.full(space, n, dtype=np.int64)
        np.minimum.at(first, keys, np.arange(n, dtype=np.int64))
        present = np.flatnonzero(first < n)
        present = present[np.argsort(first[present])]
        remap = np.empty(space, dtype=np.int64)
        remap[present] = np.arange(present.shape[0], dtype=np.int64)
        out = remap[keys]
        counts = np.bincount(out, minlength=present.shape[0])
        return out, counts, values[first[present]].tolist()

    def matched_positions(self, idx, n_rows):
        """The distinct non-negative entries of ``idx``, ascending (a row mask)."""
        idx = self._as_array(idx)
        mask = np.zeros(n_rows, dtype=bool)
        mask[idx[idx >= 0]] = True
        return np.flatnonzero(mask)

    # -- dense row labels -----------------------------------------------------

    #: Largest key space ``nx * ny`` that :meth:`product_labels` ranks by
    #: scatter.  Scatter and ranking cost ``O(nx * ny)``, the ``np.unique``
    #: path ``O(n log n)``; on inputs of 200 to 6 000 rows the two cross
    #: between 2**15 and 2**16 (numpy 2.4, one core of a 2-core x86 host).
    PRODUCT_LABELS_SPACE = 1 << 15

    def product_labels(self, x, nx, y, ny):
        """Dense class labels of the row pairs ``(x[i], y[i])``.

        ``x`` holds dense labels in ``0..nx-1`` and ``y`` dense codes in
        ``0..ny-1``, one per row.  Returns ``(labels, n)``: the ``n`` distinct
        pairs are numbered ``0..n-1`` in ascending ``(x, y)`` order, so both
        paths below return identical labels.
        """
        x = self._as_array(x)
        y = self._as_array(y)
        n_rows = x.shape[0]
        if nx == n_rows:
            # Every row is its own class already: ranking by (x, y) is x.
            return x, nx
        keys = x * np.int64(ny)
        keys += y
        space = nx * ny
        if space > self.PRODUCT_LABELS_SPACE:
            present, labels = np.unique(keys, return_inverse=True)
            return labels.astype(np.int64, copy=False).reshape(n_rows), int(present.shape[0])
        seen = np.zeros(space, dtype=bool)
        seen[keys] = True
        present = seen.nonzero()[0]
        rank = np.empty(space, dtype=np.int64)
        rank[present] = np.arange(present.shape[0], dtype=np.int64)
        return rank[keys], int(present.shape[0])

    def labels_determine(self, labels, n, codes):
        """Whether ``codes`` is constant within every class of ``labels``.

        ``labels`` are dense class labels in ``0..n-1``: this is the FD
        check ``X -> a`` with ``X``'s labels and ``a``'s codes.  One code per
        class is scattered, then every row is compared with its class's.
        """
        labels = self._as_array(labels)
        if n == labels.shape[0]:
            return True  # all classes are single rows
        codes = self._as_array(codes)
        representative = np.empty(n, dtype=np.int64)
        representative[labels] = codes
        return bool((representative[labels] == codes).all())


#: The partition kernel.  It holds no state, so one instance serves every
#: engine state and thread.
KERNEL = NumpyBackend()


# ---------------------------------------------------------------------------
# Engine state.
# ---------------------------------------------------------------------------

class _RelationKernelCaches:
    """The kernel caches one engine state holds for one relation.

    Owned by the state (not the relation), so two concurrent sessions
    working on the same relation never share partitions or cache counters.
    Entries are dropped automatically when the relation is garbage
    collected.
    """

    __slots__ = ("relation_ref", "partitions", "__weakref__")

    def __init__(self, relation: "Relation") -> None:
        self.relation_ref = weakref.ref(relation)
        #: Lazily attached ``PartitionCache`` (set by ``Session.partition_cache``).
        self.partitions = None


class EngineState:
    """The kernel counters and per-relation kernel caches of one session.

    One state is *active* at any point (installed by
    ``Session.activate()``); a lazy default state serves code running
    outside any session.
    """

    __slots__ = ("counters", "_relation_caches", "__weakref__")

    def __init__(self, counters: KernelCounters | None = None) -> None:
        self.counters = KernelCounters() if counters is None else counters
        self._relation_caches: dict[int, _RelationKernelCaches] = {}

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
        entry = _RelationKernelCaches(relation)
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
    """The lazy module-level engine state (counting into :data:`KERNEL_COUNTERS`)."""
    global _DEFAULT_STATE
    state = _DEFAULT_STATE
    if state is None:
        with _DEFAULT_STATE_LOCK:
            state = _DEFAULT_STATE
            if state is None:
                state = _DEFAULT_STATE = EngineState(counters=KERNEL_COUNTERS)
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


def kernel_stats_summary(state: EngineState | None = None) -> dict[str, object]:
    """Kernel statistics of ``state`` (default: the active engine state).

    The counters are scoped to the state, so a fresh
    :class:`~repro.session.Session` reports exactly its own kernel work —
    runs in other sessions (or earlier CLI invocations in the same process)
    never leak into the numbers.
    """
    if state is None:
        state = active_state()
    return {"backend": KERNEL.name, **state.counters.snapshot()}


def render_kernel_stats(state: EngineState | None = None) -> str:
    """Human-readable one-block rendering of :func:`kernel_stats_summary`."""
    summary = kernel_stats_summary(state)
    lines = [f"[kernel] backend={summary.pop('backend')}"]
    lines.append(
        "[kernel] partition cache: "
        f"hits={summary['partition_hits']} misses={summary['partition_misses']} "
        f"evictions={summary['partition_evictions']}"
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
