"""Pure-python reference implementation of the partition kernel's primitives.

:class:`PythonBackend` is the oracle the vectorized kernel
(:class:`repro.relational.backend.NumpyBackend`) is compared against: the
same primitives, written as plain ``list``/``dict``/``array('q')`` loops
whose output order is easy to read off the code.  It does not run in the
program.  Tests use it in two ways:

* call a kernel primitive and the oracle on the same inputs and compare
  (``plain(KERNEL.f(*args)) == plain(ORACLE.f(*args))``);
* :func:`cross_checked` runs any pipeline on the kernel while replaying every
  primitive call on the oracle, failing on the first call whose results
  differ.  :func:`kernel_leg` wraps it for tests parametrised over the legs
  ``python`` (cross-checked) and ``numpy`` (the kernel alone).
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.relational.backend import NumpyBackend

#: The kernel primitives the oracle implements, compared call by call.
PRIMITIVES = (
    "group_by_codes",
    "build_marks",
    "intersect_marks",
    "refines_marks",
    "validate_level_groups",
    "validate_level_error_groups",
    "match",
    "gather_densify",
    "matched_positions",
    "product_labels",
    "labels_determine",
)

#: The legs of tests parametrised over kernels: the oracle-checked run and
#: the kernel alone.
LEGS = ("python", "numpy")


class PythonBackend:
    """The pure-python loops of every kernel primitive (reference semantics)."""

    name = "python"

    def group_by_codes(self, codes, n_codes, counts=None):
        if counts is None:
            counts = [0] * n_codes
            for code in codes:
                counts[code] += 1
        buckets: list[list[int] | None] = [[] if count > 1 else None for count in counts]
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
        start = offsets[0]
        for group_id in range(1, len(offsets)):
            end = offsets[group_id]
            buckets: dict[int, list[int]] = {}
            for position in positions[start:end]:
                mark = marks[position]
                if mark >= 0:
                    buckets.setdefault(mark, []).append(position)
            start = end
            for bucket in buckets.values():
                if len(bucket) > 1:
                    out_positions.extend(bucket)
                    out_offsets.append(len(out_positions))
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

    def validate_level_groups(self, groups):
        return [
            [_constant_within_groups(positions, offsets, codes) for codes in codes_list]
            for positions, offsets, codes_list in groups
        ]

    def validate_level_error_groups(self, groups):
        return [
            [_g3_removals(positions, offsets, codes) for codes in codes_list]
            for positions, offsets, codes_list in groups
        ]

    @staticmethod
    def _row_keys(keys) -> list[int]:
        codes, table, _width = keys[0]
        out = [table[code] for code in codes]
        for codes, table, width in keys[1:]:
            for i, code in enumerate(codes):
                key = out[i]
                shared = table[code]
                out[i] = -1 if key < 0 or shared < 0 else key * width + shared
        return out

    def match(self, left_keys, right_keys, how):
        left = self._row_keys(left_keys)
        right = self._row_keys(right_keys)
        if how in ("left_semi", "right_semi"):
            probe, build = (left, right) if how == "left_semi" else (right, left)
            found = set(build)
            found.discard(-1)
            kept = array("q", [i for i, key in enumerate(probe) if key in found])
            return (kept, None, len(kept)) if how == "left_semi" else (None, kept, len(kept))
        index: dict[int, list[int]] = {}
        for position, key in enumerate(right):
            if key >= 0:
                index.setdefault(key, []).append(position)
        pad_left = how in ("left_outer", "full_outer")
        left_idx = array("q")
        right_idx = array("q")
        for position, key in enumerate(left):
            matches = index.get(key)
            if matches is not None:
                left_idx.extend([position] * len(matches))
                right_idx.extend(matches)
            elif pad_left:
                left_idx.append(position)
                right_idx.append(-1)
        n_head = len(left_idx)
        if how in ("right_outer", "full_outer"):
            matched = bytearray(len(right))
            for position in right_idx:
                if position >= 0:
                    matched[position] = 1
            for position, seen in enumerate(matched):
                if not seen:
                    left_idx.append(-1)
                    right_idx.append(position)
        return left_idx, right_idx, n_head

    def gather_densify(self, segments, space, pad=None, classes=None):
        remap = [-1] * space
        out = array("q")
        counts: list[int] = []
        firsts: list[int] = []
        for codes, idx, offset in segments:
            for i in idx:
                value = codes[i] + offset if i >= 0 else pad
                key = value if classes is None else classes[value]
                code = remap[key]
                if code < 0:
                    code = remap[key] = len(counts)
                    counts.append(1)
                    firsts.append(value)
                else:
                    counts[code] += 1
                out.append(code)
        return out, counts, firsts

    def matched_positions(self, idx, n_rows):
        mask = bytearray(n_rows)
        for i in idx:
            if i >= 0:
                mask[i] = 1
        return array("q", [i for i, seen in enumerate(mask) if seen])

    def product_labels(self, x, nx, y, ny):
        pairs = list(zip(x, y))
        rank = {pair: label for label, pair in enumerate(sorted(set(pairs)))}
        return [rank[pair] for pair in pairs], len(rank)

    def labels_determine(self, labels, n, codes):
        code_of: dict[int, int] = {}
        for label, code in zip(labels, codes):
            if code_of.setdefault(label, code) != code:
                return False
        return True


def _constant_within_groups(positions, offsets, codes) -> bool:
    """Whether ``codes`` is constant inside every group (one exact check)."""
    start = offsets[0]
    for group_id in range(1, len(offsets)):
        end = offsets[group_id]
        first = codes[positions[start]]
        for position in positions[start + 1 : end]:
            if codes[position] != first:
                return False
        start = end
    return True


def _g3_removals(positions, offsets, codes) -> int:
    """Rows to delete so ``codes`` becomes constant within every group (one g3 check)."""
    removals = 0
    start = offsets[0]
    for group_id in range(1, len(offsets)):
        end = offsets[group_id]
        tally = Counter(codes[position] for position in positions[start:end])
        removals += (end - start) - max(tally.values())
        start = end
    return removals


ORACLE = PythonBackend()


def plain(value):
    """``value`` with every array and numpy scalar turned into python values."""
    if isinstance(value, (np.ndarray, array)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _checked(name: str, kernel_method, calls: Counter):
    oracle_method = getattr(ORACLE, name)

    def method(self, *args, **kwargs):
        result = kernel_method(self, *args, **kwargs)
        expected = oracle_method(*args, **kwargs)
        assert plain(result) == plain(expected), f"kernel {name} differs from the oracle"
        calls[name] += 1
        return result

    return method


@contextmanager
def cross_checked() -> Iterator[Counter]:
    """Replay every kernel primitive call on the oracle and compare results.

    Yields a counter of the calls checked per primitive.  The kernel's own
    results are what the program keeps computing with.
    """
    calls: Counter = Counter()
    originals = {name: getattr(NumpyBackend, name) for name in PRIMITIVES}
    for name, kernel_method in originals.items():
        setattr(NumpyBackend, name, _checked(name, kernel_method, calls))
    try:
        yield calls
    finally:
        for name, kernel_method in originals.items():
            setattr(NumpyBackend, name, kernel_method)


@contextmanager
def kernel_leg(leg: str) -> Iterator[Counter]:
    """Run the body on the kernel, cross-checked against the oracle for ``python``."""
    if leg == "python":
        with cross_checked() as calls:
            yield calls
    elif leg == "numpy":
        yield Counter()
    else:
        raise ValueError(f"unknown kernel leg {leg!r}: expected one of {LEGS}")
