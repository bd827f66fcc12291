"""Minimal in-memory relational engine (the substrate of the reproduction).

Exposes relations, schemas, the SPJ algebra, stripped partitions and the SPJ
view-specification AST used throughout the library.

Performance architecture
------------------------
The discovery/validation hot path is columnar:

* **Column encodings** — every :class:`Relation` lazily dictionary-encodes
  each column into dense ``int`` codes held in an int64 array
  (:meth:`Relation.column_codes`).  Encodings are cached on the (immutable)
  relation and shared by all partition and FD primitives, so equality tests
  on the hot path compare machine integers instead of hashing raw values;
  combinations fold per-column codes with a re-densified mixed-radix product
  (:meth:`Relation.combined_column_codes`).
* **Flat-array partitions** — a :class:`StrippedPartition` stores one flat
  ``positions`` array plus a group-``offsets`` array instead of
  tuples-of-tuples.  ``intersect`` and ``refines`` are single-pass probe
  algorithms: the side with the smaller ``||π||`` is probed against a
  reusable row -> group-id mark table of the other side (TANE's linear
  partition product); mark tables are amortised across calls by the
  relation-scoped byte-budgeted :class:`~repro.relational.backend.MarkTableCache`.
  ``fd_holds_fast`` / ``fd_violation_fraction`` scan LHS groups against the
  cached RHS column codes with an early reject.
* **One vectorized kernel** — every probe loop is a numpy primitive of
  :data:`~repro.relational.backend.KERNEL` (numpy is a required
  dependency).  The test suite pins each primitive against a pure-python
  reference implementation on the same inputs.
* **Batched validation** — :func:`validate_level` /
  :func:`validate_level_errors` answer a whole lattice level's candidate
  checks with one vectorized pass per shared LHS partition; TANE, FUN,
  ApproximateTANE and the AFD profiler feed their levels through it.
* **Partition caching** — :class:`PartitionCache` memoises partitions per
  attribute set with hit/miss/eviction statistics, pins the single-attribute
  basis, composes new combinations from the cached subset with the fewest
  groups, and (optionally) evicts multi-attribute entries LRU-first under a
  ``stripped_size`` memory budget.

TANE, FUN, FastFDs, HyFD, the naive oracle, the g3/AFD measures and InFine's
join-FD validation all inherit this kernel; ``benchmarks/
bench_partition_kernel.py`` tracks its performance trajectory.
"""

from .algebra import (
    JoinKind,
    JoinMatch,
    cartesian_product,
    equi_join,
    project,
    rename,
    select,
    union,
)
from .backend import (
    EngineState,
    MarkTableCache,
    KERNEL,
    NumpyBackend,
    activate_state,
    active_state,
    kernel_counters,
)
from .csv_io import load_catalog, load_csv, save_catalog, save_csv
from .partition import (
    PartitionCache,
    PartitionCacheStats,
    StrippedPartition,
    fd_holds,
    fd_holds_fast,
    fd_violation_fraction,
    fd_violation_fraction_from_partition,
    validate_level,
    validate_level_errors,
)
from .predicates import (
    And,
    AttributeComparison,
    Comparison,
    InSet,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjunction,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from .relation import NULL, Relation, RelationError
from .schema import Attribute, RelationSchema, SchemaError, make_schema
from .view import (
    BaseRelationSpec,
    JoinSpec,
    ProjectSpec,
    SelectSpec,
    ViewError,
    ViewSpec,
    base,
    join,
    proj,
    sel,
    validate_view,
)

__all__ = [
    "Attribute",
    "RelationSchema",
    "SchemaError",
    "make_schema",
    "Relation",
    "RelationError",
    "NULL",
    "JoinKind",
    "JoinMatch",
    "project",
    "select",
    "rename",
    "equi_join",
    "union",
    "cartesian_product",
    "Predicate",
    "Comparison",
    "AttributeComparison",
    "InSet",
    "IsNull",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "conjunction",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "StrippedPartition",
    "PartitionCache",
    "PartitionCacheStats",
    "KERNEL",
    "NumpyBackend",
    "MarkTableCache",
    "EngineState",
    "active_state",
    "activate_state",
    "kernel_counters",
    "fd_holds",
    "fd_holds_fast",
    "fd_violation_fraction",
    "fd_violation_fraction_from_partition",
    "validate_level",
    "validate_level_errors",
    "ViewSpec",
    "BaseRelationSpec",
    "ProjectSpec",
    "SelectSpec",
    "JoinSpec",
    "ViewError",
    "base",
    "proj",
    "sel",
    "join",
    "validate_view",
    "load_csv",
    "save_csv",
    "load_catalog",
    "save_catalog",
]
