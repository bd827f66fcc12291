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
  on the hot path compare machine integers instead of hashing raw values.
  An attribute combination is the dense row labels of its columns' codes,
  folded column by column with
  :meth:`~repro.relational.backend.NumpyBackend.product_labels`.
* **Flat-array partitions** — a :class:`StrippedPartition` stores one flat
  ``positions`` array plus a group-``offsets`` array instead of
  tuples-of-tuples.  ``intersect`` and ``refines`` are single-pass probe
  algorithms: one side is probed against a row -> class map of the other
  (TANE's linear partition product).  A single-column partition's map is
  its column's cached codes, so products with a column build no map.
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
  attribute set with hit/miss statistics for its lifetime and composes a new
  combination from the cached one-smaller subset with the fewest groups.

TANE, FUN, FastFDs, HyFD, the naive oracle and the g3/AFD measures run on
these partitions; InFine's data checks run on the kernel's row labels
(:class:`repro.infine.joinfd.RowLabels`); ``benchmarks/
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
