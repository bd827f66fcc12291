"""``repro.shm`` — the zero-copy shared-memory data plane.

Registry-resident relations travel to worker processes as ``/dev/shm``
segments instead of per-job pickles: the parent's
:class:`SharedRelationPlane` publishes each relation once (keyed by content
hash, LRU byte budget ``REPRO_SHM_BYTES``), and workers reconstruct a
:class:`SharedRelation` over zero-copy ``np.frombuffer`` views via
:class:`SegmentAttachCache`.  Artefacts are byte-identical to the wire
path; every miss (inline relation, evicted segment, injected
``shm.attach`` fault) falls back to the wire transparently.

See ``docs/ARCHITECTURE.md`` ("The shared-memory data plane") for the
segment lifecycle state machine, refcount/eviction rules and the full
fallback matrix.
"""

from .plane import (
    SITE_SHM_ATTACH,
    SITE_SHM_EVICT,
    SharedRelationPlane,
    plane_available,
)
from .relation import (
    SegmentAttachCache,
    SharedRelation,
    attach_segment,
    relation_from_segment,
)
from .segment import (
    SEGMENT_MAGIC,
    SEGMENT_SCHEMA,
    SegmentFormatError,
    encode_segment,
    read_header,
    write_segment,
)

__all__ = [
    "SITE_SHM_ATTACH",
    "SITE_SHM_EVICT",
    "SEGMENT_MAGIC",
    "SEGMENT_SCHEMA",
    "SegmentAttachCache",
    "SegmentFormatError",
    "SharedRelation",
    "SharedRelationPlane",
    "attach_segment",
    "encode_segment",
    "plane_available",
    "read_header",
    "relation_from_segment",
    "write_segment",
]
