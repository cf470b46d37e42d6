"""Pipeline segment taxonomy.

One enumeration names every segment of the object-detection XR pipeline of
Fig. 1, and records which segments belong to the local-inference path, the
remote-inference path, or both, so the latency/energy models can assemble
Eq. (1) / Eq. (19) without hard-coding segment lists in several places.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, FrozenSet, Mapping

from repro.core.numeric import ArrayLike


class Segment(str, enum.Enum):
    """Segments of the XR object-detection pipeline (Fig. 1)."""

    FRAME_GENERATION = "frame_generation"
    VOLUMETRIC = "volumetric"
    EXTERNAL = "external"
    CONVERSION = "conversion"
    ENCODING = "encoding"
    LOCAL_INFERENCE = "local_inference"
    REMOTE_INFERENCE = "remote_inference"
    TRANSMISSION = "transmission"
    HANDOFF = "handoff"
    RENDERING = "rendering"
    COOPERATION = "cooperation"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Segments present regardless of where inference executes.
COMMON_SEGMENTS: FrozenSet[Segment] = frozenset(
    {
        Segment.FRAME_GENERATION,
        Segment.VOLUMETRIC,
        Segment.EXTERNAL,
        Segment.RENDERING,
    }
)

#: Segments of the local-inference path (local and split execution).
LOCAL_ONLY_SEGMENTS: FrozenSet[Segment] = frozenset(
    {Segment.CONVERSION, Segment.LOCAL_INFERENCE}
)

#: Segments of the remote-inference path (remote and split execution).
REMOTE_ONLY_SEGMENTS: FrozenSet[Segment] = frozenset(
    {
        Segment.ENCODING,
        Segment.REMOTE_INFERENCE,
        Segment.TRANSMISSION,
        Segment.HANDOFF,
    }
)

#: Segments that execute on the device's compute complex (CPU/GPU); these are
#: the segments whose power scales with the mean computation power of Eq. (21)
#: and whose energy contributes to the thermal conversion term.
COMPUTE_SEGMENTS: FrozenSet[Segment] = frozenset(
    {
        Segment.FRAME_GENERATION,
        Segment.VOLUMETRIC,
        Segment.CONVERSION,
        Segment.ENCODING,
        Segment.LOCAL_INFERENCE,
        Segment.RENDERING,
    }
)

#: Segments that use the radio rather than the compute complex.
RADIO_SEGMENTS: FrozenSet[Segment] = frozenset(
    {Segment.TRANSMISSION, Segment.HANDOFF, Segment.COOPERATION}
)


def billed_segments(local_path: bool, remote_path: bool, cooperation: bool) -> FrozenSet[Segment]:
    """The segments whose values sum into the end-to-end totals (Eq. 1).

    The scalar models and the batch engine both bill through this rule.

    Args:
        local_path: the frame runs conversion and inference on the XR device
            (local and split execution).
        remote_path: the frame is encoded, sent and inferred on an edge
            server (remote and split execution).
        cooperation: the XR-cooperation segment is billed to the totals (the
            paper leaves it out, because it runs in parallel with rendering).
    """
    segments = set(COMMON_SEGMENTS)
    if local_path:
        segments |= LOCAL_ONLY_SEGMENTS
    if remote_path:
        segments |= REMOTE_ONLY_SEGMENTS
    if cooperation:
        segments.add(Segment.COOPERATION)
    return frozenset(segments)


def billed_sum(values: Mapping[Segment, ArrayLike], billed: AbstractSet[Segment]) -> ArrayLike:
    """Sum of the billed segments' values: the segment sums of Eqs. (1) and (19).

    Starts from +0.0 and adds one segment at a time in the mapping's
    insertion order, so floats and arrays give the same bits and a zero
    entry adds nothing; ``sum()`` would not, because its float sum is
    compensated on Python 3.12+.
    """
    total = 0.0
    for segment, value in values.items():
        if segment in billed:
            total = total + value
    return total
