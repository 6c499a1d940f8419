"""A fault-injectable simulated link carrying CRC-framed ship frames.

The primary's shipper puts :class:`ShipFrame` batches on a
:class:`SimulatedLink`; the standby takes whatever :meth:`deliver_due`
hands it.  Wire framing (big-endian)::

    frame := u32 sequence | u32 epoch | u32 body_len | u32 crc | body
    crc   := crc32(sequence | epoch | body_len | body)
    body  := (u32 record_len | record_bytes)*

where each ``record_bytes`` is a full journal record in the
:func:`repro.durability.journal.encode_record` format.  The CRC covers
the header fields *and* the body — a bit flip anywhere in the frame,
including the sequence or the fencing epoch, makes it decode to ``None``
and the receiver simply discards it — retransmission (go-back-N over
cumulative acks) lives in the shipper, not here.

The link is a time-stepped model, deliberately engine-free: ``send``
stamps a delivery time, ``deliver_due(now)`` releases everything whose
time has come.  Faults are deterministic and seeded:

- :meth:`drop_next` — the next *n* frames vanish;
- :meth:`corrupt_next` — the next *n* frames have one seeded bit flipped;
- :meth:`reorder_next` — the next *n* frames are held back an extra
  delivery interval, landing behind their successors;
- :meth:`add_delay` — every send inside a window pays extra latency
  (the :data:`~repro.faults.schedule.FaultKind.LINK_DELAY` fault).
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..rng import RandomStreams

__all__ = ["ShipFrame", "SimulatedLink", "encode_frame", "decode_frame"]

#: The CRC-protected header prefix: sequence, epoch, body length.
_FRAME_PREFIX = struct.Struct(">III")
_FRAME_CRC = struct.Struct(">I")
_FRAME_HEADER_SIZE = _FRAME_PREFIX.size + _FRAME_CRC.size
_RECORD_LEN = struct.Struct(">I")

#: Guard against absurd body lengths produced by corrupted headers.
_MAX_FRAME_BYTES = 64 * 1024 * 1024


@dataclass(slots=True)
class ShipFrame:
    """One shipped batch: consecutive journal records plus fencing data.

    Built once per send and once per receive, so slotted and not frozen
    (construction 0.5 → 0.2 µs).
    """

    #: Dense per-link sequence number; the standby acks cumulatively.
    sequence: int
    #: The shipper's lease epoch when the frame was built (fencing token).
    epoch: int
    #: Encoded journal records, in append order.
    records: Tuple[bytes, ...]

    @property
    def record_count(self) -> int:
        return len(self.records)


def encode_frame(frame: ShipFrame) -> bytes:
    """Serialize a frame to its checksummed wire format.

    The CRC is computed over the header prefix (sequence, epoch, body
    length) *and* the body: the sequence and the fencing epoch are
    integrity-protected, so a bit flip in either cannot masquerade as a
    different valid frame or poison the standby's fencing floor.
    """
    body = b"".join(
        _RECORD_LEN.pack(len(record)) + record for record in frame.records
    )
    prefix = _FRAME_PREFIX.pack(frame.sequence, frame.epoch, len(body))
    crc = zlib.crc32(body, zlib.crc32(prefix))
    return prefix + _FRAME_CRC.pack(crc) + body


def decode_frame(data: bytes) -> Optional[ShipFrame]:
    """Parse one wire frame; ``None`` on any structural or CRC failure."""
    if len(data) < _FRAME_HEADER_SIZE:
        return None
    sequence, epoch, length = _FRAME_PREFIX.unpack_from(data, 0)
    (crc,) = _FRAME_CRC.unpack_from(data, _FRAME_PREFIX.size)
    if length > _MAX_FRAME_BYTES or _FRAME_HEADER_SIZE + length != len(data):
        return None
    body = data[_FRAME_HEADER_SIZE:]
    if zlib.crc32(body, zlib.crc32(data[: _FRAME_PREFIX.size])) != crc:
        return None
    records: List[bytes] = []
    offset = 0
    while offset < len(body):
        if offset + _RECORD_LEN.size > len(body):
            return None
        (record_len,) = _RECORD_LEN.unpack_from(body, offset)
        offset += _RECORD_LEN.size
        if offset + record_len > len(body):
            return None
        records.append(body[offset : offset + record_len])
        offset += record_len
    return ShipFrame(sequence=sequence, epoch=epoch, records=tuple(records))


class SimulatedLink:
    """Deterministic point-to-point link with seeded fault injection."""

    def __init__(
        self,
        streams: Optional[RandomStreams] = None,
        delay: float = 0.005,
    ):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"link delay must be non-negative, got {delay}")
        # The "link-faults" stream is asked for at the first corrupted
        # frame: a link that never corrupts never loads numpy.
        self._streams = streams if streams is not None else RandomStreams()
        self.delay = delay
        #: ``(deliver_at, order, wire_bytes)`` min-heap of in-flight frames.
        self._in_flight: List[Tuple[float, int, bytes]] = []
        self._order = 0
        # -- pending fault state -----------------------------------------
        self._drop_next = 0
        self._corrupt_next = 0
        self._reorder_next = 0
        self._delay_extra = 0.0
        self._delay_until = 0.0
        # -- counters ----------------------------------------------------
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_reordered = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Fault hooks (driven by the injector / harness)
    # ------------------------------------------------------------------
    def drop_next(self, count: int = 1) -> None:
        """The next ``count`` sends vanish on the wire."""
        if count < 1:
            raise ValueError(f"drop count must be >= 1, got {count}")
        self._drop_next += count

    def corrupt_next(self, count: int = 1) -> None:
        """The next ``count`` sends have one seeded bit flipped."""
        if count < 1:
            raise ValueError(f"corrupt count must be >= 1, got {count}")
        self._corrupt_next += count

    def reorder_next(self, count: int = 1) -> None:
        """The next ``count`` sends are delayed behind their successors."""
        if count < 1:
            raise ValueError(f"reorder count must be >= 1, got {count}")
        self._reorder_next += count

    def add_delay(self, extra: float, until: float) -> None:
        """Every send before ``until`` pays ``extra`` additional latency."""
        if not extra > 0:
            raise ValueError(f"extra delay must be positive, got {extra}")
        self._delay_extra = extra
        self._delay_until = until

    # ------------------------------------------------------------------
    def send(self, payload: bytes, now: float) -> bool:
        """Put one wire frame on the link; False when a drop fault ate it."""
        self.frames_sent += 1
        self.bytes_sent += len(payload)
        if self._drop_next > 0:
            self._drop_next -= 1
            self.frames_dropped += 1
            return False
        if self._corrupt_next > 0:
            self._corrupt_next -= 1
            self.frames_corrupted += 1
            payload = self._flip_bit(payload)
        delay = self.delay
        if now < self._delay_until:
            delay += self._delay_extra
        if self._reorder_next > 0:
            # Held back long enough to land behind the next regular send.
            self._reorder_next -= 1
            self.frames_reordered += 1
            delay += 2 * self.delay if self.delay > 0 else 1e-6
        heapq.heappush(self._in_flight, (now + delay, self._order, payload))
        self._order += 1
        return True

    def _flip_bit(self, payload: bytes) -> bytes:
        if not payload:
            return payload
        rng = self._streams.stream("link-faults")
        position = int(rng.integers(0, len(payload)))
        bit = 1 << int(rng.integers(0, 8))
        mutated = bytearray(payload)
        mutated[position] ^= bit
        return bytes(mutated)

    def deliver_due(self, now: float) -> List[bytes]:
        """Frames whose delivery time has arrived, in delivery order."""
        due: List[bytes] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            _at, _order, payload = heapq.heappop(self._in_flight)
            self.frames_delivered += 1
            due.append(payload)
        return due

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedLink(delay={self.delay:g}, in_flight={self.in_flight}, "
            f"sent={self.frames_sent})"
        )
