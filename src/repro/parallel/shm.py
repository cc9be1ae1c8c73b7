"""Shared-memory payload transport: arenas and the array/CSR codec.

Workers exchange collective payloads through POSIX shared memory: each
worker owns one fixed-size **arena** segment (created by the driver,
write-only to its owner) plus, for oversized payloads, per-payload
**ephemeral** segments.  A payload travels as a small picklable
*descriptor* over the metadata queues while the bulk bytes go through
``/dev/shm``:

``('none',)``
    an empty contribution;
``('inl', obj)``
    small payloads ride inline in the queue message (pickle) -- scalars,
    loss terms, small weight partials;
``('arr', shape, dtype, seg, offset)``
    a dense block at ``offset`` of the sender's arena (``seg is None``)
    or of the named ephemeral segment;
``('csr', shape, indptr_desc, indices_desc, data_desc)``
    a :class:`~repro.sparse.csr.CSRMatrix` as its three arrays.

Receivers copy payloads out of the sender's segment immediately (the
sender reclaims arena space once every receiver acknowledges), so decoded
arrays are private to the receiving worker.

Driver commands travel the same way in the other direction: a
:class:`StagingArea` pickles each command with protocol 5, writes its
out-of-band array buffers into one driver-owned segment, and puts only
the small pickle plus the buffer offsets on the command queues; each
worker's :class:`StagedReader` copies the buffers out before use.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["Arena", "encode_payload", "decode_payload", "INLINE_MAX",
           "StagingArea", "StagedReader"]

#: Payloads at or below this many bytes travel inline in the queue
#: message instead of through shared memory (and need no ack).
INLINE_MAX = 16384

_ALIGN = 64


class Arena:
    """Bump allocator over one shared-memory segment.

    Only the owning worker writes; peers attach read-only and copy out.
    The owner resets the bump pointer after each exchange completes (the
    ack protocol in :mod:`repro.parallel.channel` guarantees every
    receiver has copied by then).
    """

    def __init__(self, shm: shared_memory.SharedMemory):
        self.shm = shm
        self.size = shm.size
        self.ptr = 0
        # Occupancy gauges the kernel profiler reads: the deepest bump
        # the arena ever reached and how many payloads spilled to
        # ephemeral segments because the arena was full.  Plain int
        # bookkeeping -- cheap enough to maintain unconditionally.
        self.high_water = 0
        self.spills = 0

    def alloc(self, nbytes: int) -> Optional[int]:
        """Offset of a fresh ``nbytes`` block, or ``None`` when full."""
        start = (self.ptr + _ALIGN - 1) // _ALIGN * _ALIGN
        if start + nbytes > self.size:
            self.spills += 1
            return None
        self.ptr = start + nbytes
        if self.ptr > self.high_water:
            self.high_water = self.ptr
        return start

    def reset(self) -> None:
        self.ptr = 0

    def close(self) -> None:
        self.shm.close()


def _encode_array(arena: Arena, arr: np.ndarray, ephemerals: List,
                  inline_max: int) -> Tuple:
    arr = np.asarray(arr)
    if arr.nbytes <= inline_max:
        # Always a private copy: multiprocessing.Queue pickles in a feeder
        # thread *after* put() returns, and the caller may overwrite the
        # source buffer (epoch workspaces) as soon as the exchange ends.
        return ("inl", arr.copy())
    offset = arena.alloc(arr.nbytes)
    if offset is not None:
        dst = np.ndarray(arr.shape, arr.dtype, buffer=arena.shm.buf,
                         offset=offset)
        np.copyto(dst, arr)
        return ("arr", arr.shape, arr.dtype.str, None, offset)
    # Arena full: spill to a per-payload ephemeral segment, unlinked by
    # the sender once every receiver has acknowledged its copy.
    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    ephemerals.append(seg)
    dst = np.ndarray(arr.shape, arr.dtype, buffer=seg.buf)
    np.copyto(dst, arr)
    return ("arr", arr.shape, arr.dtype.str, seg.name, 0)


def encode_payload(arena: Arena, obj: Any, ephemerals: List,
                   inline_max: int = INLINE_MAX) -> Tuple:
    """Encode a payload into a picklable descriptor (bulk bytes in shm).

    ``ephemerals`` collects overflow segments the caller must unlink
    after the exchange's acknowledgements arrive.
    """
    if obj is None:
        return ("none",)
    if isinstance(obj, CSRMatrix):
        return (
            "csr",
            obj.shape,
            _encode_array(arena, obj.indptr, ephemerals, inline_max),
            _encode_array(arena, obj.indices, ephemerals, inline_max),
            _encode_array(arena, obj.data, ephemerals, inline_max),
        )
    if isinstance(obj, np.ndarray):
        return _encode_array(arena, obj, ephemerals, inline_max)
    raise TypeError(
        f"cannot ship payload of type {type(obj).__name__} through "
        "shared memory (expected ndarray, CSRMatrix, or None)"
    )


def desc_needs_ack(desc: Tuple) -> bool:
    """Does this descriptor reference sender-owned shared memory?"""
    kind = desc[0]
    if kind == "arr":
        return True
    if kind == "csr":
        return any(sub[0] == "arr" for sub in desc[2:5])
    return False


def _decode_array(desc: Tuple, peer_buf) -> np.ndarray:
    kind = desc[0]
    if kind == "inl":
        return desc[1]
    _, shape, dtype, seg, offset = desc
    if seg is None:
        src = np.ndarray(shape, np.dtype(dtype), buffer=peer_buf,
                         offset=offset)
        return src.copy()
    eph = shared_memory.SharedMemory(name=seg)
    try:
        src = np.ndarray(shape, np.dtype(dtype), buffer=eph.buf)
        return src.copy()
    finally:
        eph.close()


def decode_payload(desc: Tuple, peer_buf) -> Any:
    """Decode a descriptor into a private object (copies out of shm).

    ``peer_buf`` is the sending worker's arena buffer (for ``seg is
    None`` references); ephemeral segments are attached by name.
    """
    kind = desc[0]
    if kind == "none":
        return None
    if kind == "csr":
        _, shape, d_indptr, d_indices, d_data = desc
        return CSRMatrix(
            _decode_array(d_indptr, peer_buf),
            _decode_array(d_indices, peer_buf),
            _decode_array(d_data, peer_buf),
            tuple(shape),
            validate=False,
        )
    return _decode_array(desc, peer_buf)


#: A staged command: ``(pickle, segment name or None, buffer spans)``.
Staged = Tuple[bytes, Optional[str], Tuple[Tuple[int, int], ...]]


class StagingArea:
    """Driver-owned segment carrying the array buffers of one command.

    :meth:`stage` pickles a command with protocol 5 (PEP 574): numpy
    arrays hand their contiguous buffers out of band, and those bytes
    are written into the segment instead of into the pickle, so every
    worker's command message stays small however large the arrays.  The
    segment is reused by the next command -- safe because the driver
    collects every worker's reply (and workers copy their buffers out
    on receipt) before it stages again.  It grows by replacement when a
    command needs more room, and :meth:`release` unlinks it.
    """

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None

    def stage(self, obj: Any) -> Staged:
        buffers: List[pickle.PickleBuffer] = []
        blob = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        if not buffers:
            return blob, None, ()
        raws = [b.raw() for b in buffers]
        spans = []
        end = 0
        for raw in raws:
            start = (end + _ALIGN - 1) // _ALIGN * _ALIGN
            spans.append((start, raw.nbytes))
            end = start + raw.nbytes
        shm = self._reserve(end)
        for (start, nbytes), raw in zip(spans, raws):
            shm.buf[start:start + nbytes] = raw
        return blob, shm.name, tuple(spans)

    def _reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        shm = self.shm
        if shm is None or shm.size < nbytes:
            grow = 0 if shm is None else 2 * shm.size
            self.release()
            shm = shared_memory.SharedMemory(create=True,
                                             size=max(nbytes, grow, 1))
            self.shm = shm
        return shm

    def release(self) -> None:
        shm, self.shm = self.shm, None
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class StagedReader:
    """Worker side of :class:`StagingArea`: rebuilds a staged command
    from private copies of its buffers."""

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None

    def load(self, staged: Staged) -> Any:
        blob, name, spans = staged
        buffers: List[bytearray] = []
        if name is not None:
            if self.shm is None or self.shm.name != name:
                self.close()
                self.shm = shared_memory.SharedMemory(name=name)
            buffers = _copies(self.shm.buf, spans)
        # repro-lint: disable=R7 -- the spawning driver's own command, as mp.Queue.get unpickles
        return pickle.loads(blob, buffers=buffers)

    def close(self) -> None:
        shm, self.shm = self.shm, None
        if shm is not None:
            shm.close()


def _copies(buf, spans: Sequence[Tuple[int, int]]) -> List[bytearray]:
    """Private copies of the staged buffers (the segment is reused)."""
    return [bytearray(buf[start:start + nbytes]) for start, nbytes in spans]
