"""Worker-to-worker rendezvous: tagged exchanges over queues + shm.

Every worker owns one inbox queue (driver-created) and one shared-memory
arena (:mod:`repro.parallel.shm`).  All collective traffic reduces to one
primitive, :meth:`PeerChannel.exchange`: post one message (a list of
payloads, shared or per destination) to each of a set of peers, collect
one message from each of another set of peers, acknowledge shared-memory
receipts, and reclaim the arena.  A collective makes one exchange per
call, so a worker sends at most one message to each peer worker per
collective.

Ordering and deadlock freedom rest on the SPMD structure of the epochs:
every worker executes the same global sequence of collectives, so any two
workers see their *common* operations in the same relative order.  Tags
are ``(group_key, sequence)`` pairs where the per-``group_key`` sequence
counter advances identically on every participant; messages arriving
early (a peer racing ahead on an unrelated group) are stashed until their
tag is wanted.  Within one exchange a worker posts **all** outgoing
messages before blocking on receives, so cyclic waits cannot form.  The
tag/stash machinery lives in :class:`ChannelBase` so the TCP transport
(:mod:`repro.parallel.tcp`) shares the exact same exchange semantics.

Blocking receives are governed by a **no-progress** timeout
(``REPRO_PARALLEL_TIMEOUT`` seconds, default 120): each worker bumps a
shared heartbeat counter on every exchange (and once per resident-fit
epoch), and a receive only raises :class:`ChannelTimeout` when the
awaited peer's counter has not advanced for the whole window.  A slow but
healthy epoch keeps its peers patient; a dead or deadlocked peer
surfaces within one window instead of hanging the run.
"""

from __future__ import annotations

import os
import queue
from multiprocessing import shared_memory
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.analysis import sanitize as _sanitize
from repro.obs import spans as _spans
from repro.parallel.shm import (
    Arena,
    INLINE_MAX,
    decode_payload,
    desc_needs_ack,
    encode_payload,
)

__all__ = ["ChannelBase", "PeerChannel", "ChannelTimeout",
           "default_timeout", "default_backoff", "per_destination"]

#: What one exchange posts: a single ``(key, payload)`` list for every
#: destination, or a list per destination worker.
Item = Tuple[Any, Any]
Posts = Union[Sequence[Item], Mapping[int, Sequence[Item]]]


class ChannelTimeout(RuntimeError):
    """A peer made no progress in time (deadlock or dead worker)."""


def default_timeout() -> float:
    return float(os.environ.get("REPRO_PARALLEL_TIMEOUT", "120"))


def default_backoff() -> float:
    """Base seconds for exponential backoff (TCP dial retries and the
    driver's restart delays), via ``REPRO_PARALLEL_BACKOFF``."""
    return float(os.environ.get("REPRO_PARALLEL_BACKOFF", "0.05"))


def per_destination(items: Posts, send_to: Sequence[int]
                    ) -> List[Sequence[Item]]:
    """The list each worker in ``send_to`` is posted, in order."""
    if isinstance(items, Mapping):
        return [items[w] for w in send_to]
    return [items] * len(send_to)


#: Granularity of blocking waits: receives poll in slices this long so
#: they can consult the peer heartbeat between slices.
WAIT_SLICE = 0.25


class ChannelBase:
    """Tag sequencing, out-of-order stash, and heartbeat accounting.

    Both transports (queues+shm and TCP sockets) subclass this: the
    ``(group_key, sequence)`` tag discipline -- and therefore the fixed
    fold order of every reduction built on top -- is identical, which is
    what makes the transports bit-interchangeable.
    """

    def __init__(self, worker_id: int, timeout: Optional[float] = None,
                 heartbeat=None):
        self.wid = worker_id
        self.timeout = default_timeout() if timeout is None else timeout
        self.heartbeat = heartbeat
        self._stash: Dict[Tuple, Any] = {}
        self._seq: Dict[Any, int] = {}
        #: transport-level traffic counters (reported by
        #: :meth:`ProcessBackend.stats`)
        self.bytes_sent = 0
        self.nexchanges = 0
        #: the worker's :class:`repro.parallel.faults.FaultPlan`, when a
        #: fault plan is active (set by ``_worker_main``); consulted at
        #: the exchange injection point by both transports.
        self.faults = None

    def _inject_exchange_fault(self) -> int:
        """Named injection point: start of every exchange.

        Returns the 0-based index of the exchange about to run (the
        pre-increment ``nexchanges``) and executes any inline fault --
        kill/hang/delay -- pinned to it.  Frame-level faults
        (drop/corrupt) are *not* executed here; the TCP transport asks
        ``faults.frame_fault(index)`` for those when it builds the
        outbound frame.
        """
        xi = self.nexchanges
        if self.faults is not None:
            self.faults.on_exchange(xi)
        return xi

    def _tag(self, gkey) -> Tuple:
        n = self._seq.get(gkey, 0)
        self._seq[gkey] = n + 1
        return (gkey, n)

    def touch(self) -> None:
        """Advance this worker's shared progress counter (single writer)."""
        hb = self.heartbeat
        if hb is not None:
            hb[self.wid] += 1

    def _peer_progress(self, src: int) -> Optional[int]:
        hb = self.heartbeat
        return None if hb is None else hb[src]

    def _observe_arrival(self, msg) -> None:
        """Sanitizer tap: every frame pulled off the transport, in
        arrival order (stash hits were observed when first read)."""
        san = _sanitize.ACTIVE
        if san is not None:
            san.observe_tag(self.wid, msg[2], msg[1], kind=msg[0])

    def _timeout_error(self, src: int, what: str) -> ChannelTimeout:
        return ChannelTimeout(
            f"worker {self.wid} saw no progress from worker {src} for "
            f"{self.timeout}s while waiting for {what} "
            "(deadlocked or dead peer?)"
        )

    @staticmethod
    def _span_label(gkey) -> str:
        """A short human label for an exchange span (the group kind)."""
        if isinstance(gkey, tuple) and gkey:
            return str(gkey[0])
        return str(gkey)


class PeerChannel(ChannelBase):
    """One worker's endpoint of the queue + shared-memory exchange fabric."""

    def __init__(
        self,
        worker_id: int,
        inboxes: Sequence,
        arena_names: Sequence[str],
        timeout: Optional[float] = None,
        inline_max: int = INLINE_MAX,
        heartbeat=None,
    ):
        super().__init__(worker_id, timeout=timeout, heartbeat=heartbeat)
        self.inboxes = list(inboxes)
        self.inline_max = inline_max
        self.arena = Arena(shared_memory.SharedMemory(
            name=arena_names[worker_id]))
        self._arena_names = list(arena_names)
        self._peer_shms: Dict[int, shared_memory.SharedMemory] = {}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _peer_buf(self, w: int):
        shm = self._peer_shms.get(w)
        if shm is None:
            shm = shared_memory.SharedMemory(name=self._arena_names[w])
            self._peer_shms[w] = shm
        return shm.buf

    def _recv(self, kind: str, tag, src: int):
        key = (kind, tag, src)
        hit = self._stash.pop(key, None)
        if hit is not None:
            return hit
        inbox = self.inboxes[self.wid]
        slice_t = min(self.timeout, WAIT_SLICE) if self.timeout else WAIT_SLICE
        waited = 0.0
        last = self._peer_progress(src)
        while True:
            try:
                msg = inbox.get(timeout=slice_t)
            except queue.Empty:
                now = self._peer_progress(src)
                if now is not None and now != last:
                    last, waited = now, 0.0
                    continue
                waited += slice_t
                if waited >= self.timeout:
                    raise self._timeout_error(
                        src, f"{kind!r} {tag}") from None
                continue
            self._observe_arrival(msg)
            mkey = (msg[0], msg[1], msg[2])
            if mkey == key:
                return msg
            self._stash[mkey] = msg

    # ------------------------------------------------------------------ #
    # the one primitive
    # ------------------------------------------------------------------ #
    def exchange(
        self,
        gkey,
        items: Posts,
        send_to: Sequence[int],
        recv_from: Sequence[int],
    ) -> Dict[int, List[Tuple[Any, Any]]]:
        """Post one message to every worker in ``send_to``; collect one
        message from each worker in ``recv_from``.  Returns
        ``{src_worker: [(key, payload), ...]}`` with decoded private
        payloads.

        ``items`` is either one list of ``(key, payload)`` pairs posted
        to every destination, or a mapping from destination worker to
        that destination's own list.  A payload object posted to several
        destinations is written into the arena once.

        Participants must call with the same ``gkey`` in the same
        relative order; the tag sequence does the rest.  Arena space and
        ephemeral segments used by ``items`` are reclaimed before
        returning (receivers acknowledge shared-memory receipts).
        """
        self._inject_exchange_fault()
        self.touch()
        self.nexchanges += 1
        # When tracing, the one span per exchange carries the phase split
        # (serialize / wait / copy seconds) in its meta; the clock reads
        # wrap whole blocks, not per-item work, to keep overhead flat.
        rec = _spans.ACTIVE
        t_start = rec.clock() if rec is not None else 0.0
        ser_s = wait_s = copy_s = 0.0
        sent = 0
        tag = self._tag(gkey)
        ephemerals: List[shared_memory.SharedMemory] = []
        mark = self.arena.ptr
        ack_from: List[int] = []
        if send_to:
            t0 = rec.clock() if rec is not None else 0.0
            encoded: Dict[int, Tuple] = {}
            posts = []
            for w, posted in zip(send_to, per_destination(items, send_to)):
                descs = []
                need_ack = False
                for key, obj in posted:
                    desc = encoded.get(id(obj))
                    if desc is None:
                        desc = encode_payload(self.arena, obj, ephemerals,
                                              self.inline_max)
                        encoded[id(obj)] = desc
                    need_ack = need_ack or desc_needs_ack(desc)
                    descs.append((key, desc))
                    sent += _desc_nbytes(desc)
                posts.append((w, descs))
                if need_ack:
                    ack_from.append(w)
            if rec is not None:
                ser_s = rec.clock() - t0
            for w, descs in posts:
                self.inboxes[w].put(("d", tag, self.wid, descs))
            self.bytes_sent += sent
        out: Dict[int, List[Tuple[Any, Any]]] = {}
        for w in recv_from:
            if rec is None:
                msg = self._recv("d", tag, w)
            else:
                t0 = rec.clock()
                msg = self._recv("d", tag, w)
                wait_s += rec.clock() - t0
            descs_w = msg[3]
            t0 = rec.clock() if rec is not None else 0.0
            decoded = [
                (key, decode_payload(desc, self._peer_buf(w)))
                for key, desc in descs_w
            ]
            if rec is not None:
                copy_s += rec.clock() - t0
            out[w] = decoded
            if any(desc_needs_ack(desc) for _, desc in descs_w):
                self.inboxes[w].put(("a", tag, self.wid))
        if ack_from:
            t0 = rec.clock() if rec is not None else 0.0
            for w in ack_from:
                self._recv("a", tag, w)
            if rec is not None:
                wait_s += rec.clock() - t0
        self.arena.ptr = mark
        for seg in ephemerals:
            seg.close()
            seg.unlink()
        if rec is not None:
            rec.record(
                "exchange", "xchg", t_start, rec.clock(),
                (self._span_label(gkey), ser_s, wait_s, copy_s, sent),
            )
        return out

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self.arena.close()
        for shm in self._peer_shms.values():
            shm.close()
        self._peer_shms.clear()


def _desc_nbytes(desc: Tuple) -> int:
    """Payload bytes a descriptor stands for (inline or in shm)."""
    kind = desc[0]
    if kind == "none":
        return 0
    if kind == "inl":
        return int(desc[1].nbytes)
    if kind == "arr":
        import numpy as np

        _, shape, dtype, _, _ = desc
        n = 1
        for s in shape:
            n *= int(s)
        return n * np.dtype(dtype).itemsize
    if kind == "csr":
        return sum(_desc_nbytes(sub) for sub in desc[2:5])
    return 0
