"""Bounded priority queue with per-client fairness (the scheduler's intake).

Ordering is three-level and fully deterministic:

1. **Priority** -- higher ``priority`` values pop first (the scheduler's
   submit API defaults everyone to 0).
2. **Client fairness** -- among equal priorities, clients take strict turns
   in round-robin order (first submission order seeds the rotation), so one
   chatty client cannot starve the rest of the band even when it keeps the
   queue saturated.
3. **FIFO** -- within one client and priority, submission order.

The queue is *bounded*: :meth:`FairQueue.push` raises
:class:`QueueFullError` at ``max_depth``, and the scheduler turns that into
its reject-or-wait backpressure policy.  The structure is plain synchronous
code (the asyncio scheduler serializes access on its event loop); keeping it
loop-free makes it directly unit-testable.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generic, Optional, TypeVar

__all__ = ["QueueFullError", "QueuedItem", "FairQueue"]

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """The bounded queue is at ``max_depth``; the submission was not enqueued."""


@dataclass
class QueuedItem(Generic[T]):
    """One queued unit of work: payload plus its scheduling coordinates."""

    client: str
    priority: int
    seq: int
    payload: T = field(repr=False)


class FairQueue(Generic[T]):
    """Priority + per-client round-robin queue bounded at ``max_depth``."""

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        #: priority -> (client -> FIFO of items); the per-priority mapping's
        #: key order *is* the round-robin rotation (served clients re-enter
        #: at the back).
        self._buckets: Dict[int, "OrderedDict[str, Deque[QueuedItem[T]]]"] = {}
        self._size = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.max_depth

    def push(self, client: str, payload: T, priority: int = 0) -> QueuedItem[T]:
        """Enqueue one item; raises :class:`QueueFullError` at ``max_depth``."""
        if self.full:
            raise QueueFullError(
                f"queue is full ({self._size}/{self.max_depth} items)"
            )
        self._seq += 1
        item = QueuedItem(client=client, priority=priority, seq=self._seq, payload=payload)
        bucket = self._buckets.setdefault(priority, OrderedDict())
        if client not in bucket:
            bucket[client] = deque()
        bucket[client].append(item)
        self._size += 1
        return item

    def pop(self) -> Optional[QueuedItem[T]]:
        """Dequeue the next item by (priority, client rotation, FIFO); ``None`` if empty."""
        if not self._size:
            return None
        priority = max(self._buckets)
        bucket = self._buckets[priority]
        client, fifo = next(iter(bucket.items()))
        item = fifo.popleft()
        # Rotate: the served client goes to the back of its priority band
        # (or leaves it entirely when drained).
        del bucket[client]
        if fifo:
            bucket[client] = fifo
        if not bucket:
            del self._buckets[priority]
        self._size -= 1
        return item
