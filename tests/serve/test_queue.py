"""Tests for the bounded fair intake queue (repro.serve.queue)."""

import pytest

from repro.serve import FairQueue, QueueFullError


def drain(queue):
    items = []
    while True:
        item = queue.pop()
        if item is None:
            return items
        items.append(item)


class TestOrdering:
    def test_fifo_within_one_client(self):
        queue = FairQueue()
        for payload in ("a", "b", "c"):
            queue.push("alice", payload)
        assert [item.payload for item in drain(queue)] == ["a", "b", "c"]

    def test_higher_priority_pops_first(self):
        queue = FairQueue()
        queue.push("alice", "low", priority=0)
        queue.push("alice", "high", priority=5)
        queue.push("alice", "mid", priority=1)
        assert [item.payload for item in drain(queue)] == ["high", "mid", "low"]

    def test_round_robin_between_clients_within_a_priority(self):
        queue = FairQueue()
        queue.push("alice", "a1")
        queue.push("alice", "a2")
        queue.push("bob", "b1")
        queue.push("alice", "a3")
        queue.push("bob", "b2")
        # A served client rotates to the back: alice, bob, alice, bob, alice.
        assert [item.payload for item in drain(queue)] == [
            "a1", "b1", "a2", "b2", "a3",
        ]

    def test_priority_beats_fairness(self):
        queue = FairQueue()
        queue.push("alice", "a1", priority=0)
        queue.push("bob", "urgent", priority=1)
        assert queue.pop().payload == "urgent"
        assert queue.pop().payload == "a1"

    def test_sequence_numbers_are_global_submission_order(self):
        queue = FairQueue()
        queue.push("alice", "a")
        queue.push("bob", "b")
        items = drain(queue)
        assert [item.seq for item in items] == sorted(item.seq for item in items)


class TestBounds:
    def test_push_raises_when_full(self):
        queue = FairQueue(max_depth=2)
        queue.push("alice", "a")
        queue.push("bob", "b")
        assert queue.full
        with pytest.raises(QueueFullError):
            queue.push("carol", "c")
        # The rejected push leaves the queue untouched.
        assert len(queue) == 2

    def test_pop_frees_capacity(self):
        queue = FairQueue(max_depth=1)
        queue.push("alice", "a")
        with pytest.raises(QueueFullError):
            queue.push("alice", "b")
        assert queue.pop().payload == "a"
        queue.push("alice", "b")
        assert queue.pop().payload == "b"

    def test_depth_total_and_per_client(self):
        queue = FairQueue()
        queue.push("alice", "a1")
        queue.push("alice", "a2")
        queue.push("bob", "b1")
        assert len(queue) == 3
        popped = [queue.pop().client for _ in range(3)]
        assert sorted(popped) == ["alice", "alice", "bob"]
        assert len(queue) == 0

    def test_empty_queue_pops_none(self):
        queue = FairQueue()
        assert queue.pop() is None
        assert len(queue) == 0
        assert not queue.full
