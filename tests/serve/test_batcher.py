"""MicroBatcher: batch formation, result routing, failure semantics."""

import threading
import time

import pytest

from repro.serve import MicroBatcher


class Recorder:
    """Handler that records every flushed batch (and can block)."""

    def __init__(self, gate=None):
        self.batches = []
        self.flushes = []
        self.gate = gate
        self.busy = threading.Event()  # set once the handler first runs
        self.lock = threading.Lock()

    def __call__(self, items):
        self.busy.set()
        if self.gate is not None:
            self.gate.wait(timeout=5.0)
        with self.lock:
            self.batches.append(list(items))
        return [item * 2 for item in items]

    def on_flush(self, size, reason):
        self.flushes.append((size, reason))


class TestMicroBatcher:
    def test_flush_on_size(self):
        gate = threading.Event()
        handler = Recorder(gate=gate)
        with MicroBatcher(
            handler, max_batch_size=4, on_flush=handler.on_flush
        ) as batcher:
            # A blocker holds the worker on the gate, so the four submits
            # after it queue up and must be flushed together, by size.
            batcher.submit(-1)
            assert handler.busy.wait(timeout=5.0)
            futures = [batcher.submit(i) for i in range(4)]
            gate.set()
            assert [f.result(timeout=5.0) for f in futures] == [0, 2, 4, 6]
        sizes = [size for size, _ in handler.flushes]
        assert 4 in sizes
        assert any(reason == "size" for size, reason in handler.flushes if size == 4)

    def test_items_queued_while_busy_form_one_batch(self):
        gate = threading.Event()
        handler = Recorder(gate=gate)
        with MicroBatcher(
            handler, max_batch_size=8, on_flush=handler.on_flush
        ) as batcher:
            first = batcher.submit(0)
            # The worker takes [0] at once and blocks on the gate; the
            # submits made meanwhile queue up and form the next batch.
            assert handler.busy.wait(timeout=5.0)
            later = [batcher.submit(i) for i in (1, 2, 3)]
            gate.set()
            assert first.result(timeout=5.0) == 0
            assert [f.result(timeout=5.0) for f in later] == [2, 4, 6]
        assert handler.batches == [[0], [1, 2, 3]]
        assert handler.flushes == [(1, "drained"), (3, "drained")]

    def test_zero_wait_serves_singletons(self):
        handler = Recorder()
        with MicroBatcher(handler, max_batch_size=8) as batcher:
            assert batcher.submit(1).result(timeout=5.0) == 2
            assert batcher.submit(2).result(timeout=5.0) == 4

    def test_handler_exception_fails_the_batch_only(self):
        calls = []

        def handler(items):
            calls.append(list(items))
            if calls and calls[-1] == [13]:
                raise RuntimeError("boom")
            return list(items)

        with MicroBatcher(handler, max_batch_size=1) as batcher:
            bad = batcher.submit(13)
            with pytest.raises(RuntimeError, match="boom"):
                bad.result(timeout=5.0)
            # The worker survives a failing batch and keeps serving.
            assert batcher.submit(7).result(timeout=5.0) == 7

    def test_result_count_mismatch_is_an_error(self):
        gate, busy = threading.Event(), threading.Event()

        def handler(items):
            busy.set()
            gate.wait(timeout=5.0)
            return [1]

        with MicroBatcher(handler, max_batch_size=4) as b:
            # A one-item blocker holds the worker while all four queue up.
            b.submit(-1)
            assert busy.wait(timeout=5.0)
            futures = [b.submit(i) for i in range(4)]
            gate.set()
            with pytest.raises(RuntimeError, match="4 items"):
                futures[0].result(timeout=5.0)

    def test_close_drains_queue_and_rejects_new_work(self):
        gate = threading.Event()
        handler = Recorder(gate=gate)
        batcher = MicroBatcher(
            handler, max_batch_size=2, on_flush=handler.on_flush
        )
        futures = [batcher.submit(i) for i in range(5)]

        def release():
            time.sleep(0.05)
            gate.set()

        threading.Thread(target=release).start()
        batcher.close()
        assert [f.result(timeout=5.0) for f in futures] == [0, 2, 4, 6, 8]
        with pytest.raises(RuntimeError):
            batcher.submit(99)
        batcher.close()  # idempotent

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, max_batch_size=0)

    def test_concurrent_submitters_all_get_results(self):
        handler = Recorder()
        results = {}

        with MicroBatcher(handler, max_batch_size=8) as batcher:

            def client(i):
                results[i] = batcher.submit(i).result(timeout=5.0)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(20)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {i: i * 2 for i in range(20)}
        assert sum(len(b) for b in handler.batches) == 20
