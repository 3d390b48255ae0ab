"""Tests for the traced-lock runtime, the Eraser race detector, and
wait-for-graph deadlock detection (``repro.analysis.concurrency``)."""

import threading

import pytest

from repro.analysis.concurrency import (
    DeadlockError,
    RaceDetector,
    TracedLock,
    instrument_class,
    lock_tracing,
    make_lock,
    race_detection,
    tracing_enabled,
)
from repro.analysis.concurrency.locks import (
    clear_tracing_state,
    current_lock_names,
    current_lockset,
    find_deadlock,
    recorded_deadlocks,
)
from repro.analysis.concurrency.races import (
    active_detector,
    install_detector,
    uninstall_detector,
    uninstrument_class,
)


@pytest.fixture(autouse=True)
def _clean_state():
    clear_tracing_state()
    yield
    clear_tracing_state()


class TestMakeLock:
    def test_disabled_returns_plain_stdlib_locks(self):
        assert not tracing_enabled()
        assert type(make_lock("t.plain")) is type(threading.Lock())

    def test_enabled_returns_traced_locks(self):
        with lock_tracing():
            assert tracing_enabled()
            assert isinstance(make_lock("t.traced"), TracedLock)
        assert not tracing_enabled()

    def test_lock_tracing_restores_previous_state(self):
        with lock_tracing():
            with lock_tracing():
                assert tracing_enabled()
            assert tracing_enabled()  # outer block still active
        assert not tracing_enabled()


class TestTracedLock:
    def test_acquire_release_and_lockset(self):
        lock = TracedLock("t.basic")
        assert current_lock_names() == ()
        with lock:
            assert lock.locked()
            assert lock.owner == threading.get_ident()
            assert current_lock_names() == ("t.basic",)
            assert id(lock) in current_lockset()
        assert not lock.locked()
        assert lock.owner is None
        assert current_lock_names() == ()

    def test_nonblocking_acquire_fails_when_held(self):
        lock = TracedLock("t.nonblock")
        lock.acquire()
        try:
            results = []
            t = threading.Thread(
                target=lambda: results.append(lock.acquire(blocking=False))
            )
            t.start()
            t.join()
            assert results == [False]
        finally:
            lock.release()

    def test_blocking_acquire_times_out(self):
        lock = TracedLock("t.timeout")
        lock.acquire()
        try:
            results = []
            t = threading.Thread(
                target=lambda: results.append(lock.acquire(timeout=0.05))
            )
            t.start()
            t.join(timeout=5.0)
            assert results == [False]
        finally:
            lock.release()


class TestRaceDetector:
    class Racy:
        def __init__(self):
            self.value = 0

        def bump(self):
            self.value = self.value + 1

    class Guarded:
        def __init__(self, lock):
            self._lock = lock
            self.value = 0

        def bump(self):
            with self._lock:
                self.value = self.value + 1

    def _hammer(self, victim, threads=2, iterations=200):
        pool = [
            threading.Thread(
                target=lambda: [victim.bump() for _ in range(iterations)],
                name=f"hammer-{n}",
            )
            for n in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

    def test_racy_class_is_caught(self):
        with race_detection() as detector:
            instrument_class(self.Racy)
            try:
                self._hammer(self.Racy())
            finally:
                uninstrument_class(self.Racy)
            races = detector.races()
        assert races
        report = races[0]
        assert report.cls == "Racy"
        assert report.field == "value"
        # Both sides of the report carry thread identity and a stack.
        assert report.first.thread and report.second.thread
        assert report.second.stack
        payload = report.to_dict()
        assert payload["class"] == "Racy"
        assert set(payload["first"]) == {"thread", "write", "locks", "stack"}
        assert "candidate race on Racy.value" in str(report)

    def test_guarded_class_is_clean(self):
        lock = TracedLock("t.guarded")
        with race_detection() as detector:
            instrument_class(self.Guarded)
            try:
                self._hammer(self.Guarded(lock))
            finally:
                uninstrument_class(self.Guarded)
            assert detector.races() == []

    def test_unlocked_write_after_exclusive_reports_immediately(self):
        with race_detection() as detector:
            instrument_class(self.Racy)
            try:
                victim = self.Racy()  # EXCLUSIVE: owned by this thread

                def intrude():
                    victim.value = 5  # pure write, no prior read

                t = threading.Thread(target=intrude, name="intruder")
                t.start()
                t.join()
            finally:
                uninstrument_class(self.Racy)
            races = detector.races()
        assert len(races) == 1
        assert "exclusive phase" in races[0].first.thread
        assert races[0].second.thread == "intruder"

    def test_exclude_suppresses_fields(self):
        with race_detection() as detector:
            instrument_class(self.Racy, exclude=("value",))
            try:
                self._hammer(self.Racy())
            finally:
                uninstrument_class(self.Racy)
            assert detector.races() == []

    def test_each_field_reported_once(self):
        with race_detection() as detector:
            instrument_class(self.Racy)
            try:
                victim = self.Racy()
                self._hammer(victim, threads=4, iterations=300)
                per_field = [
                    (r.cls, r.field, id(victim)) for r in detector.races()
                ]
            finally:
                uninstrument_class(self.Racy)
        assert len(per_field) == len(set(per_field))

    def test_no_detector_means_no_ops(self):
        assert active_detector() is None
        instrument_class(self.Racy)
        try:
            self._hammer(self.Racy())  # must not raise or record anything
        finally:
            uninstrument_class(self.Racy)

    def test_uninstrument_restores_class(self):
        original_setattr = self.Racy.__setattr__
        instrument_class(self.Racy)
        assert self.Racy.__setattr__ is not original_setattr
        instrument_class(self.Racy)  # idempotent: no double wrap
        uninstrument_class(self.Racy)
        assert self.Racy.__setattr__ is original_setattr
        assert "_repro_race_originals" not in self.Racy.__dict__

    def test_install_uninstall(self):
        detector = install_detector()
        try:
            assert active_detector() is detector
            assert isinstance(detector, RaceDetector)
        finally:
            uninstall_detector()
        assert active_detector() is None


def _abba(lock_a, lock_b):
    """Drive a real ABBA deadlock; returns the DeadlockErrors raised."""
    caught = []
    gate_a, gate_b = threading.Event(), threading.Event()

    def ab():
        try:
            with lock_a:
                gate_a.set()
                gate_b.wait(timeout=5.0)
                with lock_b:
                    pass
        except DeadlockError as err:
            caught.append(err)

    def ba():
        try:
            with lock_b:
                gate_b.set()
                gate_a.wait(timeout=5.0)
                with lock_a:
                    pass
        except DeadlockError as err:
            caught.append(err)

    threads = [threading.Thread(target=ab), threading.Thread(target=ba)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    return caught


class TestDeadlockDetection:
    def test_abba_raises_deadlock_error(self):
        caught = _abba(TracedLock("t.abba.a"), TracedLock("t.abba.b"))
        assert caught, "neither blocked thread detected the ABBA cycle"
        err = caught[0]
        assert "deadlock detected" in str(err)
        assert len(err.cycle) == 2
        cycles = recorded_deadlocks()
        assert cycles and cycles[0] == err.cycle

    def test_find_deadlock_none_for_idle_thread(self):
        assert find_deadlock(threading.get_ident()) is None
