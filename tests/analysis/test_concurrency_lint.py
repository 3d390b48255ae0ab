"""Golden tests for the LOCK001–LOCK004 lock-discipline lint rules."""

import ast
import textwrap

import pytest

from repro.analysis import RULES
from repro.analysis.concurrency import LOCK_RULES
from repro.analysis.concurrency.lint_locks import build_lock_models
from repro.analysis.lint import lint_source
from tests.helpers import fresh


def _lock_violations(source, path="models.py"):
    source = textwrap.dedent(source)
    return [v for v in lint_source(source, path) if v.rule.startswith("LOCK")]


def _models(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_lock_models(tree, "models.py")


class TestRuleCatalogue:
    def test_lock_rules_registered(self):
        assert set(LOCK_RULES) == {"LOCK001", "LOCK002", "LOCK003", "LOCK004"}
        for rule, description in LOCK_RULES.items():
            assert RULES[rule] == description

    @pytest.mark.parametrize(
        "first",
        [
            "import repro.analysis",
            "import repro.analysis.lint",
            "import repro.analysis.concurrency.lint_locks",
            "from repro.analysis.concurrency import LOCK_RULES",
            "from repro.serve import make_server",
        ],
    )
    def test_catalogue_is_complete_whatever_is_imported_first(self, first):
        rules = fresh(
            f"{first}\nimport json, repro.analysis\nprint(json.dumps(list(repro.analysis.RULES)))"
        )
        assert {"LOCK001", "LOCK002", "LOCK003", "LOCK004"} <= set(rules)


class TestLock001:
    RACY = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def bump(self):
                with self._lock:
                    self.value += 1

            def peek(self):
                return self.value
    """

    def test_read_outside_guard_is_flagged(self):
        violations = _lock_violations(self.RACY)
        assert [v.rule for v in violations] == ["LOCK001"]
        assert "Counter.value" in violations[0].message
        assert "read here without it" in violations[0].message
        assert "peek" in violations[0].message

    def test_write_outside_guard_is_flagged(self):
        violations = _lock_violations(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def reset(self):
                    self.value = 0
            """
        )
        assert [v.rule for v in violations] == ["LOCK001"]
        assert "written here without it" in violations[0].message

    def test_container_mutation_counts_as_write(self):
        violations = _lock_violations(
            """
            import threading

            class Journal:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = []

                def record(self, item):
                    with self._lock:
                        self._entries.append(item)

                def drop_all(self):
                    self._entries.clear()
            """
        )
        # The call is both a write (the mutation) and a read (the
        # attribute lookup) of ``_entries`` — both unguarded.
        assert {v.rule for v in violations} == {"LOCK001"}
        assert any("written here without it" in v.message for v in violations)
        assert all("_entries" in v.message for v in violations)

    def test_consistent_discipline_is_clean(self):
        assert _lock_violations(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def peek(self):
                    with self._lock:
                        return self.value
            """
        ) == []

    def test_locked_suffix_methods_are_exempt(self):
        # ``*_locked`` helpers run with the guard already held by their
        # caller — the convention the circuit breaker uses.
        assert _lock_violations(
            """
            import threading

            class Breaker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = "closed"

                def trip(self):
                    with self._lock:
                        self._transition_locked()

                def _transition_locked(self):
                    self.state = "open"
            """
        ) == []

    def test_manual_acquire_release_models_held_region(self):
        # Writes between acquire()/release() count as locked, so the
        # manual pattern agrees with the ``with`` pattern under LOCK001.
        violations = _lock_violations(
            """
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    self._lock.acquire()
                    try:
                        self.value += 1
                    finally:
                        self._lock.release()

                def also(self):
                    with self._lock:
                        self.value -= 1
            """
        )
        assert violations == []

    def test_nested_function_bodies_are_skipped(self):
        # A thread body's locking context is unknowable statically.
        assert _lock_violations(
            """
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def spawn(self):
                    def body():
                        self.value = 99
                    return body
            """
        ) == []

    def test_init_writes_are_construction_time(self):
        # __init__ assigning without the lock is not a violation.
        assert _lock_violations(
            """
            import threading

            class Seeded:
                def __init__(self, seed):
                    self._lock = threading.Lock()
                    self.value = seed
                    self.extra = seed * 2

                def bump(self):
                    with self._lock:
                        self.value += 1
            """
        ) == []


class TestLock002:
    ABBA = """
        import threading

        class Transfer:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def ab(self):
                with self._a:
                    with self._b:
                        pass

            def ba(self):
                with self._b:
                    with self._a:
                        pass
    """

    def test_abba_flags_both_sites(self):
        violations = _lock_violations(self.ABBA)
        assert [v.rule for v in violations] == ["LOCK002", "LOCK002"]
        lines = sorted(v.line for v in violations)
        assert lines[0] != lines[1]
        for v in violations:
            assert "ABBA deadlock risk" in v.message

    def test_consistent_order_is_clean(self):
        assert _lock_violations(
            """
            import threading

            class Transfer:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """
        ) == []

    def test_manual_acquire_participates_in_ordering(self):
        violations = _lock_violations(
            """
            import threading

            class Mixed:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ab(self):
                    with self._a:
                        self._b.acquire()
                        try:
                            pass
                        finally:
                            self._b.release()

                def ba(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        assert [v.rule for v in violations] == ["LOCK002", "LOCK002"]


class TestLock003:
    def test_sleep_under_lock(self):
        violations = _lock_violations(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(1)
            """
        )
        assert [v.rule for v in violations] == ["LOCK003"]
        assert "sleep while holding '_lock'" in violations[0].message

    def test_from_time_import_sleep_alias(self):
        violations = _lock_violations(
            """
            import threading
            from time import sleep as snooze

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        snooze(1)
            """
        )
        assert [v.rule for v in violations] == ["LOCK003"]

    def test_open_and_write_under_lock(self):
        violations = _lock_violations(
            """
            import threading

            class Sink:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._file = None

                def emit(self, line):
                    with self._lock:
                        fh = open("out.log", "a")
                        fh.write(line)
            """
        )
        rules = [v.rule for v in violations]
        assert rules.count("LOCK003") == 2
        messages = " | ".join(v.message for v in violations)
        assert "open() while holding" in messages
        assert ".write() I/O while holding" in messages

    def test_result_without_timeout(self):
        violations = _lock_violations(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()

                def block(self, future):
                    with self._lock:
                        return future.result()
            """
        )
        assert [v.rule for v in violations] == ["LOCK003"]
        assert "without a timeout" in violations[0].message

    def test_result_with_timeout_is_clean(self):
        assert _lock_violations(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()

                def block(self, future):
                    with self._lock:
                        return future.result(timeout=0.5)
            """
        ) == []

    def test_blocking_outside_lock_is_clean(self):
        assert _lock_violations(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        pass
                    time.sleep(1)
            """
        ) == []


class TestLock004:
    def test_manual_acquire_without_finally(self):
        violations = _lock_violations(
            """
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
                    self.work = 1
                    self._lock.release()
            """
        )
        assert [v.rule for v in violations] == ["LOCK004"]
        assert "self._lock.acquire()" in violations[0].message
        assert "prefer 'with self._lock:'" in violations[0].message

    def test_acquire_inside_try_finally_is_clean(self):
        assert _lock_violations(
            """
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()

                def good(self):
                    try:
                        self._lock.acquire()
                        self.work = 1
                    finally:
                        self._lock.release()
            """
        ) == []

    def test_acquire_as_sibling_before_try_is_clean(self):
        # The canonical ``acquire(); try: ... finally: release()`` shape.
        assert _lock_violations(
            """
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()

                def good(self):
                    self._lock.acquire()
                    try:
                        self.work = 1
                    finally:
                        self._lock.release()
            """
        ) == []

    def test_lockish_names_outside_classes(self):
        violations = _lock_violations(
            """
            import threading

            GLOBAL_LOCK = threading.Lock()

            def grab():
                GLOBAL_LOCK.acquire()
            """
        )
        assert [v.rule for v in violations] == ["LOCK004"]
        assert "GLOBAL_LOCK.acquire()" in violations[0].message


class TestPragmasAndExemptions:
    def test_allow_pragma_suppresses(self):
        violations = _lock_violations(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0)  # lint: allow[LOCK003] — test fixture
            """
        )
        assert violations == []

    def test_pragma_is_rule_specific(self):
        violations = _lock_violations(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0)  # lint: allow[LOCK001] — wrong rule
            """
        )
        assert [v.rule for v in violations] == ["LOCK003"]

    def test_concurrency_package_is_exempt(self):
        # The detector's own substrate manipulates raw locks by design.
        source = """
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
        """
        path = "src/repro/analysis/concurrency/locks.py"
        assert _lock_violations(source, path) == []
        assert _lock_violations(source) != []


class TestLockModels:
    def test_model_infers_locks_and_guards(self):
        models = _models(TestLock001.RACY)
        assert set(models) == {"Counter"}
        model = models["Counter"]
        assert model.locks == {"_lock"}
        assert model.guarded_attrs() == {"value": ("_lock",)}
        payload = model.to_dict()
        assert payload["locks"] == ["_lock"]
        assert payload["guarded"] == {"value": ["_lock"]}

    def test_make_lock_factory_recognized(self):
        models = _models(
            """
            from repro.analysis.concurrency.locks import make_lock

            class Served:
                def __init__(self):
                    self._lock = make_lock("serve.test")
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1
            """
        )
        assert models["Served"].locks == {"_lock"}

    def test_lock_named_init_parameter_recognized(self):
        models = _models(
            """
            class Child:
                def __init__(self, shared_lock):
                    self._lock = shared_lock
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """
        )
        assert models["Child"].locks == {"_lock"}

    def test_classes_without_locks_have_no_model(self):
        assert _models(
            """
            class Plain:
                def __init__(self):
                    self.value = 0
            """
        ) == {}
