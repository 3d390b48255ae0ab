"""Discipline linter: one fixture per rule, pragma suppression, clean tree."""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source


def rules_of(violations):
    return [v.rule for v in violations]


class TestRNG001:
    def test_global_numpy_rng_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        violations = lint_source(src, "mod.py")
        assert rules_of(violations) == ["RNG001"]
        assert violations[0].line == 2

    def test_seed_call_flagged(self):
        violations = lint_source("import numpy as np\nnp.random.seed(0)\n", "mod.py")
        assert rules_of(violations) == ["RNG001"]

    def test_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.normal(size=3)\n"
        assert lint_source(src, "mod.py") == []

    def test_generator_type_reference_allowed(self):
        src = "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n"
        assert lint_source(src, "mod.py") == []


class TestRNG002:
    def test_stdlib_random_call_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, "mod.py")) == ["RNG002"]

    def test_from_import_flagged(self):
        src = "from random import shuffle\n"
        assert rules_of(lint_source(src, "mod.py")) == ["RNG002"]

    def test_unrelated_attribute_named_random_allowed(self):
        # `rng.random(...)` is the Generator API, not stdlib random.
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n"
        assert lint_source(src, "mod.py") == []


class TestTIME001:
    def test_time_time_flagged(self):
        src = "import time\nstamp = time.time()\n"
        assert rules_of(lint_source(src, "mod.py")) == ["TIME001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rules_of(lint_source(src, "mod.py")) == ["TIME001"]

    def test_perf_counter_allowed(self):
        # Monotonic interval timing is fine; only wall-clock reads are not.
        src = "import time\nstart = time.perf_counter()\n"
        assert lint_source(src, "mod.py") == []


class TestDTYPE001:
    def test_dtypeless_array_flagged_inside_nn(self):
        src = "import numpy as np\nx = np.array([1, 2])\n"
        assert rules_of(lint_source(src, "src/repro/nn/mod.py")) == ["DTYPE001"]

    def test_dtypeless_asarray_flagged_inside_nn(self):
        src = "import numpy as np\nx = np.asarray(y)\n"
        assert rules_of(lint_source(src, "src/repro/nn/mod.py")) == ["DTYPE001"]

    def test_explicit_dtype_allowed(self):
        src = "import numpy as np\nx = np.array([1, 2], dtype=np.float64)\n"
        assert lint_source(src, "src/repro/nn/mod.py") == []

    def test_outside_nn_not_flagged(self):
        src = "import numpy as np\nx = np.array([1, 2])\n"
        assert lint_source(src, "src/repro/data/mod.py") == []


class TestMUT001:
    def test_attribute_rebind_flagged(self):
        assert rules_of(lint_source("t.data = x\n", "mod.py")) == ["MUT001"]

    def test_augmented_assign_flagged(self):
        assert rules_of(lint_source("p.data -= lr * g\n", "mod.py")) == ["MUT001"]

    def test_subscript_write_flagged(self):
        assert rules_of(lint_source("w.data[0] = 0.0\n", "mod.py")) == ["MUT001"]

    def test_reading_data_allowed(self):
        assert lint_source("x = t.data.copy()\n", "mod.py") == []


class TestMUT002:
    def test_out_kwarg_flagged(self):
        src = "import numpy as np\nnp.subtract(p.data, g, out=p.data)\n"
        assert rules_of(lint_source(src, "mod.py")) == ["MUT002"]

    def test_out_tuple_flagged(self):
        src = "import numpy as np\nnp.divmod(x, y, out=(q, p.data))\n"
        assert rules_of(lint_source(src, "mod.py")) == ["MUT002"]

    def test_copyto_flagged(self):
        src = "import numpy as np\nnp.copyto(p.data, x)\n"
        assert rules_of(lint_source(src, "mod.py")) == ["MUT002"]

    def test_ufunc_at_flagged(self):
        src = "import numpy as np\nnp.add.at(p.data, idx, g)\n"
        assert rules_of(lint_source(src, "mod.py")) == ["MUT002"]

    def test_mutating_method_flagged(self):
        src = "p.data.fill(0.0)\n"
        assert rules_of(lint_source(src, "mod.py")) == ["MUT002"]

    def test_out_to_scratch_allowed(self):
        # out= into a plain scratch array is the whole point of pooling.
        src = "import numpy as np\nnp.subtract(a, b, out=scratch)\n"
        assert lint_source(src, "mod.py") == []

    def test_plan_path_not_exempt(self):
        # No package is exempt from MUT002: a path component named
        # "plan" gets no pass.
        src = "import numpy as np\nnp.multiply(a, b, out=p.data)\n"
        assert rules_of(lint_source(src, "src/repro/plan/recurrent.py")) == ["MUT002"]

    def test_reading_method_allowed(self):
        src = "x = p.data.sum()\n"
        assert lint_source(src, "mod.py") == []


class TestPragma:
    def test_allow_pragma_suppresses(self):
        src = "p.data -= g  # lint: allow[MUT001] — optimizer update\n"
        assert lint_source(src, "mod.py") == []

    def test_pragma_is_rule_specific(self):
        src = "import time\np.data = time.time()  # lint: allow[MUT001]\n"
        assert rules_of(lint_source(src, "mod.py")) == ["TIME001"]

    def test_multiple_rules_in_one_pragma(self):
        src = "import time\np.data = time.time()  # lint: allow[MUT001, TIME001]\n"
        assert lint_source(src, "mod.py") == []


class TestLintPaths:
    def test_shipped_tree_is_clean(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = lint_paths([root])
        assert report.files_checked > 50
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_seeded_violation_reports_rule_and_location(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        report = lint_paths([tmp_path])
        assert not report.ok
        violation = report.violations[0]
        assert violation.rule == "RNG001"
        assert violation.path == str(bad)
        assert violation.line == 2

    def test_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/file.txt"])

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([tmp_path])
        assert rules_of(report.violations) == ["SYNTAX"]

    def test_every_rule_has_a_description(self):
        assert set(RULES) == {
            "RNG001",
            "RNG002",
            "TIME001",
            "DTYPE001",
            "MUT001",
            "MUT002",
            "LOCK001",
            "LOCK002",
            "LOCK003",
            "LOCK004",
        }
        assert all(RULES.values())
