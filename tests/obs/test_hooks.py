"""Hook tests: attach/detach transparency, NaN guard, disabled fast path."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from repro.obs import ModuleProfiler, NumericsError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class SmallNet(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(6, 8, rng)
        self.fc2 = nn.Linear(8, 1, rng)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


def _graph_names(tensor):
    """All node names reachable from ``tensor`` through the tape."""
    names, stack, seen = [], [tensor], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        names.append(node.name)
        stack.extend(node._parents)
    return names


class TestTransparency:
    def test_outputs_and_gradients_identical_with_hooks(self, rng):
        net = SmallNet(rng)
        x = nn.Tensor(rng.normal(size=(5, 6)))

        plain = net(x)
        plain.sum().backward()
        plain_grads = {n: p.grad.copy() for n, p in net.named_parameters()}
        net.zero_grad()

        profiler = ModuleProfiler()
        with profiler.attach(net):
            hooked = net(x)
            hooked.sum().backward()

        assert np.array_equal(hooked.data, plain.data)
        for name, grad in plain_grads.items():
            assert np.allclose(grad, dict(net.named_parameters())[name].grad), name

    def test_detach_restores_plain_call_path(self, rng):
        net = SmallNet(rng)
        x = nn.Tensor(rng.normal(size=(2, 6)))
        profiler = ModuleProfiler()
        with profiler.attach(net):
            assert nn.Module._active_profiler is profiler
        assert nn.Module._active_profiler is None
        out = net(x)
        assert not any("probe" in n for n in _graph_names(out))

    def test_detach_runs_on_exception(self, rng):
        net = SmallNet(rng)
        profiler = ModuleProfiler()
        with pytest.raises(RuntimeError, match="boom"):
            with profiler.attach(net):
                raise RuntimeError("boom")
        assert nn.Module._active_profiler is None

    def test_second_profiler_rejected(self, rng):
        net = SmallNet(rng)
        first, second = ModuleProfiler(), ModuleProfiler()
        with first.attach(net):
            with pytest.raises(RuntimeError, match="already attached"):
                second.attach(net)

    def test_modules_outside_tree_untouched(self, rng):
        net = SmallNet(rng)
        other = nn.Linear(3, 3, rng)
        x = nn.Tensor(rng.normal(size=(2, 3)))
        profiler = ModuleProfiler()
        with profiler.attach(net):
            out = other(x)
        assert not any("probe" in n for n in _graph_names(out))
        assert profiler.layer_profiles() == []


class TestProfiles:
    def test_forward_and_backward_times_recorded(self, rng):
        net = SmallNet(rng)
        x = nn.Tensor(rng.normal(size=(4, 6)))
        profiler = ModuleProfiler()
        with profiler.attach(net):
            for _ in range(3):
                net(x).sum().backward()
        profiles = {p["name"]: p for p in profiler.layer_profiles()}
        assert set(profiles) == {"model", "model.fc1", "model.fc2"}
        for name in ("model", "model.fc1", "model.fc2"):
            assert profiles[name]["calls"] == 3
            assert profiles[name]["forward_seconds"] > 0.0
        # fc1/fc2 receive Tensor inputs, so their backward spans close.
        assert profiles["model.fc1"]["backward_seconds"] > 0.0
        assert profiles["model.fc2"]["backward_seconds"] > 0.0
        assert profiles["model.fc2"]["grad_norm_mean"] > 0.0
        assert profiles["model.fc1"]["parameters"] == 6 * 8 + 8
        assert profiler.backward_passes == 3
        assert profiler.tape_nodes > 0
        assert profiler.backward_seconds > 0.0

    def test_reset_clears_counts_keeps_attachment_names(self, rng):
        net = SmallNet(rng)
        x = nn.Tensor(rng.normal(size=(2, 6)))
        profiler = ModuleProfiler()
        with profiler.attach(net):
            net(x)
            profiler.reset()
            net(x)
        profiles = {p["name"]: p for p in profiler.layer_profiles()}
        assert profiles["model.fc1"]["calls"] == 1

    def test_tuple_outputs_probed(self, rng):
        lstm = nn.LSTM(4, 3, rng)
        x = nn.Tensor(rng.normal(size=(2, 5, 4)))
        profiler = ModuleProfiler()
        with profiler.attach(lstm, root_name="lstm"):
            outputs, last = lstm(x)
            last.sum().backward()
        profiles = {p["name"]: p for p in profiler.layer_profiles()}
        assert profiles["lstm"]["backward_seconds"] > 0.0

    def test_shared_module_gets_one_row(self, rng):
        shared = nn.Linear(3, 3, rng)

        class Branch(nn.Module):
            def __init__(self):
                super().__init__()
                self.proj = shared

            def forward(self, x):
                return self.proj(x)

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.left = Branch()
                self.right = Branch()

            def forward(self, x):
                return self.left(x) + self.right(x)

        net = Net()
        profiler = ModuleProfiler()
        with profiler.attach(net):
            for _ in range(2):
                net(nn.Tensor(rng.normal(size=(2, 3))))
        # Profiled under its first name; both branches' calls land there.
        rows = [p for p in profiler.layer_profiles() if p["name"].endswith(".proj")]
        assert [(r["name"], r["calls"]) for r in rows] == [("model.left.proj", 4)]

class _NaNForward(nn.Module):
    def forward(self, x):
        return x * float("nan")


class _Identity(nn.Module):
    def forward(self, x):
        return x * 1.0


class _SqrtHead(nn.Module):
    """sqrt has an infinite gradient at 0 while its output stays finite."""

    def forward(self, x):
        return F.sqrt(x)


class TestNaNGuard:
    def test_forward_nan_raises_with_layer_name(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.good = _Identity()
                self.bad = _NaNForward()

            def forward(self, x):
                return self.bad(self.good(x))

        net = Net()
        profiler = ModuleProfiler()
        with profiler.attach(net):
            with pytest.raises(NumericsError, match=r"forward output of layer 'model\.bad'"):
                net(nn.Tensor(np.ones((2, 2))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_backward_nonfinite_raises_with_layer_name(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = _Identity()
                self.head = _SqrtHead()

            def forward(self, x):
                return self.head(self.inner(x))

        net = Net()
        profiler = ModuleProfiler()
        with profiler.attach(net):
            out = net(nn.Tensor(np.zeros((2, 2))))  # finite forward
            # sqrt'(0) = inf: the poisoned gradient is caught at the
            # boundary where it first becomes observable — inner's output.
            with pytest.raises(NumericsError, match=r"backward of layer 'model\.inner'"):
                out.sum().backward()


class TestDisabledFastPath:
    def test_no_profiler_machinery_invoked_when_detached(self, rng, monkeypatch):
        assert nn.Module._active_profiler is None

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("profiled_call invoked on the fast path")

        monkeypatch.setattr(ModuleProfiler, "profiled_call", explode)
        net = SmallNet(rng)
        out = net(nn.Tensor(rng.normal(size=(2, 6))))
        out.sum().backward()
        assert not any("probe" in n for n in _graph_names(out))

    def test_disabled_overhead_not_measurable(self, rng):
        """__call__ with hooks off stays within noise of a raw forward()."""
        import time

        net = nn.Linear(4, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 4)))
        reps = 300

        def best_of(fn, trials=7):
            best = float("inf")
            for _ in range(trials):
                start = time.perf_counter()
                for _ in range(reps):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best

        direct = best_of(lambda: net.forward(x))
        dispatched = best_of(lambda: net(x))
        # The guarded fast path is one attribute load + None check; allow a
        # very generous 3x margin so the assertion never flakes under load.
        assert dispatched < direct * 3.0
