"""Tests for the runtime numeric sanitizer (:mod:`repro.nn.sanitize`).

The acceptance scenarios from the issue: a NaN injected mid-backward
during a QAR step is reported with layer/op provenance; an overflowing
quantize boundary raises a clamp-storm; a clean PTQ run completes with
zero findings and sub-2x overhead.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import sanitize
from repro.rng import fresh_rng

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def small_model():
    return nn.Sequential(nn.Linear(16, 16), nn.ReLU(), nn.Linear(16, 4))


class PoisonBackward(nn.Module):
    """Identity forward; injects a NaN into the upstream gradient."""

    def forward(self, x):
        def backward(grad):
            g = np.array(grad, copy=True)
            g.flat[0] = np.nan
            x._accumulate(g)
        return F._op(x.data.copy(), (x,), backward)


def qar_step(model, x):
    """One quantization-aware-retraining step: fake-quantized forward,
    then backward through the straight-through estimator."""
    nn.attach_weight_quantizers(model, nn.QuantSpec("adaptivfloat", 4))
    out = model(nn.Tensor(x))
    loss = (out * out).sum()
    loss.backward()
    return loss


class TestCleanRuns:
    def test_clean_forward_backward_has_no_findings(self):
        model = small_model()
        x = fresh_rng(0).normal(size=(8, 16))
        with nn.Sanitizer(model) as report:
            qar_step(model, x)
        assert report.findings == []
        assert report.ops_checked > 20

    def test_clean_ptq_eval_has_no_findings(self):
        model = small_model()
        nn.quantize_weights_inplace(model, nn.QuantSpec("adaptivfloat", 8))
        model.eval()
        x = fresh_rng(1).normal(size=(8, 16))
        with nn.Sanitizer(model) as report, nn.no_grad():
            model(nn.Tensor(x))
        assert report.findings == []
        assert report.ops_checked > 0  # no-grad ops are still screened

    def test_inactive_by_default(self):
        assert not sanitize.is_active()
        assert sanitize.global_report() is None


class TestBackwardNaN:
    def build(self):
        model = nn.Sequential(nn.Linear(8, 8), PoisonBackward(),
                              nn.Linear(8, 2))
        x = fresh_rng(2).normal(size=(4, 8))
        return model, x

    def test_injected_nan_reported_with_layer_and_op(self):
        model, x = self.build()
        with nn.Sanitizer(model) as report:
            qar_step(model, x)
        nans = report.by_kind("backward-nan")
        assert nans, report.render()
        first = nans[0]
        # the poisoned gradient flows into the *first* Linear's output:
        # the report must name that layer and a real op, not placeholders
        assert first.layer == "0"
        assert first.op not in ("", "<op>")
        assert first.stats["nan"] >= 1

    def test_raise_mode_raises_numeric_fault(self):
        model, x = self.build()
        with pytest.raises(nn.NumericFault) as exc:
            with nn.Sanitizer(model, action="raise"):
                qar_step(model, x)
        assert exc.value.finding.kind == "backward-nan"
        assert "backward-nan" in str(exc.value)

    def test_leaf_gradients_are_checked(self):
        # poison sits directly above a parameter: the NaN lands in a
        # leaf gradient after the topo walk finishes
        model = nn.Sequential(PoisonBackward(), nn.Linear(8, 2))
        x = fresh_rng(3).normal(size=(4, 8))
        with nn.Sanitizer(model) as report:
            out = model(nn.Tensor(x, requires_grad=True))
            (out * out).sum().backward()
        kinds = {f.kind for f in report.findings}
        assert "backward-nan" in kinds


class TestQuantizeBoundary:
    def test_clamp_storm_reports_layer(self):
        class Saturating(nn.Module):
            def forward(self, x):
                return F.fake_quantize(x, lambda a: np.clip(a, -2.0, 2.0))

        model = nn.Sequential(Saturating())
        data = np.concatenate([np.full(60, 1e4), np.linspace(0.1, 1.0, 40)])
        with nn.Sanitizer(model) as report:
            model(nn.Tensor(data))
        storms = report.by_kind("clamp-storm")
        assert storms, report.render()
        assert storms[0].layer == "0"
        assert storms[0].op == "fake_quantize"
        assert storms[0].stats["clamped_fraction"] > 0.25

    def test_underflow_flood(self):
        x = nn.Tensor(np.full(100, 1e-8))
        with nn.Sanitizer() as report:
            F.fake_quantize(x, lambda a: np.zeros_like(a))
        floods = report.by_kind("underflow-flood")
        assert floods and floods[0].stats["flooded_fraction"] == 1.0

    def test_quantizer_manufacturing_nan(self):
        x = nn.Tensor(np.ones(10))
        with nn.Sanitizer() as report:
            F.fake_quantize(x, lambda a: np.full_like(a, np.nan))
        assert report.by_kind("quantize-nan")

    def test_real_format_is_quiet_on_tame_data(self):
        from repro.formats import make_quantizer
        q = make_quantizer("adaptivfloat", 8)
        x = nn.Tensor(fresh_rng(4).normal(size=(32, 32)))
        with nn.Sanitizer() as report:
            F.fake_quantize(x, q.quantize)
        assert report.findings == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestForwardChecks:
    def test_fresh_overflow_is_reported(self):
        x = nn.Tensor(np.array([700.0, 710.0]))
        with nn.Sanitizer() as report:
            x.exp()  # exp(710) overflows float32/64 -> inf
        assert report.by_kind("forward-overflow")

    def test_propagated_nonfinite_not_rereported(self):
        x = nn.Tensor(np.array([700.0, 710.0]))
        with nn.Sanitizer() as report:
            y = x.exp()   # the originating op: one finding
            y * 2.0       # propagation: no second finding
        assert len(report.by_kind("forward-overflow")) == 1

    def test_masked_fill_inf_is_exempt(self):
        x = nn.Tensor(np.ones((2, 4)))
        mask = np.array([[True, False, False, False]] * 2)
        with nn.Sanitizer() as report:
            y = F.masked_fill(x, mask, float("-inf"))
            F.softmax(y, axis=-1)
        assert report.findings == []

    @pytest.mark.parametrize("op, forward", [
        ("log", lambda x: x.log()),
        ("sqrt", lambda x: x.sqrt()),
        ("masked_fill", lambda x: F.masked_fill(x, x.data < 0, np.nan)),
    ], ids=["log", "sqrt", "masked_fill"])
    def test_no_grad_findings_keep_op_and_layer(self, op, forward):
        # inference outputs keep no backward closure; the finding must
        # still name the op and the layer exactly as in grad mode
        class Bad(nn.Module):
            def forward(self, x):
                return forward(x)

        model = nn.Sequential(nn.Linear(4, 4), Bad())
        x = nn.Tensor(fresh_rng(4).normal(size=(3, 4)))
        seen = []
        for grad_mode in (True, False):
            with nn.Sanitizer(model) as report, \
                    np.errstate(invalid="ignore"):
                if grad_mode:
                    model(x)
                else:
                    with nn.no_grad():
                        model(x)
            nans = report.by_kind("forward-nan")
            assert len(nans) == 1, report.render()
            seen.append((nans[0].op, nans[0].layer))
        assert seen == [(op, "1")] * 2

    def test_max_findings_truncates(self):
        x = nn.Tensor(np.array([710.0]))
        with nn.Sanitizer(max_findings=2) as report:
            for _ in range(5):
                x.exp()
        assert len(report.findings) == 2 and report.truncated


class TestEnvKnob:
    def test_repro_sanitize_env_traps_overflow(self):
        code = (
            "import numpy as np\n"
            "from repro import nn\n"
            "nn.Tensor(np.array([710.0])).exp()\n"  # overflows to inf
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC, "REPRO_SANITIZE": "1"},
            capture_output=True, text=True)
        assert proc.returncode != 0
        assert "NumericFault" in proc.stderr
        # clean under the same knob
        ok = subprocess.run(
            [sys.executable, "-c",
             "import numpy as np\nfrom repro import nn\n"
             "(nn.Tensor(np.ones(4), requires_grad=True) * 2.0)"
             ".sum().backward()\n"],
            env={**os.environ, "PYTHONPATH": SRC, "REPRO_SANITIZE": "1"},
            capture_output=True, text=True)
        assert ok.returncode == 0, ok.stderr

    def test_env_collect_mode_populates_global_report(self):
        code = (
            "import numpy as np\n"
            "from repro import nn\n"
            "from repro.nn import sanitize\n"
            "assert sanitize.is_active()\n"
            "nn.Tensor(np.array([710.0])).exp()\n"
            "report = sanitize.global_report()\n"
            "assert report.by_kind('forward-overflow'), report.render()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC, "REPRO_SANITIZE": "1",
                 "REPRO_SANITIZE_ACTION": "collect"},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestOverhead:
    def test_sanitizer_overhead_under_2x(self):
        """Issue acceptance: a clean run under the sanitizer stays <2x."""
        # realistic layer sizes: the matmuls must dominate so the hook's
        # O(n) min/max screen is amortized (tiny toy layers would measure
        # Python dispatch, not the sanitizer)
        model = nn.Sequential(nn.Linear(256, 256), nn.ReLU(),
                              nn.Linear(256, 64))
        nn.quantize_weights_inplace(model, nn.QuantSpec("adaptivfloat", 8))
        model.eval()
        x = nn.Tensor(fresh_rng(5).normal(size=(128, 256)))

        def timed(reps=20):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                with nn.no_grad():
                    for _ in range(reps):
                        model(x)
                best = min(best, time.perf_counter() - t0)
            return best

        timed(5)  # warm caches (codebooks, import side effects)
        plain = timed()
        with nn.Sanitizer(model):
            instrumented = timed()
        assert instrumented < 2.0 * plain, \
            f"sanitizer overhead {instrumented / plain:.2f}x"

    def test_hooks_are_noops_when_inactive(self):
        # direct calls with no state must bail without touching anything
        sanitize.on_quantize(np.ones(3), np.ones(3))
        t = nn.Tensor(np.ones(3))
        t.grad = None
        sanitize.on_grad(t)
        sanitize.on_op(t, t.data, (), None)


class TestThreadLocality:
    """Sanitizer scopes are per-thread: the serving engine probes worker
    batches under its own Sanitizer while other workers run clean, so a
    context entered on one thread must neither observe nor trap ops
    running on another."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_concurrent_sanitizers_do_not_cross_talk(self):
        import threading

        x = fresh_rng(2).normal(size=(4, 16))
        clean_model = small_model()
        reports = {}
        barrier = threading.Barrier(2)

        def dirty():
            barrier.wait()
            with nn.Sanitizer(action="collect") as report:
                for _ in range(3):
                    nn.Tensor(np.array([710.0])).exp()  # fresh overflow
            reports["dirty"] = report

        def clean():
            barrier.wait()
            with nn.Sanitizer(clean_model, action="collect") as report:
                with nn.no_grad():
                    for _ in range(5):
                        clean_model(nn.Tensor(x))
            reports["clean"] = report

        threads = [threading.Thread(target=dirty),
                   threading.Thread(target=clean)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # the overflow findings land only in the thread that raised them
        assert reports["clean"].findings == []
        assert reports["dirty"].by_kind("forward-overflow")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_other_threads_ops_are_not_attributed(self):
        import threading

        def unsanitized_overflow():
            nn.Tensor(np.array([710.0])).exp()

        with nn.Sanitizer(action="collect") as report:
            worker = threading.Thread(target=unsanitized_overflow)
            worker.start()
            worker.join()
        # the worker thread had no sanitizer state: its overflow is
        # invisible to the context entered on this thread
        assert report.findings == []
        assert report.ops_checked == 0
