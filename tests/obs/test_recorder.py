"""The span recorder: session semantics and the zero-cost-off contract."""

import contextlib

import numpy as np
import pytest

from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels import CrsdSpMV
from repro.obs import recorder
from repro.obs.recorder import ProfileSession, current, maybe_span, observe
from tests.conftest import random_diagonal_matrix


class TestSession:
    def test_span_tree(self):
        s = ProfileSession("t")
        with s.span("outer", "op"):
            with s.span("inner", "kernel"):
                pass
            with s.span("inner2", "kernel"):
                pass
        assert [sp.name for sp in s.spans] == ["outer", "inner", "inner2"]
        outer = s.spans[0]
        assert outer.parent is None
        assert all(sp.parent == outer.id for sp in s.spans[1:])
        assert all(sp.duration >= 0 for sp in s.spans)
        assert s.children(outer.id) == s.spans[1:]

    def test_span_closed_on_exception(self):
        s = ProfileSession("t")
        with pytest.raises(RuntimeError):
            with s.span("boom", "op"):
                raise RuntimeError("x")
        assert s.spans[0].duration >= 0
        # the stack unwound: a new span is a root again
        with s.span("after", "op"):
            pass
        assert s.spans[1].parent is None

    def test_record_event_is_zero_duration(self):
        s = ProfileSession("t")
        ev = s.record_event("marker", "event", reason="test")
        assert ev.duration == 0.0
        assert ev.attrs == {"reason": "test"}

    def test_record_kernel_copies_trace(self):
        from repro.ocl.trace import KernelTrace

        s = ProfileSession("t")
        t = KernelTrace()
        t.flops = 7
        span = s.record_kernel("k", work_groups=4, local_size=32,
                               executor="batched", wall_s=0.5, trace=t)
        assert span.category == "kernel"
        assert span.attrs["trace"]["flops"] == 7
        t.flops = 99  # mutating the trace must not reach the span
        assert span.attrs["trace"]["flops"] == 7

    def test_by_category(self):
        s = ProfileSession("t")
        with s.span("a", "op"):
            pass
        s.record_event("b", "event")
        assert [sp.name for sp in s.by_category("op")] == ["a"]
        assert [sp.name for sp in s.by_category("event")] == ["b"]

    def test_to_dict_roundtrips_json(self):
        import json

        s = ProfileSession("t")
        with s.span("a", "op", answer=42):
            pass
        d = json.loads(json.dumps(s.to_dict()))
        assert d["name"] == "t"
        assert d["spans"][0]["attrs"] == {"answer": 42}


class TestObserve:
    def test_off_by_default(self):
        assert current() is None

    def test_activates_and_restores(self):
        assert recorder.ACTIVE is None
        with observe("outer") as sess:
            assert current() is sess
            with observe("inner") as inner:
                assert current() is inner
            assert current() is sess
        assert recorder.ACTIVE is None

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with observe("x"):
                raise ValueError("boom")
        assert recorder.ACTIVE is None

    def test_accumulates_into_passed_session(self):
        sess = ProfileSession("acc")
        with observe(session=sess):
            with maybe_span("a", "op"):
                pass
        with observe(session=sess):
            with maybe_span("b", "op"):
                pass
        assert [sp.name for sp in sess.spans] == ["a", "b"]


class TestZeroCostDisabled:
    def test_maybe_span_returns_shared_nullcontext(self):
        assert current() is None
        cm = maybe_span("anything", "op", big=list(range(100)))
        assert cm is recorder._NULL
        assert isinstance(cm, contextlib.nullcontext)
        # same object every time: no allocation on the disabled path
        assert maybe_span("other") is cm

    def test_disabled_path_never_touches_the_clock(self, monkeypatch):
        """With observation off, a full SpMV (prepare + run, both
        kernel launches) must never consult the recorder's clock."""
        def forbidden():
            raise AssertionError(
                "perf_counter called while observation is disabled")

        monkeypatch.setattr(recorder, "perf_counter", forbidden)
        rng = np.random.default_rng(0)
        coo = random_diagonal_matrix(rng, n=96)
        runner = CrsdSpMV(CRSDMatrix.from_coo(coo, mrows=32))
        run = runner.run(rng.standard_normal(coo.ncols))
        assert run.y.shape == (coo.nrows,)

    @staticmethod
    def _recorded_kernels():
        rng = np.random.default_rng(0)
        coo = random_diagonal_matrix(rng, n=96)
        runner = CrsdSpMV(CRSDMatrix.from_coo(coo, mrows=32))
        x = rng.standard_normal(coo.ncols)
        with observe("run") as sess:
            runner.run(x)
        kernels = sess.by_category("kernel")
        assert kernels, "kernel launches must be recorded when observing"
        for k in kernels:
            assert k.attrs["work_groups"] > 0
            assert k.attrs["trace"]["flops"] > 0
        # kernel spans nest under the crsd.spmv op span
        op = [s for s in sess.spans if s.name == "crsd.spmv"]
        assert len(op) == 1
        assert all(k.parent == op[0].id for k in kernels)
        return kernels

    def test_enabled_path_records_kernels(self, monkeypatch):
        """Under the default engine a certified CRSD run records its
        one fused launch."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        kernels = self._recorded_kernels()
        assert [k.attrs["executor"] for k in kernels] == ["fused"]

    def test_enabled_path_records_kernels_batched(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        for k in self._recorded_kernels():
            assert k.attrs["executor"] in ("batched", "pergroup")
