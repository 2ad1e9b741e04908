"""Span accounting, the phase-sum check and wrapper removal."""

import pytest

import tracing
from tracing import Span


def _spans():
    # root 0..10: load 0..1, evaluate 2..9 (with a nested probe 3..4 in
    # another group, which must not count), inject 9..9.5
    return [
        Span(2, "load", "phase", 0.0, 1.0, 1),
        Span(5, "forward", "nn", 3.0, 4.0, None),
        Span(3, "evaluate", "phase", 2.0, 9.0, 1),
        Span(4, "inject", "phase", 9.0, 9.5, 1),
        Span(1, "campaign.run", "phase", 0.0, 10.0, None),
    ]


def test_breakdown_adds_up_to_the_root():
    spans = _spans()
    root = spans[-1]
    breakdown = tracing.phase_breakdown(spans, root)
    assert breakdown == pytest.approx({"load": 1.0, "evaluate": 7.0,
                                       "inject": 0.5, "other": 1.5})
    assert tracing.check_breakdown(breakdown, ("load", "inject", "evaluate"),
                                   10.0, 0.01) is None


def test_breakdown_check_catches_a_missing_phase():
    spans = _spans()
    breakdown = tracing.phase_breakdown(spans, spans[-1])
    error = tracing.check_breakdown(breakdown, ("load", "evaluate"), 10.0,
                                    0.01)
    assert error is not None and "inject" in error


def test_self_time_subtracts_children_only():
    selfs = tracing.self_times(_spans())
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(7.0)    # the nn span is not a child


def test_nested_spans_record_parents_per_group_and_thread():
    tracer = tracing.Tracer()
    with tracer.span("outer", "phase"):
        with tracer.span("layer", "nn"):
            with tracer.span("inner", "phase"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["layer"].parent is None
    assert by_name["outer"].parent is None


class _Owner:
    def method(self, x):
        return x + 1


def test_wrap_records_and_remove_restores_even_after_errors():
    tracer = tracing.Tracer()
    original = _Owner.__dict__["method"]
    tracer.wrap(_Owner, "method", "m", "g", key=lambda self, x: x)
    assert _Owner().method(1) == 2
    assert [(s.name, s.key) for s in tracer.spans] == [("m", 1)]
    tracer.remove()
    assert _Owner.__dict__["method"] is original
    assert tracer.installed == 0


def test_install_layers_is_fully_removed():
    """Every attribute the traced run patches is the original afterwards."""
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    patched = [(owner, attr, original, had_own)
               for owner, attr, original, had_own in tracer._patches]
    assert len(patched) > 20
    try:
        for owner, attr, original, _ in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.remove()
    for owner, attr, original, had_own in patched:
        if had_own:
            assert vars(owner)[attr] is original
        else:
            assert attr not in vars(owner)
            assert getattr(owner, attr) is original
