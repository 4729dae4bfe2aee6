from __future__ import annotations

from collections import deque
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelswitch.analyzer import ZERO_CONFIDENCE_SCORE, Scores, compute_score
from modelswitch.knowledge import LogRegistry
from modelswitch.monitor import Monitor


def _record(monitor: Monitor, frame_index: int, model: str, confidence: float, cpu: float) -> None:
    detections = 1 if confidence > 0.0 else 0
    monitor.record(frame_index, 0.0, model, cpu, confidence, detections, 40.0)


def test_compute_score_simple_points() -> None:
    # Arguments: current cpu, current confidence, window cpu, window confidence.
    # min(10, 20) * (1 - 0.25/0.5) = 10 * 0.5
    assert compute_score(10.0, 0.5, 20.0, 0.25) == pytest.approx(5.0)
    # min(30, 20) * (1 - 0.8/0.4) = 20 * (-1)
    assert compute_score(30.0, 0.4, 20.0, 0.8) == pytest.approx(-20.0)


def test_compute_score_reference_operating_point() -> None:
    value = compute_score(13.0, 54.42, 18.0, 55.94)
    assert value == pytest.approx(-0.36310, abs=1e-4)


def test_compute_score_is_zero_at_equal_confidence() -> None:
    assert compute_score(12.0, 0.6, 30.0, 0.6) == 0.0


def test_compute_score_only_depends_on_the_confidence_ratio() -> None:
    as_fraction = compute_score(10.0, 0.5, 20.0, 0.6)
    as_percent = compute_score(10.0, 50.0, 20.0, 60.0)
    assert as_fraction == pytest.approx(as_percent)


def test_compute_score_is_zero_at_zero_cpu() -> None:
    # 0.5 / 5e-324 overflows to inf, and 0 * -inf would be NaN.
    assert compute_score(0.0, 5e-324, 0.0, 0.5) == 0.0
    assert compute_score(0.0, 0.5, 30.0, 0.25) == 0.0
    assert compute_score(10.0, 5e-324, 20.0, 0.5) == float("-inf")


def test_compute_score_of_zero_confidence_is_the_sentinel() -> None:
    assert compute_score(10.0, 0.0, 20.0, 0.5) == ZERO_CONFIDENCE_SCORE
    # Zero confidence wins over a zero CPU factor.
    assert compute_score(0.0, 0.0, 20.0, 0.5) == ZERO_CONFIDENCE_SCORE


def _monitor(model_ids: tuple[str, ...], capacity: int) -> Monitor:
    return Monitor(model_ids, LogRegistry(StringIO(), StringIO()), capacity=capacity)


def test_scores_move_only_for_the_recorded_model() -> None:
    monitor = _monitor(("a", "b"), capacity=4)
    scores = Scores(monitor.windows)

    _record(monitor, 0, "a", confidence=0.5, cpu=10.0)
    # A single-entry window averages to the frame itself, so the ratio is 1.
    assert scores["a"] == pytest.approx(0.0)
    assert scores["b"] == 0.0

    _record(monitor, 1, "a", confidence=0.4, cpu=12.0)
    # Window average is now (0.5 + 0.4) / 2 = 0.45, above the current 0.4,
    # so the score must come out negative: min(12, 11) * (1 - 0.45/0.4).
    assert scores["a"] == pytest.approx(11.0 * (1.0 - 0.45 / 0.4))
    assert scores["a"] < 0.0
    assert scores == {"a": scores["a"], "b": 0.0}
    assert list(scores) == ["a", "b"] and len(scores) == 2


def test_scores_read_the_sentinel_on_zero_confidence() -> None:
    monitor = _monitor(("a",), capacity=4)
    scores = Scores(monitor.windows)
    _record(monitor, 0, "a", confidence=0.0, cpu=15.0)
    assert scores["a"] == ZERO_CONFIDENCE_SCORE


def test_scores_are_zero_before_a_models_first_frame() -> None:
    monitor = _monitor(("a", "b"), capacity=4)
    scores = Scores(monitor.windows)
    assert scores == {"a": 0.0, "b": 0.0}
    _record(monitor, 0, "b", confidence=0.0, cpu=15.0)
    assert scores["a"] == 0.0


def test_scores_use_the_window_means_of_the_aggregate() -> None:
    monitor = _monitor(("a",), capacity=3)
    scores = Scores(monitor.windows)
    for frame_index, (confidence, cpu) in enumerate(
        ((0.7, 12.5), (0.3, 19.0), (0.55, 11.25), (0.45, 16.0), (0.6, 14.0))
    ):
        _record(monitor, frame_index, "a", confidence=confidence, cpu=cpu)
        aggregate = monitor.windows["a"].aggregate()
        expected = compute_score(cpu, confidence, aggregate.avg_cpu, aggregate.avg_confidence)
        assert scores["a"] == expected  # bit for bit


def test_scores_raise_key_error_for_an_unknown_model() -> None:
    scores = Scores(_monitor(("a",), capacity=4).windows)
    with pytest.raises(KeyError):
        scores["ghost"]
    assert "ghost" not in scores


def test_scores_are_read_only() -> None:
    scores = Scores(_monitor(("a",), capacity=4).windows)
    with pytest.raises(TypeError):
        scores["a"] = 1.0  # type: ignore[index]
    with pytest.raises(TypeError):
        del scores["a"]  # type: ignore[attr-defined]
    assert scores == {"a": 0.0}


_frames = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.floats(0.0, 100.0),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(models=st.integers(1, 4), capacity=st.integers(1, 5), frames=_frames)
@example(models=1, capacity=2, frames=[(0, 1.0, 0.0), (0, 5e-324, 0.0)])
def test_scores_equal_a_table_refreshed_after_every_frame(models, capacity, frames) -> None:
    """Scores computed on read equal, bit for bit, a table that re-scores each
    model from its own window right after that model records a frame."""
    ids = tuple("abcd"[:models])
    monitor = _monitor(ids, capacity)
    scores = Scores(monitor.windows)
    table = dict.fromkeys(ids, 0.0)
    windows = {m: (deque(maxlen=capacity), deque(maxlen=capacity)) for m in ids}
    for frame_index, (slot, confidence, cpu) in enumerate(frames):
        model = ids[slot % models]
        _record(monitor, frame_index, model, confidence, cpu)
        cpus, confidences = windows[model]
        cpus.append(cpu)
        confidences.append(confidence)
        n = len(cpus)
        table[model] = compute_score(cpu, confidence, sum(cpus) / n, sum(confidences) / n)
        assert dict(scores) == table
