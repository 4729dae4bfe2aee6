"""The contract every record type keeps: the NamedTuples of the package.

Each is immutable, compared by value, named in its repr and sent through
pickle unchanged, as a process pool would send it. A checked type runs its
range check whenever a value is built, unpickling included, and raises what
its constructor raises.
"""

from __future__ import annotations

import pickle
import re

import pytest

from modelswitch.cli import RunSummary
from modelswitch.domain import FrameMetrics, WindowAggregate
from modelswitch.loop import EngineConfig, LoopResult
from modelswitch.planner import NaiveConfig, PlannerConfig, RoundRobinBoostConfig, RunView
from modelswitch.sim import ScheduleSegment, SimConfig, TraceConfig, default_profiles

FRAME = FrameMetrics(
    frame_index=3,
    model="m",
    confidence_score=0.5,
    cpu_usage=12.0,
    detection_count=2,
    inference_time_ms=40.0,
)
PROFILE = default_profiles()[0]
TRACE = TraceConfig(fps=30, rng_seed=7)
PLANNER = PlannerConfig(epsilon=0.3, rng_seed=5)
NAIVE = NaiveConfig(model_order=("a", "b"))
ROUND_ROBIN = RoundRobinBoostConfig(time_slice_frames=10)
ENGINE = EngineConfig(window_capacity=5)

RECORDS = [
    FRAME,
    WindowAggregate(model="m", avg_confidence=0.5, avg_cpu=12.0, sample_count=4),
    PROFILE,
    ScheduleSegment(start_s=0.0, mean_objects=3.0, complexity=0.1),
    TRACE,
    SimConfig(trace=TRACE, profiles=(PROFILE,), extras={"naive": {"epsilon": "0.2"}}),
    PLANNER,
    NAIVE,
    ROUND_ROBIN,
    RunView(model_ids=("a",), scores={"a": 0.0}, windows={}),
    LoopResult(
        registry=None,
        active="a",
        switch_count=2,
        cumulative_switch_time_ms=900.0,
        frames_total=100,
        frames_processed=40,
        frames_dropped=60,
        decision_count=40,
    ),
    ENGINE,
    RunSummary(
        strategy="naive",
        seed=1,
        frames_total=10,
        frames_processed=8,
        frames_dropped=2,
        decision_count=8,
        explore_count=0,
        switch_count=1,
        avg_cpu_pct=15.0,
        avg_confidence_pct=40.0,
        avg_switch_time_s=0.3,
        cumulative_switch_time_s=0.3,
        usage_counts={"a": 8},
        usage_shares={"a": 1.0},
    ),
]

# One field change per checked type that its check rejects.
OUT_OF_RANGE = [
    (FRAME, {"cpu_usage": 101.0}),
    (PROFILE, {"base_cpu_pct": -1.0}),
    (TRACE, {"fps": 0}),
    (TRACE, {"segments": ()}),
    (PLANNER, {"epsilon": 1.5}),
    (NAIVE, {"model_order": ()}),
    (ROUND_ROBIN, {"boost_period_frames": 0}),
    (ENGINE, {"confidence_floor": 2.0}),
]


def _name(value) -> str:
    """A test id: the record's type, or the field a change sets."""
    return next(iter(value)) if isinstance(value, dict) else type(value).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_a_record_survives_a_pickle_round_trip(record) -> None:
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_a_record_is_immutable(record) -> None:
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_records_compare_by_value(record) -> None:
    assert type(record)(**record._asdict()) == record
    changed = record._replace(**{record._fields[-1]: "changed"})
    assert changed != record


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_a_record_repr_names_its_type(record) -> None:
    assert repr(record).startswith(f"{_name(record)}({record._fields[0]}=")


@pytest.mark.parametrize(("record", "change"), OUT_OF_RANGE, ids=_name)
def test_unpickling_a_checked_record_checks_it_again(record, change) -> None:
    # _replace skips the check, which is how an out-of-range value is made here.
    bad = record._replace(**change)
    with pytest.raises(Exception) as built:
        type(record)(*bad)
    with pytest.raises(type(built.value), match=f"^{re.escape(str(built.value))}$"):
        pickle.loads(pickle.dumps(bad))
