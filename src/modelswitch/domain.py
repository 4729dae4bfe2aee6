"""Core value types shared by the switching loop.

Conventions: CPU usage is a percentage in [0, 100], confidences are
fractions in [0, 1]. Conversion to display percentages happens only at
reporting boundaries.

Every record type of the package is a NamedTuple: immutable, compared by
value and picklable, and cheap to define at import, where generating and
compiling per-class methods would add to every process start-up. A type
whose values have a valid range is decorated with ``checked``, given each
bounded field's closed range; building it checks those, then that each int
field holds an int, then the type's own rules in ``_check``, if any. A
processed frame's figures travel as plain values, checked by ``check_frame``.
"""

from __future__ import annotations

from enum import Enum
from functools import wraps
from math import inf
from typing import Callable, NamedTuple, Sequence, TypeVar, get_type_hints

ModelId = str

_T = TypeVar("_T")


def checked(**ranges: tuple[float, float]) -> Callable[[type[_T]], type[_T]]:
    """Make building a NamedTuple, by call or by unpickling, check its values.

    Each keyword maps a field to its closed range (low, high): a value outside
    it, or not finite, raises ValueError, as then does an ``int`` field's value
    that is no exact int (a bool or 5.0). The type's ``_check``, if any, runs
    last. NamedTuple forbids a ``__new__`` in the class body, so this wraps the
    generated one; ``_make`` and ``_replace`` build through ``tuple.__new__``
    and skip every check, so a changed copy is built by calling the type.
    """

    def decorate(cls: type[_T]) -> type[_T]:
        new = cls.__new__
        check = getattr(cls, "_check", None)
        ints = [name for name, hint in get_type_hints(cls).items() if hint is int]

        @wraps(new)
        def __new__(cls_, *args, **kwargs):
            self = new(cls_, *args, **kwargs)
            for name, (low, high) in ranges.items():
                value = getattr(self, name)
                # Compared, never passed to math.isfinite, which raises OverflowError on a huge int.
                if not (low <= value <= high and -inf < value < inf):
                    end = "]" if high < inf else ")"
                    raise ValueError(f"{name} must lie in [{low}, {high}{end}: {value}")
            for name in ints:
                if type(getattr(self, name)) is not int:
                    raise ValueError(f"{name} must be an integer: {getattr(self, name)!r}")
            if check is not None:
                check(self)
            return self

        cls.__new__ = staticmethod(__new__)
        return cls

    return decorate


class SelectionMode(Enum):
    """How a selection decision was reached."""

    EXPLORE = "explore"
    EXPLOIT = "exploit"
    FORCED = "forced"


def check_frame(
    frame_index: int, cpu_usage: float, confidence_score: float, detection_count: int
) -> None:
    """Raise ValueError unless the figures describe a processed frame."""
    if frame_index < 0:
        raise ValueError(f"negative frame_index: {frame_index}")
    if not 0.0 <= cpu_usage <= 100.0:
        raise ValueError(f"cpu_usage out of range: {cpu_usage}")
    if not 0.0 <= confidence_score <= 1.0:
        raise ValueError(f"confidence_score out of range: {confidence_score}")
    if detection_count < 0:
        raise ValueError(f"negative detection_count: {detection_count}")
    if detection_count == 0 and confidence_score != 0.0:
        raise ValueError("empty frame must carry confidence_score 0.0")


class SelectionDecision(NamedTuple):
    """Outcome of one planner invocation: the model chosen and how."""

    selected: ModelId
    mode: SelectionMode
    random_draw: float | None


def mean_confidence(confidences: Sequence[float]) -> float:
    """Mean of a frame's detection confidences; 0.0 when nothing was detected."""
    if not confidences:
        return 0.0
    return sum(confidences) / len(confidences)
