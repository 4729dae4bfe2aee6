"""The rules of one modelswitch run, as plain code: an executable spec.

``run(experiment, strategy)`` replays one run and returns the bytes of its
three files. It is written from the README (*What a run writes*, *How
selection works* and *Determinism*, which lists every random draw in the
order made here), with eager lists, plain loops and one f-string per row.
It reads the ``Experiment`` that ``modelswitch.cli.load_experiment`` returns
as data and imports none of the package's run path, so ``test_spec.py`` can
hold ``run_experiment``'s bytes against it. A change to a rule is made here,
in the README and in the package together.

Sums are taken as the package takes them: a window mean and a frame's mean
confidence with ``sum()``, and a run total folded row by row with ``+=``
(from Python 3.12 on, ``sum()`` of floats compensates for rounding, so the
two can differ in the last bit).
"""

from __future__ import annotations

import math
import sys
from random import Random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from modelswitch.cli import Experiment

METRICS_HEADER = (
    "frame_index,sim_time_ms,model_id,cpu_usage_pct,confidence,"
    "detection_count,inference_time_ms,battery_mah"
)
EVENTS_HEADER = "frame_index,event_type,mode,random_draw,from_model,to_model,switch_time_ms"
# car, bus, truck, motorcycle, rickshaw: a found object draws one, which no output reads.
LABEL_COUNT = 5
# A switch costs the incoming model's latency times a uniform factor in [0.9, 1.1).
SWITCH_JITTER = 0.10
# The score of a model whose latest frame has zero confidence.
ZERO_CONFIDENCE_SCORE = sys.float_info.max


def gaussian(rng: Random, mu: float = 0.0, sigma: float = 1.0) -> float:
    """One normal draw by Box-Muller from two uniforms, the first taken as 1 - random(),
    which lies in (0, 1], so that its log is finite."""
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def poisson(rng: Random, mean: float) -> int:
    """Knuth's method: count the uniforms multiplied in until the product reaches exp(-mean)."""
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def trace_frames(trace) -> list[tuple[int, float]]:
    """Each frame's (object_count, complexity) for a TraceConfig, in frame order.

    Frame f arrives at f / fps s and belongs to the last segment whose start it
    has reached. Its count is a Poisson draw around that segment's mean, from
    Random(rng_seed), frame by frame. Its complexity ramps linearly from the
    segment's value to the next segment's, reached at the next start; the last
    segment holds its own value up to duration_s.
    """
    rng = Random(trace.rng_seed)
    segments = trace.segments
    frames = []
    for f in range(round(trace.fps * trace.duration_s)):
        t = f / trace.fps
        j = max(k for k, segment in enumerate(segments) if segment.start_s <= t)
        start, mean, complexity = segments[j]
        if j + 1 < len(segments):
            end, target = segments[j + 1].start_s, segments[j + 1].complexity
        else:
            end, target = trace.duration_s, complexity
        ramped = complexity + (target - complexity) * ((t - start) / (end - start))
        frames.append((poisson(rng, mean), ramped))
    return frames


def synthesize(rng: Random, profile, object_count: int, complexity: float) -> tuple[list, float]:
    """One inference pass: (the found objects' confidences, the frame's CPU percentage)."""
    degraded = profile.base_confidence * (1.0 - 0.5 * complexity)
    confidences = []
    for _ in range(object_count):
        if rng.random() >= profile.detection_recall:
            continue
        noise = gaussian(rng, 0.0, profile.confidence_noise_sd)
        confidences.append(min(1.0, max(0.0, degraded + noise)))
        rng.randrange(LABEL_COUNT)  # the class label: rejection sampling on getrandbits(3)
        for _ in range(4):  # the bbox's w, h, x and y: 8 words, as one getrandbits(256)
            rng.random()
    cpu = profile.base_cpu_pct + profile.cpu_per_object_pct * object_count + gaussian(rng)
    return confidences, min(100.0, max(0.0, cpu))


def score(window: list[tuple[float, float]]) -> float:
    """min(cpu_now, cpu_avg) * (1 - confidence_avg / confidence_now); lower is better."""
    if not window:
        return 0.0
    cpu_now, confidence_now = window[-1]
    avg_cpu = sum(cpu for cpu, _ in window) / len(window)
    avg_confidence = sum(confidence for _, confidence in window) / len(window)
    if confidence_now == 0.0:
        return ZERO_CONFIDENCE_SCORE
    cpu = min(cpu_now, avg_cpu)
    if cpu == 0.0:
        return 0.0
    return cpu * (1.0 - avg_confidence / confidence_now)


def epsilon_greedy(config, planner: Random, models: list, windows: dict):
    """Draw p; at or below epsilon explore uniformly over the sorted other models, else exploit."""
    p = planner.random()
    scores = {m: score(windows[m]) for m in models}
    best = min(models, key=lambda m: (scores[m], m))
    if p <= config.epsilon:
        candidates = sorted(models)
        if config.exclude_best:
            candidates.remove(best)
        if candidates:
            return candidates[planner.randrange(len(candidates))], "explore", p
    return best, "exploit", p


def naive(config, active: str, windows: dict):
    """Step one model lighter on high CPU, else heavier on low confidence, along the ladder."""
    order = list(config.model_order)
    position = order.index(active)
    if windows[active]:
        cpu, confidence = windows[active][-1]
        if cpu > config.cpu_high_threshold:
            return order[max(position - 1, 0)], "forced", None
        if confidence < config.confidence_low_threshold:
            return order[min(position + 1, len(order) - 1)], "forced", None
    return active, "forced", None


def round_robin_boost(config, state: dict, frame: int, models: list, windows: dict):
    """Re-rank by window CPU at the first decision of a boost period; one step per new slice."""
    if frame // config.boost_period_frames > state["rank_period"]:
        observed = sorted(
            (sum(cpu for cpu, _ in windows[m]) / len(windows[m]), m) for m in models if windows[m]
        )
        state["rank"] = [m for _, m in observed] + [m for m in models if not windows[m]]
        state["rank_period"] = frame // config.boost_period_frames
    if frame // config.time_slice_frames > state["slice"]:
        state["position"] += 1
        state["slice"] = frame // config.time_slice_frames
    return state["rank"][state["position"] % len(state["rank"])], "forced", None


def run(experiment: Experiment, strategy: str) -> dict[str, bytes]:
    """The bytes of metrics.csv, events.csv and summary.txt for one strategy's run."""
    fps = experiment.trace.fps
    frames = trace_frames(experiment.trace)
    n = len(frames)
    models = list(experiment.repo.ids())
    profiles = {m: experiment.repo.get(m) for m in models}
    config = experiment.strategies[strategy]
    period = config.decision_period if strategy == "epsilon-greedy" else 1
    capacity = experiment.engine.window_capacity
    floor = experiment.engine.confidence_floor
    planner = Random(experiment.seed + 1)
    inference = Random(experiment.seed + 2)
    rotation = {"rank": [], "rank_period": -1, "slice": -1, "position": -1}

    windows: dict[str, list[tuple[float, float]]] = {m: [] for m in models}
    metrics, events = [METRICS_HEADER], [EVENTS_HEADER]
    usage = {m: 0 for m in models}
    cpu_total = confidence_total = switch_ms = 0.0
    decisions = explores = switches = processed = 0
    active = models[0]
    i = 0
    while i < n:
        dropped = 0
        if processed % period == 0:
            if strategy == "epsilon-greedy":
                selected, mode, p = epsilon_greedy(config, planner, models, windows)
            elif strategy == "naive":
                selected, mode, p = naive(config, active, windows)
            else:
                selected, mode, p = round_robin_boost(config, rotation, i, models, windows)
            draw = "" if p is None else f"{p:.4f}"
            events.append(f"{i},decision,{mode},{draw},{active},{selected},")
            decisions += 1
            if mode == "explore":
                explores += 1
            if selected != active:
                jitter = 1.0 + SWITCH_JITTER * (2.0 * inference.random() - 1.0)
                cost_ms = profiles[selected].switch_latency_ms * jitter
                events.append(f"{i},switch,,,{active},{selected},{cost_ms:.4f}")
                switches += 1
                switch_ms += cost_ms
                # The frames that arrive during the switch are dropped, up to the last one.
                dropped = min(round(cost_ms * fps / 1000.0), n - 1 - i)
                active = selected
        object_count, complexity = frames[i]
        found, cpu = synthesize(inference, profiles[active], object_count, complexity)
        kept = [c for c in found if c >= floor]
        confidence = sum(kept) / len(kept) if kept else 0.0
        windows[active] = (windows[active] + [(cpu, confidence)])[-capacity:]
        # The clock: the frame's arrival plus every switch paid so far.
        sim_time_ms = i * (1000.0 / fps) + switch_ms
        inference_ms = profiles[active].inference_time_ms
        metrics.append(
            f"{i},{sim_time_ms:.4f},{active},{cpu:.4f},{confidence:.4f},"
            f"{len(kept)},{inference_ms:.4f},"
        )
        usage[active] += 1
        cpu_total += cpu
        confidence_total += confidence
        processed += 1
        i += 1 + dropped

    summary = [
        f"strategy={strategy}",
        f"seed={experiment.seed}",
        f"frames_total={n}",
        f"frames_processed={processed}",
        f"frames_dropped={n - processed}",
        f"decision_count={decisions}",
        f"explore_count={explores}",
        f"switch_count={switches}",
        f"avg_cpu_pct={cpu_total / processed:.6f}",
        f"avg_confidence_pct={100.0 * confidence_total / processed:.6f}",
        f"avg_switch_time_s={(switch_ms / switches if switches else 0.0) / 1000.0:.6f}",
        f"cumulative_switch_time_s={switch_ms / 1000.0:.6f}",
    ]
    summary += [f"usage_count.{m}={usage[m]}" for m in models]
    summary += [f"usage_share.{m}={usage[m] / processed:.6f}" for m in models]
    files = {"metrics.csv": metrics, "events.csv": events, "summary.txt": summary}
    return {name: "\n".join(rows + [""]).encode("utf-8") for name, rows in files.items()}
