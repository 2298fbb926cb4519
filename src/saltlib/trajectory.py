"""Trajectory containers for hybrid executions.

A trajectory is an ordered list of smooth segments separated by events.
Segment k ends at the event time with the pre-event state; segment k+1 starts
at the same time with the post-reset state, so sample times are strictly
increasing inside a segment and share the event instant across the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import HybridSystem, ModeId


@dataclass(frozen=True)
class Segment:
    """One smooth piece: sampled states of a single mode."""

    mode: ModeId
    times: np.ndarray
    states: np.ndarray

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class EventRecord:
    """Localized guard crossing and the applied reset.

    transversality is the total guard derivative D_t g + D_x g . f at
    (t_event, x_minus); negative for standard guards, signed for two-sided
    guards. guard_residual is |g| at the located event.
    """

    t_event: float
    transition_index: int
    x_minus: np.ndarray
    x_plus: np.ndarray
    guard_residual: float
    transversality: float


@dataclass(frozen=True)
class HybridTrajectory:
    """Piecewise-smooth execution: segments interleaved with events."""

    segments: tuple[Segment, ...]
    events: tuple[EventRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def x_start(self) -> np.ndarray:
        return self.segments[0].states[0]

    @property
    def x_end(self) -> np.ndarray:
        return self.segments[-1].states[-1]

    @property
    def mode_sequence(self) -> tuple[ModeId, ...]:
        return tuple(seg.mode for seg in self.segments)

    @property
    def event_sequence(self) -> tuple[int, ...]:
        return tuple(ev.transition_index for ev in self.events)

    def segment_at(self, t: float) -> int:
        """Index of the segment containing time t (latest one at boundaries)."""
        segments = self.segments
        if not segments[0].times[0] <= t <= segments[-1].times[-1]:
            raise ValueError(f"t={t} outside trajectory span [{self.t_start}, {self.t_end}]")
        idx = 0
        for k, seg in enumerate(segments):
            if seg.times[0] <= t:
                idx = k
        return idx

    def interpolate(self, t: float) -> np.ndarray:
        """Linear interpolation of the state at time t within its segment."""
        seg = self.segments[self.segment_at(t)]
        ts = seg.times
        if ts.size == 1:
            return seg.states[0].copy()
        j = min(max(int(ts.searchsorted(t, side="right")) - 1, 0), ts.size - 2)
        t0, t1 = ts[j], ts[j + 1]
        if t1 == t0:
            return seg.states[j].copy()
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * seg.states[j] + w * seg.states[j + 1]

    def validate(self, sys: HybridSystem) -> list[str]:
        """Consistency diagnostics: time ordering, continuity, replayable resets."""
        diags: list[str] = []
        if len(self.segments) != len(self.events) + 1:
            diags.append(
                f"{len(self.segments)} segments with {len(self.events)} events (expected events+1)"
            )
            return diags
        for k, seg in enumerate(self.segments):
            if seg.times.ndim != 1 or seg.states.shape != (seg.times.size, sys.dim(seg.mode)):
                diags.append(f"segment {k}: shape mismatch")
                continue
            if seg.times.size > 1 and not np.all(np.diff(seg.times) > 0):
                diags.append(f"segment {k}: times not strictly increasing")
            if not np.all(np.isfinite(seg.states)):
                diags.append(f"segment {k}: non-finite states")
        for k, ev in enumerate(self.events):
            pre, post = self.segments[k], self.segments[k + 1]
            tr = sys.transitions[ev.transition_index]
            if tr.from_mode != pre.mode or tr.to_mode != post.mode:
                diags.append(f"event {k}: transition modes disagree with adjacent segments")
            if pre.t_end != ev.t_event or post.t_start != ev.t_event:
                diags.append(f"event {k}: segment boundary times disagree with t_event")
            if not np.array_equal(pre.states[-1], ev.x_minus):
                diags.append(f"event {k}: x_minus differs from last pre-segment sample")
            if not np.array_equal(post.states[0], ev.x_plus):
                diags.append(f"event {k}: x_plus differs from first post-segment sample")
            replay = tr.reset.apply(ev.t_event, ev.x_minus)
            if not np.array_equal(replay, ev.x_plus):
                diags.append(f"event {k}: reset replay does not reproduce x_plus")
        return diags
