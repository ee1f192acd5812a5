"""Reader trajectories: where the reader is at wall-clock time t.

The scenario engine samples the trajectory once per CCM round, at the
round's start time (accumulated slot count × :class:`~repro.net.timing.
SlotTiming`), moves the reader there, and relinks the network via
:meth:`repro.net.topology.Network.with_readers`.  All trajectories are
pure functions of time — no internal state, so sampling is trivially
deterministic and replayable.

The family (Sec. II motivates mobility; the UAV-RFID literature the
roadmap cites motivates the shapes):

* :class:`StaticTrajectory` — the paper's fixed reader.  The scenario
  engine special-cases it (and ``trajectory=None``): the network is
  never rebuilt, which is what keeps the static case bit-identical to
  the plain engines.
* :class:`AisleTrajectory` — a drive-by: constant velocity along a
  straight line through the field (a forklift or conveyor pass).
* :class:`LawnmowerTrajectory` — a UAV sweep: boustrophedon lanes over
  the square bounding the deployment disk, holding at the final corner.
* :class:`WaypointTrajectory` — piecewise-linear motion through explicit
  waypoints at constant speed, holding at the last one.

:func:`make_trajectory` builds one by name (``static``, ``aisle``,
``uav``, ``waypoint``) — the CLI's ``--trajectory`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.net.geometry import Point

__all__ = [
    "ReaderTrajectory",
    "StaticTrajectory",
    "AisleTrajectory",
    "LawnmowerTrajectory",
    "WaypointTrajectory",
    "TRAJECTORY_NAMES",
    "make_trajectory",
]


class ReaderTrajectory:
    """Base class: a time-parameterized reader position (metres)."""

    def position(self, time_s: float) -> Point:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_static(self) -> bool:
        """True if the position never changes (engine fast path)."""
        return False


@dataclass(frozen=True)
class StaticTrajectory(ReaderTrajectory):
    """The paper's setup: the reader never moves."""

    point: Point = field(default_factory=lambda: Point(0.0, 0.0))

    def position(self, time_s: float) -> Point:
        return self.point

    @property
    def is_static(self) -> bool:
        return True


@dataclass(frozen=True)
class AisleTrajectory(ReaderTrajectory):
    """A straight drive-by at constant speed.

    Starts at ``start`` and moves along the unit vector of ``heading``
    forever (the scenario bounds the duration, not the trajectory).
    """

    start: Point
    heading: Point = field(default_factory=lambda: Point(1.0, 0.0))
    speed_mps: float = 1.0

    def __post_init__(self) -> None:
        if self.speed_mps < 0:
            raise ValueError("speed must be non-negative")
        norm = math.hypot(self.heading.x, self.heading.y)
        if norm == 0.0:
            raise ValueError("heading must be a non-zero vector")

    def position(self, time_s: float) -> Point:
        norm = math.hypot(self.heading.x, self.heading.y)
        d = self.speed_mps * time_s
        return Point(
            self.start.x + d * self.heading.x / norm,
            self.start.y + d * self.heading.y / norm,
        )

    @property
    def is_static(self) -> bool:
        return self.speed_mps == 0.0


@dataclass(frozen=True)
class LawnmowerTrajectory(ReaderTrajectory):
    """A UAV sweep: boustrophedon lanes over a centred square field.

    Lanes run parallel to the x axis across ``[-half_width, half_width]``,
    spaced ``lane_spacing`` apart in y starting at ``-half_width``;
    odd-numbered lanes are flown in reverse (the classic back-and-forth
    coverage pattern).  Lane-change legs are included in the path length,
    so speed is honoured exactly.  After the last lane the reader holds
    position at the sweep's end corner.
    """

    half_width: float = 30.0
    lane_spacing: float = 10.0
    speed_mps: float = 5.0

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.lane_spacing <= 0:
            raise ValueError("lane_spacing must be positive")
        if self.speed_mps < 0:
            raise ValueError("speed must be non-negative")

    def _waypoints(self) -> List[Point]:
        w = self.half_width
        points: List[Point] = []
        y = -w
        lane = 0
        while y <= w + 1e-9:
            xs = (-w, w) if lane % 2 == 0 else (w, -w)
            points.append(Point(xs[0], min(y, w)))
            points.append(Point(xs[1], min(y, w)))
            y += self.lane_spacing
            lane += 1
        return points

    def position(self, time_s: float) -> Point:
        return _piecewise_position(
            self._waypoints(), self.speed_mps, time_s
        )

    @property
    def is_static(self) -> bool:
        return self.speed_mps == 0.0


@dataclass(frozen=True)
class WaypointTrajectory(ReaderTrajectory):
    """Piecewise-linear motion through explicit waypoints at one speed;
    holds at the final waypoint."""

    waypoints: Tuple[Point, ...]
    speed_mps: float = 1.0

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("at least one waypoint is required")
        if self.speed_mps < 0:
            raise ValueError("speed must be non-negative")
        object.__setattr__(self, "waypoints", tuple(self.waypoints))

    def position(self, time_s: float) -> Point:
        return _piecewise_position(
            list(self.waypoints), self.speed_mps, time_s
        )

    @property
    def is_static(self) -> bool:
        return self.speed_mps == 0.0 or len(self.waypoints) == 1


def _piecewise_position(
    points: List[Point], speed_mps: float, time_s: float
) -> Point:
    """Position along the polyline ``points`` after ``time_s`` seconds."""
    if speed_mps == 0.0 or len(points) == 1 or time_s <= 0.0:
        return points[0]
    remaining = speed_mps * time_s
    for a, b in zip(points, points[1:]):
        leg = a.distance_to(b)
        if remaining <= leg:
            if leg == 0.0:
                continue
            frac = remaining / leg
            return Point(
                a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)
            )
        remaining -= leg
    return points[-1]


_Factory = Callable[..., ReaderTrajectory]


def _make_static(field_radius: float, speed_mps: float) -> ReaderTrajectory:
    return StaticTrajectory(Point(0.0, 0.0))


def _make_aisle(field_radius: float, speed_mps: float) -> ReaderTrajectory:
    # Enter at the west edge, drive straight through the middle.
    return AisleTrajectory(
        start=Point(-field_radius, 0.0),
        heading=Point(1.0, 0.0),
        speed_mps=speed_mps,
    )


def _make_uav(field_radius: float, speed_mps: float) -> ReaderTrajectory:
    return LawnmowerTrajectory(
        half_width=field_radius,
        lane_spacing=max(field_radius / 3.0, 1e-9),
        speed_mps=speed_mps,
    )


_FACTORIES: Dict[str, _Factory] = {
    "static": _make_static,
    "aisle": _make_aisle,
    "uav": _make_uav,
}

#: Names accepted by :func:`make_trajectory` (CLI ``--trajectory``).
TRAJECTORY_NAMES: Tuple[str, ...] = ("static", "aisle", "uav", "waypoint")


def make_trajectory(
    name: str,
    *,
    field_radius: float = 30.0,
    speed_mps: float = 1.0,
    waypoints: Sequence[Point] = (),
) -> ReaderTrajectory:
    """Build a named trajectory scaled to the deployment.

    ``static``/``aisle``/``uav`` derive their geometry from
    ``field_radius`` (the paper's 30 m disk by default); ``waypoint``
    takes the explicit ``waypoints`` sequence.
    """
    if name == "waypoint":
        return WaypointTrajectory(tuple(waypoints), speed_mps=speed_mps)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown trajectory {name!r}; available: "
            f"{', '.join(TRAJECTORY_NAMES)}"
        ) from None
    return factory(field_radius, speed_mps)
