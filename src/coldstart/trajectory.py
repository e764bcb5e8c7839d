"""Desired-output trajectories: breakpoint tables, CSV input, controller-grid sampling.

A trajectory is stored as piecewise-linear breakpoints over time for the three
tracked outputs (AFR, crankshaft speed, exhaust temperature) and sampled onto
the fixed controller grid before a run.  The sampled form carries two extra
grid points past the run duration because the speed loop's cascade needs a
two-step lookahead of its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tables
from .errors import ConfigError
from .plant import real

COLUMNS = ("time", "afr_d", "omega_d", "t_exh_d")


class TargetWindow(NamedTuple):
    """Desired values one controller step consumes.

    The speed target is needed two steps ahead: the synthetic air-mass target
    issued now is tracked by the inner loop on the next step.
    """

    afr_d: float
    afr_d_next: float
    omega_d: float
    omega_d_next: float
    omega_d_next2: float
    t_exh_d: float
    t_exh_d_next: float


@dataclass(frozen=True)
class TrajectoryTable:
    """Piecewise-linear breakpoints of the desired outputs versus time [s]."""

    time: tuple[float, ...]
    afr_d: tuple[float, ...]
    omega_d: tuple[float, ...]
    t_exh_d: tuple[float, ...]

    def __post_init__(self):
        for name in COLUMNS:  # every cell a finite float, each column a tuple
            values = tuple(real(v, f"{name}[{i}]") for i, v in enumerate(getattr(self, name)))
            object.__setattr__(self, name, values)
        n = len(self.time)
        if n < 2:
            raise ConfigError("trajectory needs at least two breakpoints")
        if not (len(self.afr_d) == len(self.omega_d) == len(self.t_exh_d) == n):
            raise ConfigError("trajectory columns must all match the time column length")
        if self.time[0] != 0.0:
            raise ConfigError(f"trajectory must start at time 0, got {self.time[0]!r}")
        # compared, not subtracted: the step between two huge times overflows
        if not all(a < b for a, b in zip(self.time, self.time[1:])):
            raise ConfigError("trajectory time must be strictly increasing")
        if min(self.afr_d) <= 0.0:
            raise ConfigError("desired AFR must be positive everywhere")

    @classmethod
    def from_csv(cls, text: str) -> "TrajectoryTable":
        """Read the ``COLUMNS`` of a CSV table by the rule of every numeric
        CSV input (``tables``); any other column must hold numbers too."""
        header = tables.read_header(text, "trajectory")
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"trajectory file is missing column(s) {missing}")
        columns = tables.read_body(text, "trajectory", header, finite=True)
        return cls(**{c: tuple(columns[c].tolist()) for c in COLUMNS})

    def sample(self, T: float, duration: float) -> "SampledTrajectory":
        """Linear interpolation onto the controller grid (plus two lookahead points)."""
        if T <= 0.0:
            raise ConfigError(f"sample time must be positive, got {T!r}")
        if duration < 0.0:
            raise ConfigError(f"duration must be nonnegative, got {duration!r}")
        n_steps = int(round(duration / T))
        if abs(n_steps * T - duration) > 1e-9:
            raise ConfigError(
                f"duration {duration!r} is not an integer number of {T!r} s samples"
            )
        horizon = (n_steps + 1) * T
        if self.time[-1] < horizon - 1e-9:
            raise ConfigError(
                f"trajectory ends at {self.time[-1]!r} s but must cover {horizon!r} s "
                "(duration plus one sample)"
            )
        grid = np.arange(n_steps + 2, dtype=float) * T
        t = np.asarray(self.time, dtype=float)

        def column(values: tuple[float, ...]) -> tuple[float, ...]:
            return tuple(np.interp(grid, t, np.asarray(values, dtype=float)).tolist())

        return SampledTrajectory(
            T=T,
            afr_d=column(self.afr_d),
            omega_d=column(self.omega_d),
            t_exh_d=column(self.t_exh_d),
        )


@dataclass(frozen=True)
class SampledTrajectory:
    """Targets on the controller grid; columns cover indices 0 .. n_steps + 1.

    Columns are tuples of Python floats, so a step's window reads plain
    floats with no numpy scalar indexing.
    """

    T: float
    afr_d: tuple[float, ...]
    omega_d: tuple[float, ...]
    t_exh_d: tuple[float, ...]

    @property
    def n_steps(self) -> int:
        return len(self.afr_d) - 2

    def window(self, k: int) -> TargetWindow:
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step {k} outside trajectory horizon 0..{self.n_steps - 1}")
        afr_d, omega_d, t_exh_d = self.afr_d, self.omega_d, self.t_exh_d
        return TargetWindow(
            afr_d[k], afr_d[k + 1], omega_d[k], omega_d[k + 1], omega_d[k + 2],
            t_exh_d[k], t_exh_d[k + 1],
        )


def default_table(duration: float = 40.0) -> TrajectoryTable:
    """Shipped cold-start profile.

    Speed starts at the cranking condition (125 rad/s), rises to a fast idle
    of 167 rad/s within 1.5 s, holds, then descends linearly to a 100 rad/s
    idle by 25 s; AFR starts rich at 12.5 and ramps to stoichiometric 14.7
    over 20 s; the exhaust temperature target is a constant 650 degC.  The
    speed profile begins at the default initial state on purpose: a target
    step at t = 0 demands a one-step air-mass excursion far outside the
    pumping fit's validity.  Breakpoints include every kink of each profile,
    so linear interpolation reproduces the intended shapes exactly.
    """
    end = max(duration + 1.0, 26.0)
    return TrajectoryTable(
        time=(0.0, 1.5, 5.0, 20.0, 25.0, end),
        afr_d=(12.5, 12.665, 13.05, 14.7, 14.7, 14.7),
        omega_d=(125.0, 167.0, 167.0, 116.75, 100.0, 100.0),
        t_exh_d=(650.0, 650.0, 650.0, 650.0, 650.0, 650.0),
    )
