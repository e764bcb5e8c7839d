"""Trajectory table validation, CSV round trip, grid sampling."""

import numpy as np
import pytest

from coldstart.errors import ConfigError
from coldstart.trajectory import SampledTrajectory, TrajectoryTable, default_table
from lab_helpers import trajectory_csv


def test_default_table_shapes():
    table = default_table(40.0)
    sampled = table.sample(T=0.02, duration=40.0)
    assert sampled.n_steps == 2000
    assert len(sampled.afr_d) == 2002
    # endpoints and kink values of the shipped profile
    assert sampled.omega_d[0] == 125.0
    assert sampled.afr_d[0] == 12.5
    assert sampled.t_exh_d[-1] == 650.0
    # the descent segment passes through its breakpoint value exactly
    assert np.interp(20.0, (5, 25), (167, 100)) == pytest.approx(116.75)
    assert sampled.omega_d[-1] == 100.0
    assert sampled.afr_d[-1] == pytest.approx(14.7)


def test_sampling_linear_interpolation_exact():
    table = TrajectoryTable(
        time=(0.0, 1.0, 2.0),
        afr_d=(10.0, 12.0, 12.0),
        omega_d=(100.0, 100.0, 120.0),
        t_exh_d=(650.0, 650.0, 650.0),
    )
    s = table.sample(T=0.25, duration=1.5)
    assert s.afr_d[1] == pytest.approx(10.5)   # t = 0.25 on the 10 -> 12 ramp
    assert s.omega_d[5] == pytest.approx(105.0)  # t = 1.25 on the 100 -> 120 ramp


def test_csv_round_trip():
    table = default_table()
    again = TrajectoryTable.from_csv(trajectory_csv(table))
    assert again == table


def test_missing_column_is_named():
    with pytest.raises(ConfigError) as err:
        TrajectoryTable.from_csv("time,afr_d,omega_d\n0,12,160\n1,12,160\n")
    assert "t_exh_d" in str(err.value)


def test_non_numeric_cell_is_located():
    for text, line in (
        ("time,afr_d,omega_d,t_exh_d\n0,12,160,650\n1,oops,160,650\n", 3),
        # blank lines are skipped, but the reported line is still the physical one
        ("time,afr_d,omega_d,t_exh_d\n0,12,160,650\n\n\n1,oops,160,650\n", 5),
    ):
        with pytest.raises(ConfigError) as err:
            TrajectoryTable.from_csv(text)
        assert f"line {line}:" in str(err.value) and "afr_d" in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "time,afr_d,omega_d,t_exh_d\n0,12,160,650\n1,nan,160,650\n",
            "trajectory line 3: column 'afr_d' is not finite: 'nan'",
        ),
        (
            "time,afr_d,omega_d,t_exh_d\n0,12,160,650,1,2\n1,12,160,650\n",
            "trajectory line 2: cell 5 is past the 4 named columns",
        ),
        (
            "time,afr_d,omega_d,t_exh_d,time\n0,12,160,650,5\n1,12,160,650,6\n",
            "trajectory line 1: column 'time' is named twice",
        ),
        (
            "time,afr_d,omega_d,t_exh_d,note\n0,12,160,650,a\n1,12,160,650,b\n",
            "trajectory line 2: column 'note' is not a number: 'a'",
        ),
    ],
)
def test_trajectory_file_follows_the_data_csv_rule(text, message):
    with pytest.raises(ConfigError) as err:
        TrajectoryTable.from_csv(text)
    assert str(err.value) == message


def test_time_must_start_at_zero_and_increase():
    with pytest.raises(ConfigError):
        TrajectoryTable((1.0, 2.0), (12.0, 12.0), (160.0, 160.0), (650.0, 650.0))
    with pytest.raises(ConfigError):
        TrajectoryTable((0.0, 0.0), (12.0, 12.0), (160.0, 160.0), (650.0, 650.0))
    # a step too wide for a float is still a decrease, not a numpy overflow warning
    with pytest.raises(ConfigError, match="strictly increasing"):
        TrajectoryTable((0.0, 1e308, -1e308), (12.0,) * 3, (160.0,) * 3, (650.0,) * 3)


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("afr_d", ("a", "b"), "afr_d[0] must be a number, got 'a'"),
        ("time", (0.0, "x"), "time[1] must be a number, got 'x'"),
        ("omega_d", (1.0, None), "omega_d[1] must be a number, got None"),
        ("t_exh_d", (650.0, float("inf")), "t_exh_d[1] must be a finite number, got inf"),
    ],
)
def test_a_cell_that_is_no_finite_number_is_named(column, values, message):
    columns = {"time": (0.0, 1.0), "afr_d": (12.0, 12.0), "omega_d": (160.0, 160.0),
               "t_exh_d": (650.0, 650.0)}
    with pytest.raises(ConfigError) as err:
        TrajectoryTable(**{**columns, column: values})
    assert str(err.value) == message


def test_columns_are_stored_as_tuples_of_floats():
    table = TrajectoryTable([0, 1], [12, 12.5], [160.0, 160.0], [650.0, 650.0])
    assert table.time == (0.0, 1.0) and type(table.time[1]) is float
    assert table.afr_d == (12.0, 12.5)


def test_afr_must_be_positive():
    with pytest.raises(ConfigError):
        TrajectoryTable((0.0, 1.0), (0.0, 12.0), (160.0, 160.0), (650.0, 650.0))


def test_sample_rejects_short_table():
    table = TrajectoryTable((0.0, 1.0), (12.0, 12.0), (160.0, 160.0), (650.0, 650.0))
    with pytest.raises(ConfigError) as err:
        table.sample(T=0.02, duration=2.0)
    assert "cover" in str(err.value)


def test_sample_rejects_off_grid_duration():
    table = default_table()
    with pytest.raises(ConfigError):
        table.sample(T=0.02, duration=1.0101)


def test_window_bounds_and_lookahead():
    table = default_table()
    s = table.sample(T=0.02, duration=1.0)
    w = s.window(0)
    assert w.omega_d == 125.0
    assert w.omega_d_next2 == pytest.approx(125.0 + 2 * 0.02 * (167.0 - 125.0) / 1.5)
    s.window(s.n_steps - 1)
    with pytest.raises(IndexError):
        s.window(s.n_steps)
    with pytest.raises(IndexError):
        s.window(-1)
