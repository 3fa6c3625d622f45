"""SVG/CSV export: counting contracts and byte stability."""

from pathlib import Path

import pytest

from latopt.quadratic import (
    DEFAULT_START,
    Trajectory,
    default_quadratic,
    eg_first_order_trajectory,
    eg_full_hessian_trajectory,
    gd_trajectory,
)
from latopt.render import render_trajectory

GOLDEN_SVG = Path(__file__).parent / "goldens" / "trajectories.svg"
GOLDEN_CSV = Path(__file__).parent / "goldens" / "trajectories.csv"


def fig_trajectories():
    q = default_quadratic()
    return q, [
        gd_trajectory(q, DEFAULT_START, 0.025, 200),
        eg_first_order_trajectory(q, DEFAULT_START, 0.025, 0.01, 200),
        eg_full_hessian_trajectory(q, DEFAULT_START, 0.1, 0.01, 200),
    ]


def test_requires_a_trajectory():
    q = default_quadratic()
    with pytest.raises(ValueError):
        render_trajectory([], q)


def test_single_point_trajectory():
    q = default_quadratic()
    traj = Trajectory("gd", 0.0, 0.0, points=[__import__("numpy").array([0.1, 0.2])], f_values=[q.f((0.1, 0.2))], grad_norms=[1.0])
    svg, csv = render_trajectory([traj], q)
    assert svg.count("<circle") == 1
    rows = csv.strip().splitlines()
    assert rows[0] == "method,step,w1,w2,f,gradnorm"
    assert len(rows) == 2


def test_csv_row_count_is_sum_of_lengths():
    q, trajs = fig_trajectories()
    _, csv = render_trajectory(trajs, q)
    expected = sum(len(t) for t in trajs)
    assert len(csv.strip().splitlines()) == 1 + expected


def test_degenerate_auto_bounds_rejected():
    # at 1e17 the margin of a single point's unit box rounds away: zero width
    q = default_quadratic()
    traj = gd_trajectory(q, (1e17, 0.0), 0.025, 0)
    with pytest.raises(ValueError, match="degenerate bounding box"):
        render_trajectory([traj], q)


def test_empty_trajectory_rejected_by_index():
    # a start where f overflows gives a trajectory with no points
    q = default_quadratic()
    empty = gd_trajectory(q, (1e200, 0.0), 0.025, 5)
    assert len(empty) == 0
    full = gd_trajectory(q, DEFAULT_START, 0.025, 5)
    for trajs, k in (([empty], 0), ([full, empty], 1)):
        with pytest.raises(ValueError, match=rf"^render_trajectory: trajectory {k} \(gd\) has no points$"):
            render_trajectory(trajs, q)


def test_svg_byte_stable_and_matches_golden():
    q, trajs = fig_trajectories()
    svg1, _ = render_trajectory(trajs, q)
    svg2, _ = render_trajectory(trajs, q)
    assert svg1 == svg2
    assert svg1 == GOLDEN_SVG.read_text()


def test_csv_matches_golden():
    # the figure's three trajectories plus one cut short by a non-finite iterate
    q, trajs = fig_trajectories()
    truncated = gd_trajectory(q, DEFAULT_START, 5.0, 400)
    assert truncated.truncated and len(truncated) == 59
    _, csv = render_trajectory(trajs + [truncated], q)
    assert csv == GOLDEN_CSV.read_text()


def test_csv_column_order_fixed():
    q, trajs = fig_trajectories()
    _, csv = render_trajectory(trajs, q)
    header, first = csv.splitlines()[:2]
    assert header == "method,step,w1,w2,f,gradnorm"
    fields = first.split(",")
    assert fields[0] == "gd" and fields[1] == "0"
    assert float(fields[2]) == DEFAULT_START[0] and float(fields[3]) == DEFAULT_START[1]
