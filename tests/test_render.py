"""SVG/CSV export: counting contracts, byte stability, and the trajectory
marks against a form that formats each coordinate once per mark."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latopt.quadratic import (
    DEFAULT_START,
    Trajectory,
    default_quadratic,
    eg_first_order_trajectory,
    eg_full_hessian_trajectory,
    gd_trajectory,
)
from latopt.render import _COLORS, HEIGHT, WIDTH, _auto_bounds, render_trajectory

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


def test_csv_writes_numpy_scalar_values_as_python_floats():
    # a hand-built trajectory may hold numpy scalars; each is written as
    # the float64 repr of its value, never as ``np.float64(...)``
    q = default_quadratic()
    traj = gd_trajectory(q, DEFAULT_START, 0.025, 20)

    def rebuilt(f_values, grad_norms):
        return Trajectory(traj.method, traj.eta, traj.gamma, list(traj.points), f_values, grad_norms)

    _, want = render_trajectory([traj], q)
    f64, g64 = list(map(np.float64, traj.f_values)), list(map(np.float64, traj.grad_norms))
    _, got = render_trajectory([rebuilt(f64, g64)], q)
    assert got == want
    f32, g32 = list(map(np.float32, traj.f_values)), list(map(np.float32, traj.grad_norms))
    _, got32 = render_trajectory([rebuilt(f32, g32)], q)
    _, want32 = render_trajectory([rebuilt(list(map(float, f32)), list(map(float, g32)))], q)
    assert got32 == want32 and got32 != want
    assert "np." not in got + got32


def reference_marks(trajectories, bounds):
    """The trajectory marks and labels as the renderer wrote them before it
    formatted each coordinate once: ``%.6f`` in both the polyline and the
    circle run."""
    xmin, xmax, ymin, ymax = bounds
    out = []
    for k, traj in enumerate(trajectories):
        color = _COLORS[k % len(_COLORS)]
        pts = np.asarray(traj.points, dtype=np.float64)
        xy = np.column_stack(
            ((pts[:, 0] - xmin) / (xmax - xmin) * WIDTH, HEIGHT - (pts[:, 1] - ymin) / (ymax - ymin) * HEIGHT)
        )
        if len(xy) > 1:
            path = " ".join(["%.6f,%.6f"] * len(xy)) % tuple(xy.ravel().tolist())
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        circle = f'<circle cx="%.6f" cy="%.6f" r="2" fill="{color}"/>\n'
        out.append("".join([circle] * len(xy)) % tuple(xy.ravel().tolist()))
        label = f"{traj.method} eta={traj.eta:g} gamma={traj.gamma:g}"
        out.append(
            f'<text x="10" y="{18 * (k + 1)}" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>\n'
        )
    return "".join(out) + "</svg>\n"


coordinate = st.builds(lambda s, e: s * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(-6.0, 6.0))
trajectory_points = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=300)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(runs=st.lists(trajectory_points, min_size=1, max_size=3))
def test_trajectory_marks_match_the_twice_formatted_reference(runs):
    q = default_quadratic()
    trajs = [
        Trajectory("gd", 0.025, 0.0, [np.array(p) for p in run], [1.0] * len(run), [1.0] * len(run)) for run in runs
    ]
    bounds = _auto_bounds([np.array(run) for run in runs])
    assume(bounds[1] > bounds[0] and bounds[3] > bounds[2])
    svg, _ = render_trajectory(trajs, q)
    want = reference_marks(trajs, bounds)
    assert svg.endswith(want)
    for k, run in enumerate(runs):
        color = _COLORS[k % len(_COLORS)]
        circles = re.findall(rf'<circle cx="([^"]*)" cy="([^"]*)" r="2" fill="{color}"/>', svg)
        assert len(circles) == len(run)
        if len(run) > 1:
            (path,) = re.findall(rf'<polyline points="([^"]*)" fill="none" stroke="{color}"', svg)
            assert [tuple(v.split(",")) for v in path.split(" ")] == circles
