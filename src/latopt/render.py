"""Deterministic SVG and CSV export of quadratic optimization trajectories.

Level sets of a positive-definite quadratic are ellipses, so contour lines
are drawn analytically (no grid marching). All floating-point output is
formatted with fixed precision, which makes the SVG byte-stable across
runs for identical inputs.
"""

from __future__ import annotations

import io

import numpy as np

from .quadratic import Quadratic

CSV_COLUMNS = ("method", "step", "w1", "w2", "f", "gradnorm")

_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e")

WIDTH, HEIGHT = 640, 480
N_LEVELS = 8  # geometrically spaced level sets
SAMPLES_PER_CONTOUR = 180
PAD_FRAC = 0.15  # margin around the trajectories, as a share of their span


def _auto_bounds(points):
    pts = np.concatenate(points)
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    span = max(xmax - xmin, ymax - ymin)
    if span == 0.0:
        span = 1.0  # single point: pad a unit box around it
    half = span / 2.0 + span * PAD_FRAC
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    return (cx - half, cx + half, cy - half, cy + half)


def _contour_levels(q: Quadratic, f_star: float, bounds):
    corners = [
        q.f((x, y))
        for x in (bounds[0], bounds[1])
        for y in (bounds[2], bounds[3])
    ]
    top = max(corners) - f_star
    lo = top * 2e-3
    ratio = (top / lo) ** (1.0 / (N_LEVELS - 1))
    return [f_star + lo * ratio**i for i in range(N_LEVELS)]


def _fill(template: str, values, sep: str = "") -> str:
    """``template`` once per pair of the flat ``values`` (x0, y0, x1, ...),
    joined by ``sep`` and filled in one %-format call; ``%.6f`` formats as
    ``f"{x:.6f}"``, and ``%s`` of its string gives the same bytes."""
    return sep.join([template] * (len(values) // 2)) % tuple(values)


def render_trajectory(trajectories, q: Quadratic) -> tuple[str, str]:
    """Render trajectories over contour lines of f.

    Returns (svg document, csv text). CSV columns are fixed:
    method,step,w1,w2,f,gradnorm with one row per recorded point.
    """
    if not trajectories:
        raise ValueError("render_trajectory: need at least one trajectory")
    for k, t in enumerate(trajectories):
        if len(t) == 0:
            raise ValueError(f"render_trajectory: trajectory {k} ({t.method}) has no points")
    points = [np.asarray(traj.points, dtype=np.float64) for traj in trajectories]
    bounds = _auto_bounds(points)
    xmin, xmax, ymin, ymax = bounds
    if not (xmax > xmin and ymax > ymin):  # points too far out for the margin to register
        raise ValueError(f"render_trajectory: degenerate bounding box {tuple(map(float, bounds))}")

    def screen(pts):
        """Canvas coordinates of the (n, 2) points, flat (x0, y0, x1, ...): the
        scalar maps of x and y applied per column, one IEEE op per element as
        in the scalar form."""
        return np.column_stack(
            ((pts[:, 0] - xmin) / (xmax - xmin) * WIDTH, HEIGHT - (pts[:, 1] - ymin) / (ymax - ymin) * HEIGHT)
        ).ravel().tolist()

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    )
    out.write(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')

    # level sets are ellipses around the minimizer with radii sqrt(excess / lam)
    lam, vecs = q.eigen()
    w_star = q.minimizer()
    f_star = q.f(w_star)
    theta = np.linspace(0.0, 2.0 * np.pi, SAMPLES_PER_CONTOUR, endpoint=True)
    cos, sin = np.cos(theta), np.sin(theta)
    for level in _contour_levels(q, f_star, bounds):
        excess = level - f_star
        if excess <= 0:
            continue
        radii = np.sqrt(excess / lam)
        pts = (vecs @ np.stack([radii[0] * cos, radii[1] * sin])).T + w_star
        path = _fill("%.6f,%.6f", screen(pts), " ")
        out.write(f'<polyline points="{path}" fill="none" stroke="#bbbbbb" stroke-width="1"/>\n')

    for k, (traj, pts) in enumerate(zip(trajectories, points)):
        color = _COLORS[k % len(_COLORS)]
        coords = _fill("%.6f %.6f ", screen(pts)).split()  # each coordinate formatted once
        if len(coords) > 2:
            path = _fill("%s,%s", coords, " ")
            out.write(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        out.write(_fill(f'<circle cx="%s" cy="%s" r="2" fill="{color}"/>\n', coords))
        label = f"{traj.method} eta={traj.eta:g} gamma={traj.gamma:g}"
        out.write(
            f'<text x="10" y="{18 * (k + 1)}" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>\n'
        )
    out.write("</svg>\n")

    csv = io.StringIO()
    csv.write(",".join(CSV_COLUMNS) + "\n")
    for traj, pts in zip(trajectories, points):
        # Python floats, as for the points: a numpy scalar's repr is np.float64(...)
        rows = zip(pts.tolist(), map(float, traj.f_values), map(float, traj.grad_norms))
        csv.write(
            "".join(
                [
                    f"{traj.method},{step},{w1!r},{w2!r},{fv!r},{gn!r}\n"
                    for step, ((w1, w2), fv, gn) in enumerate(rows)
                ]
            )
        )
    return out.getvalue(), csv.getvalue()


def write_outputs(trajectories, q, svg_path=None, csv_path=None):
    svg, csv = render_trajectory(trajectories, q)
    if svg_path:
        with open(svg_path, "w") as fh:
            fh.write(svg)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(csv)
