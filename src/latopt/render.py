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


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _auto_bounds(trajectories):
    pts = np.concatenate([np.asarray(t.points) for t in trajectories])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    span = max(xmax - xmin, ymax - ymin)
    if span == 0.0:
        span = 1.0  # single point: pad a unit box around it
    half = span / 2.0 + span * PAD_FRAC
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    return (cx - half, cx + half, cy - half, cy + half)


def _contour_levels(q: Quadratic, bounds):
    f_star = q.f(q.minimizer())
    corners = [
        q.f((x, y))
        for x in (bounds[0], bounds[1])
        for y in (bounds[2], bounds[3])
    ]
    top = max(corners) - f_star
    lo = top * 2e-3
    ratio = (top / lo) ** (1.0 / (N_LEVELS - 1))
    return [f_star + lo * ratio**i for i in range(N_LEVELS)]


def _ellipse_points(q: Quadratic, level: float):
    lam, vecs = q.eigen()
    w_star = q.minimizer()
    excess = level - q.f(w_star)
    if excess <= 0:
        return None
    radii = np.sqrt(excess / lam)
    theta = np.linspace(0.0, 2.0 * np.pi, SAMPLES_PER_CONTOUR, endpoint=True)
    circle = np.stack([radii[0] * np.cos(theta), radii[1] * np.sin(theta)])
    return (vecs @ circle).T + w_star


def render_trajectory(trajectories, q: Quadratic) -> tuple[str, str]:
    """Render trajectories over contour lines of f.

    Returns (svg document, csv text). CSV columns are fixed:
    method,step,w1,w2,f,gradnorm with one row per recorded point.
    """
    if not trajectories:
        raise ValueError("render_trajectory: need at least one trajectory")
    bounds = _auto_bounds(trajectories)
    xmin, xmax, ymin, ymax = bounds
    if not (xmax > xmin and ymax > ymin):  # points too far out for the margin to register
        raise ValueError(f"render_trajectory: degenerate bounding box {bounds}")

    def sx(x):
        return (x - xmin) / (xmax - xmin) * WIDTH

    def sy(y):
        return HEIGHT - (y - ymin) / (ymax - ymin) * HEIGHT

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    )
    out.write(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')

    for level in _contour_levels(q, bounds):
        pts = _ellipse_points(q, level)
        if pts is None:
            continue
        path = " ".join(f"{_fmt(sx(p[0]))},{_fmt(sy(p[1]))}" for p in pts)
        out.write(f'<polyline points="{path}" fill="none" stroke="#bbbbbb" stroke-width="1"/>\n')

    for k, traj in enumerate(trajectories):
        color = _COLORS[k % len(_COLORS)]
        pts = [(sx(p[0]), sy(p[1])) for p in traj.points]
        if len(pts) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            out.write(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
            )
        for x, y in pts:
            out.write(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" fill="{color}"/>\n')
        label = f"{traj.method} eta={traj.eta:g} gamma={traj.gamma:g}"
        out.write(
            f'<text x="10" y="{18 * (k + 1)}" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>\n'
        )
    out.write("</svg>\n")

    csv = io.StringIO()
    csv.write(",".join(CSV_COLUMNS) + "\n")
    for traj in trajectories:
        for step, (p, fv, gn) in enumerate(zip(traj.points, traj.f_values, traj.grad_norms)):
            csv.write(
                f"{traj.method},{step},{float(p[0])!r},{float(p[1])!r},{float(fv)!r},{float(gn)!r}\n"
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
    return svg, csv
