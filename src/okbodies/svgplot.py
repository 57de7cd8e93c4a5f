"""SVG 1.1 rendering of 2-D bodies.

The body is intersected exactly with the rational viewing window as
half-planes: an NOBody2D gives its own (`NOBody2D.halfplanes`, labelled
at the breakpoints of `NOBody2D.boundary`); a 2-D VPolyhedron's are
built here from its generator pairs (labelled at its vertices).  The
clipped polygon is drawn filled, with hatch marks on every window edge
that truncates an unbounded direction.  All coordinates are produced
from exact rationals by one rule (20 significant decimal digits); labels
show the exact Fraction text, "p/q" or "p".
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import List, Tuple

from .curves import NOBody2D
from .errors import DimensionMismatch, WindowEmpty
from .polyhedra import HPolyhedron, VPolyhedron, enumerate_v_rep
from .rationals import to_decimal20

WIDTH, HEIGHT, MARGIN = 640, 480, 50


def _vpoly_halfplanes(v: VPolyhedron) -> List[Tuple[Tuple[Fraction, Fraction], Fraction]]:
    """H-representation of a 2-D V-polyhedron: candidate edge lines from
    generator pairs, kept when all generators sit on the >= side.  When
    the generators are collinear those lines only pin the body to its
    line, so the lines across it through every point are candidates too:
    they cap a segment or a half-line (a lone point in both axes)."""
    gens_pt = list(v.vertices)
    gens_ray = list(v.rays)
    directions = []
    for i, p in enumerate(gens_pt):
        for q in gens_pt[i + 1:]:
            directions.append((p, (q[0] - p[0], q[1] - p[1])))
        for r in gens_ray:
            directions.append((p, r))
    directions = [(p, d) for p, d in directions if d != (0, 0)]
    rows = []

    def keep(p, normal):
        b = normal[0] * p[0] + normal[1] * p[1]
        if all(normal[0] * q[0] + normal[1] * q[1] >= b for q in gens_pt) and \
           all(normal[0] * r[0] + normal[1] * r[1] >= 0 for r in gens_ray):
            rows.append(((Fraction(normal[0]), Fraction(normal[1])), Fraction(b)))

    for p, d in directions:
        keep(p, (-d[1], d[0]))
        keep(p, (d[1], -d[0]))
    along = [d for _, d in directions[:1]] or [(1, 0), (0, 1)]
    if all(along[0][0] * e[1] == along[0][1] * e[0] for _, e in directions):
        for d in along:
            for p in gens_pt:
                keep(p, d)
                keep(p, (-d[0], -d[1]))
    return rows


def _clip(rows, window) -> List[Tuple[Fraction, Fraction]]:
    """Vertices of the body intersected with the window, in boundary order."""
    x0, x1, y0, y1 = window
    box = [((Fraction(1), Fraction(0)), x0), ((Fraction(-1), Fraction(0)), -x1),
           ((Fraction(0), Fraction(1)), y0), ((Fraction(0), Fraction(-1)), -y1)]
    poly = HPolyhedron(2, list(rows) + box)
    vrep = enumerate_v_rep(poly)
    pts = list(vrep.vertices)
    if len(pts) < 3:
        return pts
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    # exact angular sort around the centroid via cross products
    def cross(p, q):
        return (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)

    def compare(p, q):
        hp = 0 if (p[1] > cy or (p[1] == cy and p[0] > cx)) else 1
        hq = 0 if (q[1] > cy or (q[1] == cy and q[0] > cx)) else 1
        if hp != hq:
            return -1 if hp < hq else 1
        c = cross(p, q)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return sorted(pts, key=functools.cmp_to_key(compare))


class _Canvas:
    def __init__(self, window):
        self.x0, self.x1, self.y0, self.y1 = window
        self.sx = Fraction(WIDTH - 2 * MARGIN) / (self.x1 - self.x0)
        self.sy = Fraction(HEIGHT - 2 * MARGIN) / (self.y1 - self.y0)
        self.parts: List[str] = []

    def px(self, x: Fraction) -> str:
        return to_decimal20(MARGIN + (Fraction(x) - self.x0) * self.sx)

    def py(self, y: Fraction) -> str:
        return to_decimal20(HEIGHT - MARGIN - (Fraction(y) - self.y0) * self.sy)

    def line(self, a, b, style):
        self.parts.append(
            f'<line x1="{self.px(a[0])}" y1="{self.py(a[1])}" '
            f'x2="{self.px(b[0])}" y2="{self.py(b[1])}" style="{style}"/>')

    def text(self, pos, s, dy="-6"):
        self.parts.append(
            f'<text x="{self.px(pos[0])}" y="{self.py(pos[1])}" dy="{dy}" '
            f'font-size="11" font-family="monospace">{s}</text>')


def _axes(cv: _Canvas):
    style = "stroke:#444;stroke-width:1"
    if cv.x0 <= 0 <= cv.x1:
        cv.line((Fraction(0), cv.y0), (Fraction(0), cv.y1), style)
    if cv.y0 <= 0 <= cv.y1:
        cv.line((cv.x0, Fraction(0)), (cv.x1, Fraction(0)), style)
    cv.text((cv.x0, cv.y0), f"[{cv.x0!s},{cv.x1!s}] x [{cv.y0!s},{cv.y1!s}]", dy="14")


def _hatch(cv: _Canvas, polygon, side: str):
    """Hatch marks along polygon edges lying on one window boundary."""
    # the side's axis, its boundary value, and the mark's direction in x
    # and y, in units of 1/60 of the window
    axis, bound, sx, sy = {"right": (0, cv.x1, -1, -1), "left": (0, cv.x0, 1, -1),
                           "top": (1, cv.y1, -1, -1), "bottom": (1, cv.y0, -1, 1)}[side]
    dx, dy = sx * (cv.x1 - cv.x0) / 60, sy * (cv.y1 - cv.y0) / 60
    n = len(polygon)
    style = "stroke:#888;stroke-width:1"
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        if a[axis] == bound and b[axis] == bound and a != b:
            for k in range(1, 9):
                t = Fraction(k, 9)
                mx = a[0] + (b[0] - a[0]) * t
                my = a[1] + (b[1] - a[1]) * t
                cv.line((mx, my), (mx + dx, my + dy), style)


def _truncated_sides(rays) -> List[str]:
    sides = []
    for r in rays:
        if r[0] > 0:
            sides.append("right")
        if r[0] < 0:
            sides.append("left")
        if r[1] > 0:
            sides.append("top")
        if r[1] < 0:
            sides.append("bottom")
    return sorted(set(sides))


def render_svg(body, window) -> str:
    """SVG text for a body clipped to window = (x0, x1, y0, y1)."""
    window = tuple(Fraction(w) for w in window)
    x0, x1, y0, y1 = window
    if not (x0 < x1 and y0 < y1):
        raise WindowEmpty(f"degenerate window {window}")
    cv = _Canvas(window)
    cv.parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    cv.parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    _axes(cv)

    if isinstance(body, NOBody2D):
        rows = body.halfplanes()
        rays = [body.recession]
        labels = body.boundary.breakpoints
    elif isinstance(body, VPolyhedron):
        if not body.is_empty() and body.dimension != 2:
            raise DimensionMismatch(
                f"only 2-D bodies can be rendered; this body is {body.dimension}-D")
        rows = None if body.is_empty() else _vpoly_halfplanes(body)
        rays = list(body.rays)
        labels = list(body.vertices)
    else:
        raise TypeError(f"cannot render {type(body).__name__}")

    if rows is not None:
        polygon = _clip(rows, window)
        if polygon:
            if len(polygon) >= 3:
                path = " ".join(f"{cv.px(p[0])},{cv.py(p[1])}" for p in polygon)
                cv.parts.append(
                    f'<polygon points="{path}" '
                    f'style="fill:#9ecae1;fill-opacity:0.7;stroke:#3182bd;stroke-width:1.5"/>')
            elif len(polygon) == 2:
                cv.line(polygon[0], polygon[1], "stroke:#3182bd;stroke-width:2")
            else:
                p = polygon[0]
                cv.parts.append(
                    f'<circle cx="{cv.px(p[0])}" cy="{cv.py(p[1])}" r="3" fill="#3182bd"/>')
            for side in _truncated_sides(rays):
                _hatch(cv, polygon, side)
        for t, v in labels:
            if x0 <= t <= x1 and y0 <= v <= y1:
                cv.parts.append(
                    f'<circle cx="{cv.px(t)}" cy="{cv.py(v)}" r="2.5" fill="#e6550d"/>')
                cv.text((t, v), f"({t!s}, {v!s})")

    cv.parts.append("</svg>")
    return "\n".join(cv.parts) + "\n"
