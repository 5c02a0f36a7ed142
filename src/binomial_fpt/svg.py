"""Deterministic SVG figures of splitting polytopes.

The geometry is exact: each panel maps, tests and clips points in
integers, on the numerators and denominators of their coordinates, and
rounds each pixel coordinate once, by one int / int division, to a
float written with 12 significant digits.  Given a prime, the figure
gains a legend with the carry data and a zoomed inset around the
truncation of the maximal point, where the candidate points and the
epsilon segment actually become visible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .base_p import truncate
from .engine import Binomial, FptCase, FptResult, carry_step
from .parsing import binomial_to_text
from .polytope import Point2, SplittingMatrix, build, maximal_point, vertices

_FILL = "#d7e7f5"
_EDGE = "#1f4e79"
_ETA = "#c0392b"
_CAND = "#7d3c98"
_EPS = "#1e8449"
_GRID = "#8a8a8a"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Panel:
    """Maps the exact square window [x0, x0 + span]^2 onto a size-pixel
    square at (px, py), y flipped, through one scale size / span.  The
    window's bounds are integers over one denominator w, and span = s/w,
    so a coordinate n/d lands at pixel (n*k + d*c) / (d*s): one int / int
    division, correctly rounded, so the float of that exact rational.
    `_within` is the one test of a point, given as integer numerators
    over positive denominators, against the window."""

    def __init__(self, x0, y0, span, px, py, size):
        self.x0, self.y0 = Fraction(x0), Fraction(y0)
        self.x1, self.y1 = self.x0 + span, self.y0 + span
        self.px, self.py, self.size = px, py, size
        w = lcm(self.x0.denominator, self.y0.denominator, Fraction(span).denominator)
        xn, yn, s = (int(v * w) for v in (self.x0, self.y0, span))
        self._w, self._s, self._k = w, s, w * size
        self._bounds = (xn, xn + s, yn, yn + s)
        self._cx = px * s - xn * size
        self._cy = (py + size) * s + yn * size

    def x(self, wx: Fraction) -> str:
        n, d = wx.numerator, wx.denominator
        return _fmt((n * self._k + d * self._cx) / (d * self._s))

    def y(self, wy: Fraction) -> str:
        n, d = wy.numerator, wy.denominator
        return _fmt((d * self._cy - n * self._k) / (d * self._s))

    def _within(self, xn: int, xd: int, yn: int, yd: int) -> bool:
        x0, x1, y0, y1 = self._bounds
        xw, yw = xn * self._w, yn * self._w
        return x0 * xd <= xw <= x1 * xd and y0 * yd <= yw <= y1 * yd

    def inside(self, pt: Point2) -> bool:
        s1, s2 = pt
        return self._within(s1.numerator, s1.denominator, s2.numerator, s2.denominator)

    def clip_line(self, a: int, b: int, c: int = 1) -> tuple[Point2, Point2] | None:
        """Segment of a*x + b*y = c inside the window, if any."""
        w, (x0, x1, y0, y1) = self._w, self._bounds
        hits: list[Point2] = []
        if b != 0:
            for xn, wx in ((x0, self.x0), (x1, self.x1)):
                yn, yd = (c * w - a * xn, b * w) if b > 0 else (a * xn - c * w, -b * w)
                if self._within(xn, w, yn, yd):
                    hits.append(Point2(wx, Fraction(yn, yd)))
        if a != 0:
            for yn, wy in ((y0, self.y0), (y1, self.y1)):
                xn, xd = (c * w - b * yn, a * w) if a > 0 else (b * yn - c * w, -a * w)
                if self._within(xn, xd, yn, w):
                    hits.append(Point2(Fraction(xn, xd), wy))
        lo, hi = min(hits, default=None), max(hits, default=None)
        return None if lo == hi else (lo, hi)

    def line(self, p1: Point2, p2: Point2, stroke: str, width="1.5", dash=None) -> str:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<line x1="{self.x(p1.s1)}" y1="{self.y(p1.s2)}" '
            f'x2="{self.x(p2.s1)}" y2="{self.y(p2.s2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr} />'
        )

    def dot(self, pt: Point2, color: str, r="4") -> str:
        return (
            f'<circle cx="{self.x(pt.s1)}" cy="{self.y(pt.s2)}" r="{r}" '
            f'fill="{color}" />'
        )

    def text(self, pt: Point2, content: str, dx=6, dy=-6, size="11") -> str:
        x = float(self.x(pt.s1)) + dx
        y = float(self.y(pt.s2)) + dy
        return (
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace">{content}</text>'
        )


def _truncated(eta: Point2, p: int, e: int) -> Point2:
    return Point2(truncate(eta.s1, p, e), truncate(eta.s2, p, e))


def _boundary_ring(verts: tuple[Point2, ...]) -> list[Point2]:
    origin = Point2(Fraction(0), Fraction(0))
    others = sorted(
        (v for v in verts if v != origin), key=lambda v: (v.s1, -v.s2)
    )
    return [origin, *others]


def polytope_figure(
    g: Binomial, prime: int | None = None, level: int | None = None
) -> str:
    matrix = build(g.a, g.b)
    verts = vertices(matrix)
    mp = maximal_point(matrix)

    # P reaches farthest at its axis vertices (1/max a_i, 0) and (0, 1/max b_i)
    m = max(max(v) for v in verts) * Fraction(11, 10)
    main = _Panel(0, 0, m, 70, 50, 470)

    result = None if prime is None or mp is None else carry_step(matrix, mp, prime)
    trunc_pt = step = None
    if result is not None and result.deltas:
        trunc_pt = _truncated(mp.point, prime, result.d)
        step = Fraction(1, prime**result.d)

    width = 620 if trunc_pt is None else 1020
    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="600" '
        f'viewBox="0 0 {width} 600">'
    )
    out.append('<rect width="100%" height="100%" fill="white" />')
    out.append(
        '<text x="70" y="30" font-size="14" font-family="monospace">'
        f"splitting polytope of {_escape(binomial_to_text(g))}</text>"
    )
    _draw_panel(out, main, matrix, verts, mp, result, trunc_pt, step, labels=True)
    if mp is not None and level is not None and prime is not None:
        lv = _truncated(mp.point, prime, level)
        out.append(main.dot(lv, _GRID, r="3"))
        out.append(main.text(lv, f"trunc level {level}", dx=6, dy=12))

    out.extend(_legend(matrix, mp, prime, result))

    if trunc_pt is not None:
        pad = step / 2
        inset = _Panel(trunc_pt.s1 - pad, trunc_pt.s2 - pad, 3 * step, 640, 120, 330)
        out.append(
            f'<rect x="{inset.px}" y="{inset.py}" width="{inset.size}" '
            f'height="{inset.size}" fill="none" stroke="{_GRID}" stroke-width="1" />'
        )
        out.append(
            '<text x="640" y="110" font-size="12" font-family="monospace">'
            "zoom near the truncated maximal point</text>"
        )
        _draw_panel(out, inset, matrix, verts, mp, result, trunc_pt, step, labels=False)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _draw_panel(
    out: list[str],
    panel: _Panel,
    matrix: SplittingMatrix,
    verts: tuple[Point2, ...],
    mp,
    result: FptResult | None,
    trunc_pt: Point2 | None,
    step: Fraction | None,
    labels: bool,
) -> None:
    if labels:
        ring = _boundary_ring(verts)
        points = " ".join(f"{panel.x(v.s1)},{panel.y(v.s2)}" for v in ring)
        out.append(f'<polygon points="{points}" fill="{_FILL}" stroke="none" />')
        zero = Fraction(0)
        out.append(panel.line(Point2(zero, panel.y0), Point2(zero, panel.y1), "black", "1"))
        out.append(panel.line(Point2(panel.x0, zero), Point2(panel.x1, zero), "black", "1"))
        out.append(panel.text(Point2(panel.x1, zero), "s1", dx=-14, dy=16))
        out.append(panel.text(Point2(zero, panel.y1), "s2", dx=-16, dy=4))
    for a, b in matrix.rows:
        seg = panel.clip_line(a, b)
        if seg:
            out.append(panel.line(seg[0], seg[1], _EDGE))
            if labels:
                out.append(
                    panel.text(seg[0], f"{a} s1 + {b} s2 = 1", dx=4, dy=-4, size="10")
                )
    if mp is not None:
        total = mp.sum
        # the sum line s1 + s2 = |eta|, clipped exactly to the window
        seg = panel.clip_line(total.denominator, total.denominator, total.numerator)
        if seg:
            out.append(panel.line(seg[0], seg[1], _ETA, "1.2", dash="6 4"))
            if labels:
                out.append(
                    panel.text(seg[0], f"s1 + s2 = {total}", dx=4, dy=14, size="10")
                )
        if labels:
            eta = mp.point
            out.append(
                panel.line(Point2(Fraction(0), eta.s2), eta, _GRID, "1", dash="3 3")
            )
            out.append(
                panel.line(Point2(eta.s1, Fraction(0)), eta, _GRID, "1", dash="3 3")
            )
            out.append(panel.text(Point2(eta.s1 / 4, eta.s2 * Fraction(3, 2)), "upper-left", size="10"))
            out.append(panel.text(Point2(eta.s1 * Fraction(5, 4), eta.s2 / 3), "star", size="10"))
            out.append(panel.text(Point2(eta.s1 / 3, eta.s2 / 3), "below", size="10"))
    for v in verts:
        if panel.inside(v):
            out.append(panel.dot(v, _EDGE, r="3"))
            if labels:
                out.append(panel.text(v, f"({v.s1}, {v.s2})", size="10"))
    if mp is not None and panel.inside(mp.point):
        out.append(panel.dot(mp.point, _ETA, r="4"))
        if labels:
            out.append(panel.text(mp.point, f"eta = ({mp.point.s1}, {mp.point.s2})"))
    if trunc_pt is None:
        return
    if panel.inside(trunc_pt):
        out.append(panel.dot(trunc_pt, _GRID, r="3"))
        if not labels:
            out.append(panel.text(trunc_pt, "trunc(eta)", size="10"))
    right = Point2(trunc_pt.s1 + step, trunc_pt.s2)
    up = Point2(trunc_pt.s1, trunc_pt.s2 + step)
    candidates = ((right, "right candidate"), (up, "upper candidate"))
    for base, _ in candidates:
        if panel.inside(base):
            out.append(panel.dot(base, _CAND, r="3"))
    if not labels:
        for base, tag in candidates:
            if panel.inside(base):
                out.append(panel.text(base, tag, size="10"))
    eps = result.epsilon
    if eps is None:
        return
    # The ray drawn is the first candidate (right along s2, then up
    # along s1) whose reach attains epsilon.
    rays = ((right, Point2(right.s1, right.s2 + eps)), (up, Point2(up.s1 + eps, up.s2)))
    base, tip = next(ray for ray, delta in zip(rays, result.deltas) if delta == eps)
    if panel.inside(base) and panel.inside(tip):
        out.append(panel.line(base, tip, _EPS, "3"))
        if not labels:
            out.append(panel.text(tip, f"epsilon = {eps}", dx=8, dy=0, size="10"))


def _legend(
    matrix: SplittingMatrix, mp, prime: int | None, result: FptResult | None
) -> list[str]:
    lines = [f"rows: {' '.join(f'({a},{b})' for a, b in matrix.rows)}"]
    if mp is None:
        lines.append("maximal face is an edge (equal-exponent variable)")
    else:
        lines.append(f"eta = ({mp.point.s1}, {mp.point.s2})")
        lines.append(f"|eta| = {mp.sum}")
    if prime is not None:
        lines.append(f"p = {prime}")
    case = None if result is None else result.case
    if case is FptCase.STANDARD_GT1:
        lines.append("|eta| > 1: threshold equals 1")
    elif case is FptCase.CARRY_FREE:
        lines.append("carry-free: threshold equals |eta|")
    elif case is not None:
        lines.append(f"L = {result.L}, d = {result.d}")
        if result.epsilon is not None:
            lines.append(f"epsilon = {result.epsilon}")
    out = []
    base_y = 590 - 14 * len(lines)
    for i, content in enumerate(lines):
        out.append(
            f'<text x="70" y="{base_y + 14 * i}" font-size="11" '
            f'font-family="monospace">{_escape(content)}</text>'
        )
    return out
