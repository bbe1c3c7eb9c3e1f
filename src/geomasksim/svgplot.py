"""Dependency-free SVG line plots for attenuation curves and densities.

Static vector output only: a polyline over a framed, ticked axis box,
returned as SVG text (``reports.write_text`` writes it). Two
layouts are provided — the attenuation curve (mean |beta_hat| against
theta*, with a horizontal reference at the baseline magnitude) and the
Monte Carlo density (KDE polyline with a solid vertical line at the
baseline estimate and dashed verticals at its confidence bounds).
"""

from __future__ import annotations

import math

from .density import KdeEstimate
from .experiments import AttenuationCurve

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 55


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six 1-2-5 tick positions covering [lo, hi], a range that
    ``_Frame`` has checked."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Frame:
    """Maps data coordinates onto the plot box and accumulates SVG elements."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, x_label, y_label, title):
        pad_x = 0.02 * (x_hi - x_lo) if x_hi > x_lo else 0.5
        pad_y = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5 * (abs(y_hi) if y_hi else 1.0)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y
        for lo, hi in ((self.x_lo, self.x_hi), (self.y_lo, self.y_hi)):
            # a tick step under an ulp of the range would leave a tick where it is
            if not (math.isfinite(hi - lo) and hi - lo > 8 * math.ulp(max(abs(lo), abs(hi)))):
                raise ValueError(f"plot range [{lo!r}, {hi!r}] is not finite or too narrow for its magnitude")
        self.parts: list[str] = []
        self._axes(x_label, y_label, title)

    def px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return _MARGIN_L + (x - self.x_lo) / span * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        return _HEIGHT - _MARGIN_B - (y - self.y_lo) / span * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def _axes(self, x_label, y_label, title):
        left, right = _MARGIN_L, _WIDTH - _MARGIN_R
        top, bottom = _MARGIN_T, _HEIGHT - _MARGIN_B
        p = self.parts
        p.append(
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            f'fill="white" stroke="black" stroke-width="1"/>'
        )
        for t in _nice_ticks(self.x_lo, self.x_hi):
            x = self.px(t)
            p.append(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" stroke="black"/>')
            p.append(
                f'<text x="{x:.2f}" y="{bottom + 18}" font-size="11" text-anchor="middle">{t:.6g}</text>'
            )
        for t in _nice_ticks(self.y_lo, self.y_hi):
            y = self.py(t)
            p.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
            p.append(
                f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{t:.6g}</text>'
            )
        p.append(
            f'<text x="{(left + right) / 2}" y="{_HEIGHT - 12}" font-size="13" text-anchor="middle">{x_label}</text>'
        )
        p.append(
            f'<text x="16" y="{(top + bottom) / 2}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 16 {(top + bottom) / 2})">{y_label}</text>'
        )
        p.append(f'<text x="{(left + right) / 2}" y="18" font-size="14" text-anchor="middle">{title}</text>')

    def polyline(self, xs, ys, color="steelblue", width=1.6, dash=None):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def hline(self, y):
        self.polyline([self.x_lo, self.x_hi], [y, y], color="gray", width=1.2, dash="6,4")

    def vline(self, x, dash=None):
        self.polyline([x, x], [self.y_lo, self.y_hi], color="black", width=1.2, dash=dash)

    def markers(self, xs, ys):
        for x, y in zip(xs, ys):
            self.parts.append(f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="3.0" fill="steelblue"/>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def render_attenuation_svg(curve: AttenuationCurve, baseline_beta: float) -> str:
    """Mean |beta_hat| against theta*, with a horizontal line at |baseline|."""
    if not curve.rows:
        raise ValueError("curve is empty")
    xs = [r.theta_star for r in curve.rows]
    ys = [r.mean_abs_beta for r in curve.rows]
    ref = abs(baseline_beta)
    frame = _Frame(
        min(xs), max(xs), min(0.0, min(ys)), max(max(ys), ref),
        x_label="maximum displacement distance &#952;*",
        y_label="mean |&#946;&#770;| (per map unit)",
        title="Attenuation of the distance coefficient under geo-masking",
    )
    frame.hline(ref)
    frame.polyline(xs, ys)
    frame.markers(xs, ys)
    return frame.render()


def render_kde_svg(estimate: KdeEstimate, baseline_beta: float, baseline_ci: tuple[float, float]) -> str:
    """Monte Carlo density of beta_hat: KDE polyline, solid vertical line at
    the baseline estimate, dashed verticals at its confidence bounds."""
    xs = estimate.grid.tolist()
    ys = estimate.density.tolist()
    lo, hi = baseline_ci
    if not lo <= baseline_beta <= hi:
        raise ValueError(f"baseline {baseline_beta} outside its own interval ({lo}, {hi})")
    frame = _Frame(
        min(min(xs), lo), max(max(xs), hi), 0.0, max(ys),
        x_label="&#946;&#770; across replications",
        y_label="density",
        title="Monte Carlo distribution of the distance coefficient",
    )
    frame.polyline(xs, ys)
    frame.vline(baseline_beta)
    frame.vline(lo, dash="6,4")
    frame.vline(hi, dash="6,4")
    return frame.render()
