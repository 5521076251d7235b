"""Deterministic band-diagram outputs: CSV table, SVG scatter, metadata JSON.

All writers are pure functions of their inputs (no timestamps, no ids), so a
rerun with the same configuration and seed reproduces the files byte for
byte.  The SVG is hand-assembled for the same reason; plotting libraries
embed session state in their output.  The path's nodes, their labels and
their arclengths come from ``sweep``, which owns the walk.
"""

from __future__ import annotations

import json
from pathlib import Path

from .sweep import PATH_LABELS, BandDiagram, make_kpath

CSV_HEADER = "k_index,k1,k2,arclength,re_nu,im_nu,residual"

_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 56


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_bands_csv(diagram: BandDiagram, path: str | Path) -> None:
    """Write the diagram as CSV, 12 significant digits per number, rows
    sorted by (k_index, re_nu)."""
    lines = [CSV_HEADER]
    for point in diagram.points:
        k1, k2 = point.k
        pairs = sorted(point.eigenpairs, key=lambda c: (c.nu.real, c.nu.imag))
        for cand in pairs:
            lines.append(
                f"{point.index},{_fmt(k1)},{_fmt(k2)},{_fmt(point.arclength)},"
                f"{_fmt(cand.nu.real)},{_fmt(cand.nu.imag)},{_fmt(cand.residual)}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_svg(diagram: BandDiagram, path: str | Path) -> None:
    """Scatter plot of Re nu against path arclength as a standalone SVG; the
    y-axis spans the real range of the diagram's search window, and a line
    marks each node of the path at its share of the path's length."""
    nodes = make_kpath(1).points
    path_length = nodes[-1][1]
    total = diagram.points[-1].arclength if diagram.points else path_length
    if total <= 0:
        total = 1.0
    y_lo, y_hi = diagram.window.re_min, diagram.window.re_max

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_of(arc: float) -> float:
        return _MARGIN_LEFT + plot_w * arc / total

    def y_of(value: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (value - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for (_, arc), label in zip(nodes, PATH_LABELS):
        x = _MARGIN_LEFT + plot_w * (arc / path_length)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" y2="{_MARGIN_TOP + plot_h}" '
            f'stroke="#bbbbbb" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{label}</text>'
        )

    n_yticks = 6
    for tick in range(n_yticks + 1):
        value = y_lo + (y_hi - y_lo) * tick / n_yticks
        y = y_of(value)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{y + 4.5:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{value:.3g}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_SVG_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">quasimomentum path</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">Re ν</text>'
    )

    for point in diagram.points:
        x = x_of(point.arclength)
        for cand in sorted(point.eigenpairs, key=lambda c: (c.nu.real, c.nu.imag)):
            if not (y_lo <= cand.nu.real <= y_hi):
                continue
            parts.append(f'<circle cx="{x:.2f}" cy="{y_of(cand.nu.real):.2f}" r="2.2" fill="#1f4e8c"/>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_metadata(diagram: BandDiagram, path: str | Path, *, seed: int, config_hash: str, version: str) -> None:
    """Reproducibility metadata for a sweep run.  Each warning is prefixed
    with the k_index of its point, so the closing Gamma's copies of the first
    point's warnings can be told apart."""
    warnings = [f"k_index {p.index}: {w}" for p in diagram.points for w in p.warnings]
    payload = {
        "version": version,
        "seed": seed,
        "config_sha256": config_hash,
        "n_kpoints": len(diagram.points),
        "n_eigenvalues": diagram.n_eigenvalues(),
        "warnings": warnings,
        "provenance": diagram.provenance,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
