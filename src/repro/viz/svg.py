"""SVG rendering of clock trees (Figure 3 of the paper).

The paper visualizes optimized trees with sinks drawn as crosses, buffers as
blue rectangles, L-shapes drawn as "diagonal wires" to reduce clutter, and
wires coloured with a red-green gradient encoding their slow-down slack (red =
no slack, green = large slack).  This module reproduces that rendering as a
standalone SVG string with no third-party plotting dependency, so the
examples and benchmarks can emit figures in any environment.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.slack import SlackAnnotation
from repro.cts.tree import ClockTree
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.rect import Rect

__all__ = ["render_tree_svg", "save_tree_svg"]

#: Width of every rendered figure (px); the height follows the tree's aspect.
WIDTH_PX = 900


def _slack_color(normalized: float) -> str:
    """Red (no slack) to green (maximum slack) gradient."""
    clamped = min(max(normalized, 0.0), 1.0)
    red = int(round(220 * (1.0 - clamped)))
    green = int(round(180 * clamped))
    return f"rgb({red},{green},40)"


def render_tree_svg(
    tree: ClockTree,
    annotation: Optional[SlackAnnotation] = None,
    obstacles: Optional[ObstacleSet] = None,
    die: Optional[Rect] = None,
    title: Optional[str] = None,
) -> str:
    """Return an SVG document depicting ``tree``.

    Wires are straight lines between node positions ("diagonal wires" in the
    paper's phrasing); when a slack ``annotation`` is given they are coloured
    by normalized slow-down slack, otherwise drawn in neutral grey.  Sinks are
    crosses, buffers blue rectangles, the source a black square, obstacles
    light-grey rectangles.
    """
    xs = [n.position.x for n in tree.nodes()]
    ys = [n.position.y for n in tree.nodes()]
    if die is not None:
        xs.extend([die.xlo, die.xhi])
        ys.extend([die.ylo, die.yhi])
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span_x = max(xmax - xmin, 1.0)
    span_y = max(ymax - ymin, 1.0)
    margin = 0.04 * max(span_x, span_y)
    scale = (WIDTH_PX - 20.0) / (span_x + 2 * margin)
    height = int((span_y + 2 * margin) * scale) + 20

    def sx(x: float) -> float:
        return 10.0 + (x - xmin + margin) * scale

    def sy(y: float) -> float:
        # SVG y grows downward; flip so the die is drawn in conventional orientation.
        return height - 10.0 - (y - ymin + margin) * scale

    marker = max(2.0, 0.006 * WIDTH_PX)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH_PX}" height="{height}" '
        f'viewBox="0 0 {WIDTH_PX} {height}">',
        f'<rect x="0" y="0" width="{WIDTH_PX}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="12" y="16" font-size="13" font-family="sans-serif">{title}</text>'
        )
    if die is not None:
        parts.append(
            f'<rect x="{sx(die.xlo):.1f}" y="{sy(die.yhi):.1f}" '
            f'width="{(die.width) * scale:.1f}" height="{(die.height) * scale:.1f}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        )
    if obstacles is not None:
        for obstacle in obstacles:
            rect = obstacle.rect
            parts.append(
                f'<rect x="{sx(rect.xlo):.1f}" y="{sy(rect.yhi):.1f}" '
                f'width="{rect.width * scale:.1f}" height="{rect.height * scale:.1f}" '
                'fill="#dddddd" stroke="#999" stroke-width="0.5"/>'
            )

    normalized = annotation.normalized_edge_slow() if annotation is not None else {}
    for node in tree.nodes():
        if node.parent is None:
            continue
        parent = tree.parent_of(node.node_id)
        color = (
            _slack_color(normalized[node.node_id])
            if node.node_id in normalized
            else "#777777"
        )
        parts.append(
            f'<line x1="{sx(parent.position.x):.1f}" y1="{sy(parent.position.y):.1f}" '
            f'x2="{sx(node.position.x):.1f}" y2="{sy(node.position.y):.1f}" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )

    for node in tree.nodes():
        x, y = sx(node.position.x), sy(node.position.y)
        if node.is_source:
            parts.append(
                f'<rect x="{x - marker:.1f}" y="{y - marker:.1f}" width="{2 * marker:.1f}" '
                f'height="{2 * marker:.1f}" fill="black"/>'
            )
        elif node.has_buffer:
            parts.append(
                f'<rect x="{x - marker * 0.8:.1f}" y="{y - marker * 0.8:.1f}" '
                f'width="{1.6 * marker:.1f}" height="{1.6 * marker:.1f}" '
                'fill="#1f5fd0" stroke="none"/>'
            )
        if node.is_sink:
            parts.append(
                f'<path d="M {x - marker:.1f} {y - marker:.1f} L {x + marker:.1f} {y + marker:.1f} '
                f'M {x - marker:.1f} {y + marker:.1f} L {x + marker:.1f} {y - marker:.1f}" '
                'stroke="#b02020" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def save_tree_svg(
    tree: ClockTree,
    path: Union[str, Path],
    annotation: Optional[SlackAnnotation] = None,
    obstacles: Optional[ObstacleSet] = None,
    die: Optional[Rect] = None,
    title: Optional[str] = None,
) -> Path:
    """Render ``tree`` and write the SVG to ``path``; returns the path."""
    target = Path(path)
    target.write_text(
        render_tree_svg(
            tree,
            annotation=annotation,
            obstacles=obstacles,
            die=die,
            title=title,
        ),
        encoding="utf-8",
    )
    return target
