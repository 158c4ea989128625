"""Self-contained SVG emission of the unit-disk embedding scatter."""

from __future__ import annotations

from xml.sax.saxutils import escape

VIEWPORT = 1000
_MARGIN = 20
# tab10-style palette, assigned to categories in sorted order
PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _to_px(value: float) -> float:
    half = VIEWPORT / 2
    return half + value * (half - _MARGIN)


def disk_svg(rows: list[dict], comment: str | None = None) -> str:
    """Render disk-export rows (x, y in the unit disk) as an SVG document.

    Categories key the marker color; parts are circles, wholes are squares.
    Ids and categories are XML-escaped.  The comment is escaped the same way,
    and each "-" that follows a "-" is written "&#45;", since a comment
    cannot hold "--": html.unescape recovers the text.
    """
    categories = sorted({row["category"] for row in rows})
    colors = {cat: PALETTE[i % len(PALETTE)] for i, cat in enumerate(categories)}
    half = VIEWPORT / 2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" '
             f'height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">']
    if comment is not None:
        parts.append(f"<!-- {escape(comment).replace('--', '-&#45;')} -->")
    parts.append(f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>')
    parts.append(f'<circle cx="{half}" cy="{half}" r="{half - _MARGIN}" '
                 'fill="none" stroke="#444" stroke-width="2"/>')
    for row in rows:
        px = _to_px(row["x"])
        py = _to_px(-row["y"])  # svg y axis points down
        color = colors[row["category"]]
        title = f'{escape(row["id"])} hnorm={row["hnorm"]:.4f}'
        if row["role"] == "whole":
            parts.append(
                f'<rect x="{px - 5:.2f}" y="{py - 5:.2f}" width="10" height="10" '
                f'fill="{color}" stroke="black" stroke-width="0.5"><title>{title}</title></rect>')
        else:
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}" '
                f'fill-opacity="0.75"><title>{title}</title></circle>')
    for i, cat in enumerate(categories):
        y = 30 + 22 * i
        parts.append(f'<rect x="20" y="{y - 11}" width="12" height="12" fill="{colors[cat]}"/>')
        parts.append(f'<text x="38" y="{y}" font-family="sans-serif" font-size="16">'
                     f'{escape(cat)}</text>')
    parts.append(f'<text x="20" y="{VIEWPORT - 18}" font-family="sans-serif" font-size="14">'
                 'circle = part, square = whole</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
