"""Text rendering of the installation review screen (paper Fig. 7b)."""

from __future__ import annotations

from repro.frontend.threat_interpreter import describe_threat
from repro.service.home import InstallReview

_WIDTH = 72


def render_review(review: InstallReview) -> str:
    """Render the review as the text screen the companion app shows."""
    lines = [
        "=" * _WIDTH,
        f" HomeGuard — installing '{review.app_name}'".ljust(_WIDTH - 1) + "|"[:0],
        "=" * _WIDTH,
        "",
        " This app defines the following automation rule(s):",
    ]
    for index, rule in enumerate(review.rules, start=1):
        lines.append(f"   R{index}. {rule}")
    lines.append("")
    if review.clean:
        lines.append(" No cross-app interference detected with installed apps.")
    else:
        total = len(review.threats) + len(review.chains)
        lines.append(
            f" !! {total} potential cross-app interference threat(s) detected:"
        )
        for threat in review.threats:
            lines.extend(_wrap(describe_threat(threat)))
        for threat in review.chains:
            lines.extend(_wrap(describe_threat(threat)))
    lines.extend(
        [
            "",
            " Options: [Keep]   [Reconfigure]   [Delete]",
            "=" * _WIDTH,
        ]
    )
    return "\n".join(lines)


def _wrap(text: str, indent: str = "   - ", width: int = _WIDTH - 6) -> list[str]:
    words = text.split()
    lines: list[str] = []
    current = indent
    for word in words:
        if len(current) + len(word) + 1 > width and current.strip():
            lines.append(current)
            current = " " * len(indent)
        current += ("" if current.endswith(" ") else " ") + word
    if current.strip():
        lines.append(current)
    return lines
