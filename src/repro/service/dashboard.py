"""Text dashboard over a service root's checkpoint + metric series.

``repro dashboard`` renders entirely from *disk* (``checkpoint.json``
and ``series.jsonl``) — it never needs the daemon alive, so it works on
a crashed root, in CI artifact uploads, and over the shoulder of a
running daemon alike. Sparklines are plain unicode blocks; no curses,
no dependencies.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.observability.metrics import MetricsRegistry
from repro.service.checkpoint import CHECKPOINT_NAME, SERIES_NAME
from repro.service.daemon import run_totals
from repro.service.series import load_series

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    tail = [float(v) for v in values][-width:]
    if not tail:
        return "(no samples)"
    low = min(tail)
    high = max(tail)
    span = high - low
    if span <= 0:
        return _BLOCKS[0] * len(tail)
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - low) / span * len(_BLOCKS)))]
        for v in tail
    )


def _column(samples: List[Dict[str, Any]], key: str) -> List[float]:
    return [float(s.get(key, 0.0) or 0.0) for s in samples]


def render_dashboard(
    root: str, window: int = 48, width: int = 48
) -> str:
    """The full dashboard text for a service root."""
    checkpoint_path = os.path.join(root, CHECKPOINT_NAME)
    if not os.path.exists(checkpoint_path):
        return f"no checkpoint at {checkpoint_path} — has the service run?\n"
    with open(checkpoint_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    samples = load_series(os.path.join(root, SERIES_NAME), window=window)

    totals = run_totals(MetricsRegistry.load(state["metrics"]))
    incidents = state.get("incidents", [])
    open_incidents = [i for i in incidents if i.get("status") != "closed"]
    lines = [
        f"repro stream service — {root}",
        "=" * max(24, len(root) + 24),
        (
            f"ordinal {state.get('ordinal', 0)}"
            f" | sim day {samples[-1]['arrived_day'] if samples else 0.0:.2f}"
            f" | digest {state.get('digest_chain', '')[:16]}…"
            f" | config {state.get('fingerprint', '?')}"
        ),
        (
            f"items {totals['items']}"
            f" | classified {totals['classified']}"
            f" | declined {totals['declined']}"
            f" | rejected {totals['rejected']}"
        ),
        (
            f"incidents {len(incidents)} ({len(open_incidents)} open)"
            f" | repo head seq {state.get('repo_head_seq', 0)}"
        ),
        "",
    ]
    if samples:
        rows = [
            ("items/batch", _column(samples, "items"), "{:.0f}"),
            ("coverage", _column(samples, "coverage"), "{:.3f}"),
            ("fired pairs", _column(samples, "fired_pairs"), "{:.0f}"),
            ("batch wall ms", _column(samples, "wall_ms"), "{:.1f}"),
            ("alerts (cum)", _column(samples, "alerts_total"), "{:.0f}"),
            ("incidents open", _column(samples, "incidents_open"), "{:.0f}"),
        ]
        label_width = max(len(label) for label, _, _ in rows)
        lines.append(f"last {len(samples)} batches:")
        for label, values, fmt in rows:
            last = fmt.format(values[-1]) if values else "-"
            lines.append(
                f"  {label.ljust(label_width)}  {sparkline(values, width)}  {last}"
            )
        lines.append("")
    else:
        lines.append("no metric samples yet\n")
    if open_incidents:
        lines.append("open incidents:")
        for incident in open_incidents[-10:]:
            rule_ids = ", ".join(incident.get("rule_ids", [])[:4])
            lines.append(
                f"  {incident.get('incident_id')}"
                f" [{incident.get('kind')}] {incident.get('status')}"
                + (f" rules: {rule_ids}" if rule_ids else "")
            )
        lines.append("")
    return "\n".join(lines) + "\n"
