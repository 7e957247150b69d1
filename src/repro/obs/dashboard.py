"""Single-file HTML perf dashboard (``repro dash``).

One self-contained artifact — inline CSS, inline JS, zero external
assets — that CI uploads on every run and a reviewer opens cold:

* **run-ledger trends** — per ``(workload, mode, ranks)`` group, one SVG
  line chart per metric with Welford z-score regression flags marked in
  the status color (same :func:`~repro.obs.ledger.trend_report` the CLI
  gates on);
* **flamegraph** — the latest sampling profile's collapsed stacks
  (:mod:`repro.obs.profiler`), rendered as depth-ramped cells with a
  hover readout and a hotspot table.

Charts follow the repo's dataviz conventions: one axis per chart, 2px
lines, ≥8px end markers ringed in the surface color, recessive hairline
grid, categorical blue for series and reserved status colors for flags,
values in text ink (never the series color), and a table view alongside
every chart so nothing is gated behind hover. Light and dark schemes are
both defined; ``prefers-color-scheme`` picks one.

:func:`validate_dashboard_html` is the CI smoke check: the file parses,
the required sections exist, and nothing references the network.
"""

from __future__ import annotations

import html
import json
from html.parser import HTMLParser
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.ledger import (
    LedgerEntry,
    RunLedger,
    TrendFlag,
    trend_report,
)

__all__ = [
    "build_dashboard",
    "validate_dashboard_html",
    "write_dashboard",
]

#: sections the validator requires; every build renders all of them.
REQUIRED_SECTIONS = (
    "dash-ledger",
    "dash-critical",
    "dash-flame",
    "dash-runs",
)

#: sequential blue ramp (palette steps 250..550) cycled over flame depth.
_FLAME_RAMP = 7

# chart geometry (viewBox units; the SVG scales with its card)
_W, _H = 560, 150
_PADL, _PADR, _PADT, _PADB = 10, 96, 14, 22

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body {
    background: #0d0d0d; color: #ffffff;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.hero { font-size: 48px; font-weight: 600; line-height: 1.1; }
.hero-label { color: var(--ink-2); }
.grid { display: flex; flex-wrap: wrap; gap: 16px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 14px 16px; flex: 1 1 560px; max-width: 640px;
}
.card h3 { font-size: 13px; font-weight: 600; margin: 0 0 8px; }
.card .meta { color: var(--muted); font-size: 12px; }
.chart { position: relative; }
.chart svg { width: 100%; height: auto; display: block; }
.chart .xhair {
  position: absolute; top: 0; bottom: 0; width: 1px;
  background: var(--axis); display: none; pointer-events: none;
}
.gridline { stroke: var(--grid); stroke-width: 1; }
.axisline { stroke: var(--axis); stroke-width: 1; }
.series { stroke: var(--series-1); stroke-width: 2; fill: none;
  stroke-linejoin: round; stroke-linecap: round; }
.dot { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.flagdot { fill: var(--critical); stroke: var(--surface-1); stroke-width: 2; }
.tick { fill: var(--muted); font-size: 10px; }
.endlab { fill: var(--ink); font-size: 11px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.flagline { color: var(--ink); margin: 6px 0 0; font-size: 13px; }
.flagline .mark { color: var(--critical); font-weight: 700; }
.blame-track { background: var(--grid); border-radius: 3px; height: 12px;
  position: relative; min-width: 120px; }
.blame-fill { background: var(--series-1); border-radius: 3px; height: 12px;
  position: absolute; left: 0; top: 0; }
.blame-fill.hot { background: var(--critical); }
.slack-col { background: var(--series-1); border-radius: 2px 2px 0 0;
  align-self: flex-end; flex: 1 1 0; min-height: 1px; }
.slack-chart { display: flex; gap: 3px; height: 90px; align-items: flex-end; }
.slack-labels { display: flex; gap: 3px; color: var(--muted); font-size: 10px; }
.slack-labels span { flex: 1 1 0; text-align: center; }
.okline { color: var(--ink-2); font-size: 13px; margin: 6px 0 0; }
.flame { position: relative; font-size: 11px; }
.flame-row { position: relative; height: 18px; margin-bottom: 2px; }
.fg-cell {
  position: absolute; top: 0; height: 16px; border-radius: 3px;
  overflow: visible; white-space: nowrap; line-height: 16px;
  padding: 0; cursor: default;
}
.fg-cell span { padding: 0 4px; }
.fg-d0 { background: #86b6ef; color: #0b0b0b; }
.fg-d1 { background: #6da7ec; color: #0b0b0b; }
.fg-d2 { background: #5598e7; color: #0b0b0b; }
.fg-d3 { background: #3987e5; color: #ffffff; }
.fg-d4 { background: #2a78d6; color: #ffffff; }
.fg-d5 { background: #256abf; color: #ffffff; }
.fg-d6 { background: #1c5cab; color: #ffffff; }
#dash-tip {
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.15); max-width: 420px;
}
#dash-tip .val { font-weight: 700; }
#dash-tip .key { color: var(--ink-2); }
"""

_JS = """
(function () {
  var tip = document.getElementById('dash-tip');
  function showTip(x, y, rows) {
    while (tip.firstChild) tip.removeChild(tip.firstChild);
    rows.forEach(function (r) {
      var line = document.createElement('div');
      var val = document.createElement('span');
      val.className = 'val';
      val.textContent = r[1];
      var key = document.createElement('span');
      key.className = 'key';
      key.textContent = ' ' + r[0];
      line.appendChild(val);
      line.appendChild(key);
      tip.appendChild(line);
    });
    tip.style.display = 'block';
    var w = tip.offsetWidth, h = tip.offsetHeight;
    var px = Math.min(x + 14, window.innerWidth - w - 8);
    var py = Math.max(y - h - 10, 8);
    tip.style.left = px + 'px';
    tip.style.top = py + 'px';
  }
  function hideTip() { tip.style.display = 'none'; }

  // crosshair + all-values tooltip on every line chart
  document.querySelectorAll('.chart').forEach(function (chart) {
    var values, labels;
    try {
      values = JSON.parse(chart.dataset.values);
      labels = JSON.parse(chart.dataset.labels);
    } catch (e) { return; }
    if (!values.length) return;
    var padl = +chart.dataset.padl, padr = +chart.dataset.padr;
    var vw = +chart.dataset.vw;
    var xhair = chart.querySelector('.xhair');
    chart.addEventListener('pointermove', function (ev) {
      var rect = chart.getBoundingClientRect();
      var scale = rect.width / vw;
      var plotL = padl * scale, plotW = (vw - padl - padr) * scale;
      var frac = (ev.clientX - rect.left - plotL) / plotW;
      frac = Math.max(0, Math.min(1, frac));
      var i = values.length === 1 ? 0 : Math.round(frac * (values.length - 1));
      var x = plotL + (values.length === 1 ? 0.5 : i / (values.length - 1)) * plotW;
      xhair.style.left = x + 'px';
      xhair.style.display = 'block';
      showTip(ev.clientX, ev.clientY,
              [[chart.dataset.name, String(values[i])], ['run', labels[i]]]);
    });
    chart.addEventListener('pointerleave', function () {
      xhair.style.display = 'none';
      hideTip();
    });
  });

  // per-cell readout on the flamegraph
  document.querySelectorAll('.fg-cell').forEach(function (cell) {
    cell.addEventListener('pointermove', function (ev) {
      showTip(ev.clientX, ev.clientY, [
        [cell.dataset.frame, cell.dataset.pct + '%'],
        ['samples', cell.dataset.count],
      ]);
    });
    cell.addEventListener('pointerleave', hideTip);
  });
})();
"""


# ---------------------------------------------------------------------------
# SVG line chart
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3f}" if abs(value) < 100 else f"{value:,.1f}"


def _line_chart(
    name: str,
    values: Sequence[float],
    labels: Sequence[str],
    flag_indexes: Iterable[int] = (),
) -> str:
    """One single-series SVG line chart with crosshair-tooltip data."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi, lo = hi + abs(hi) * 0.05 + 1.0, lo - abs(lo) * 0.05 - 1.0
    span = hi - lo
    plot_w = _W - _PADL - _PADR
    plot_h = _H - _PADT - _PADB

    def x(i: int) -> float:
        if len(values) == 1:
            return _PADL + plot_w / 2
        return _PADL + plot_w * i / (len(values) - 1)

    def y(v: float) -> float:
        return _PADT + plot_h * (1 - (v - lo) / span)

    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{html.escape(name)}">'
    ]
    # recessive grid: hairlines at the top/mid/bottom of the value band
    for gv in (lo, (lo + hi) / 2, hi):
        gy = y(gv)
        parts.append(
            f'<line class="gridline" x1="{_PADL}" y1="{gy:.1f}" '
            f'x2="{_W - _PADR}" y2="{gy:.1f}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_PADL}" y="{gy - 3:.1f}">'
            f"{html.escape(_fmt(gv))}</text>"
        )
    # baseline axis + first/last x labels
    parts.append(
        f'<line class="axisline" x1="{_PADL}" y1="{_H - _PADB}" '
        f'x2="{_W - _PADR}" y2="{_H - _PADB}"/>'
    )
    parts.append(
        f'<text class="tick" x="{_PADL}" y="{_H - 8}">'
        f"{html.escape(str(labels[0]))}</text>"
    )
    if len(labels) > 1:
        parts.append(
            f'<text class="tick" x="{_W - _PADR}" y="{_H - 8}" '
            f'text-anchor="end">{html.escape(str(labels[-1]))}</text>'
        )
    points = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(values))
    parts.append(f'<polyline class="series" points="{points}"/>')
    # regression flags: status-colored markers (value + run in the flag list)
    for i in flag_indexes:
        if 0 <= i < len(values):
            parts.append(
                f'<circle class="flagdot" cx="{x(i):.1f}" '
                f'cy="{y(values[i]):.1f}" r="5"/>'
            )
    # ≥8px end marker, ringed in the surface color, value labeled in ink
    parts.append(
        f'<circle class="dot" cx="{x(len(values) - 1):.1f}" '
        f'cy="{y(values[-1]):.1f}" r="4.5"/>'
    )
    parts.append(
        f'<text class="endlab" x="{x(len(values) - 1) + 9:.1f}" '
        f'y="{y(values[-1]) + 4:.1f}">{html.escape(_fmt(values[-1]))}</text>'
    )
    parts.append("</svg>")
    svg = "".join(parts)
    data_values = html.escape(json.dumps([round(float(v), 6) for v in values]))
    data_labels = html.escape(json.dumps([str(l) for l in labels]))
    return (
        f'<div class="chart" data-name="{html.escape(name)}" '
        f'data-values="{data_values}" data-labels="{data_labels}" '
        f'data-padl="{_PADL}" data-padr="{_PADR}" data-vw="{_W}">'
        f'{svg}<div class="xhair"></div></div>'
    )


def _chart_card(title: str, chart_html: str, meta: str = "") -> str:
    meta_html = f'<div class="meta">{html.escape(meta)}</div>' if meta else ""
    return (
        f'<div class="card"><h3>{html.escape(title)}</h3>'
        f"{chart_html}{meta_html}</div>"
    )


# ---------------------------------------------------------------------------
# flamegraph from collapsed stacks
# ---------------------------------------------------------------------------


class _FlameNode:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: dict[str, _FlameNode] = {}


def _parse_folded(lines: Iterable[str]) -> _FlameNode:
    root = _FlameNode("all")
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        stack, sep, weight = line.rpartition(" ")
        if not sep or not weight.isdigit():
            continue
        count = int(weight)
        root.value += count
        node = root
        for frame in stack.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _FlameNode(frame)
            child.value += count
            node = child
    return root


def _flamegraph(root: _FlameNode, max_depth: int = 24) -> str:
    """Depth-ramped cell rows; labels only where they fit, hover for the rest."""
    if root.value <= 0:
        return '<p class="okline">no samples</p>'
    rows: dict[int, list[str]] = {}

    def emit(node: _FlameNode, depth: int, left: float) -> None:
        offset = left
        for name, child in sorted(
            node.children.items(), key=lambda kv: -kv[1].value
        ):
            frac = child.value / root.value
            if depth <= max_depth and frac >= 0.002:
                pct = 100 * frac
                # inline label only when the rendered cell fits the text
                # (~6.2px/char at 11px in a ~640px card); else hover + table
                label = (
                    f"<span>{html.escape(name)}</span>"
                    if frac * 640 >= 6.2 * len(name) + 10
                    else ""
                )
                rows.setdefault(depth, []).append(
                    f'<div class="fg-cell fg-d{depth % _FLAME_RAMP}" '
                    f'style="left:{100 * offset:.3f}%;'
                    f'width:calc({100 * frac:.3f}% - 1px)" '
                    f'data-frame="{html.escape(name)}" '
                    f'data-count="{child.value}" data-pct="{pct:.1f}">'
                    f"{label}</div>"
                )
                emit(child, depth + 1, offset)
            offset += frac

    emit(root, 0, 0.0)
    row_html = "".join(
        f'<div class="flame-row">{"".join(rows[d])}</div>'
        for d in sorted(rows)
    )
    return f'<div class="flame">{row_html}</div>'


def _hotspot_table(root: _FlameNode, top: int = 10) -> str:
    leaves: dict[str, int] = {}

    def walk(node: _FlameNode) -> None:
        child_total = sum(c.value for c in node.children.values())
        self_count = node.value - child_total
        if self_count > 0 and node is not root:
            leaves[node.name] = leaves.get(node.name, 0) + self_count
        for child in node.children.values():
            walk(child)

    walk(root)
    rows = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    total = max(root.value, 1)
    body = "".join(
        f"<tr><td>{html.escape(name)}</td>"
        f'<td class="num">{count:,}</td>'
        f'<td class="num">{100 * count / total:.1f}%</td></tr>'
        for name, count in rows
    )
    return (
        "<table><thead><tr><th>frame (self time)</th>"
        '<th class="num">samples</th><th class="num">share</th>'
        f"</tr></thead><tbody>{body}</tbody></table>"
    )


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _ledger_section(
    entries: Sequence[LedgerEntry],
    flags: Sequence[TrendFlag],
    series: Mapping[tuple[str, str, int], Mapping[str, Sequence[float]]],
) -> str:
    if not entries:
        return '<p class="okline">no ledgered runs</p>'
    run_ids: dict[tuple[str, str, int], list[str]] = {}
    for entry in entries:
        run_ids.setdefault(
            (entry.workload, entry.mode, entry.nprocs), []
        ).append(entry.run_id)
    cards = []
    for group in sorted(series):
        workload, mode, nprocs = group
        labels = run_ids.get(group, [])
        for metric, values in sorted(series[group].items()):
            if not values:
                continue
            flag_idx = [
                labels.index(f.run_id)
                for f in flags
                if f.group == group and f.metric == metric
                and f.run_id in labels
            ]
            cards.append(
                _chart_card(
                    f"{workload}/{mode} @ {nprocs} ranks — {metric}",
                    _line_chart(metric, values, labels, flag_idx),
                    meta=f"{len(values)} run(s)",
                )
            )
    flag_html = "".join(
        f'<p class="flagline"><span class="mark">⚠</span> '
        f"{html.escape(f.describe())}</p>"
        for f in flags
    ) or '<p class="okline">no regressions flagged</p>'
    return f'<div class="grid">{"".join(cards)}</div>{flag_html}'


def _critical_section(explain: Mapping[str, Any] | None) -> str:
    """Blame bars + slack histogram from a ``repro explain --json`` export."""
    if not explain:
        return (
            '<p class="okline">no explain report supplied '
            "(repro explain &lt;run&gt; --json explain.json)</p>"
        )
    share = float(explain.get("critical_path_share", 0.0))
    top_rank = explain.get("top_path_rank", "?")
    head = (
        f'<p class="sub">rank {html.escape(str(top_rank))} holds '
        f"{100 * share:.1f}% of the critical path — "
        f"{float(explain.get('path_duration_us', 0.0)):,.1f} µs over "
        f"{int(explain.get('path_edges', 0)):,} edges; max slack "
        f"{float(explain.get('max_slack_us', 0.0)):,.1f} µs "
        f"({html.escape(str(explain.get('label', '')))})</p>"
    )
    rows = []
    ranks = [r for r in explain.get("ranks", []) if isinstance(r, Mapping)]
    peak = max((float(r.get("path_share", 0.0)) for r in ranks), default=0.0) or 1.0
    for r in ranks[:12]:
        rank_share = float(r.get("path_share", 0.0))
        hot = " hot" if rank_share >= 0.5 else ""
        width = 100 * rank_share / peak
        rows.append(
            f'<tr><td class="num">{int(r.get("rank", 0))}</td>'
            f'<td><div class="blame-track">'
            f'<div class="blame-fill{hot}" style="width:{width:.1f}%"></div>'
            f"</div></td>"
            f'<td class="num">{100 * rank_share:.1f}%</td>'
            f'<td class="num">{float(r.get("late_sender_us", 0.0)):,.1f}</td>'
            f'<td class="num">{float(r.get("in_flight_us", 0.0)):,.1f}</td>'
            f'<td class="num">{float(r.get("imbalance_us", 0.0)):,.1f}</td>'
            f'<td class="num">{float(r.get("slack_max_us", 0.0)):,.1f}</td></tr>'
        )
    blame = (
        '<div class="card"><h3>blame by rank (critical-path share)</h3>'
        '<table><thead><tr><th class="num">rank</th><th>path share</th>'
        '<th class="num">%</th><th class="num">late-sender µs</th>'
        '<th class="num">in-flight µs</th><th class="num">imbalance µs</th>'
        '<th class="num">slack max µs</th></tr></thead>'
        f'<tbody>{"".join(rows)}</tbody></table></div>'
    )
    hist = [
        h for h in explain.get("slack_histogram", []) if isinstance(h, Mapping)
    ]
    if hist:
        hi = max((int(h.get("count", 0)) for h in hist), default=0) or 1
        cols = "".join(
            f'<div class="slack-col" '
            f'style="height:{max(100 * int(h.get("count", 0)) / hi, 1):.1f}%" '
            f'title="≤{float(h.get("edge_us", 0.0)):,.1f} µs: '
            f'{int(h.get("count", 0)):,}"></div>'
            for h in hist
        )
        labels = "".join(
            f"<span>{html.escape(_fmt(float(h.get('edge_us', 0.0))))}</span>"
            for h in hist
        )
        slack = (
            '<div class="card"><h3>slack distribution (µs, bin upper edge)</h3>'
            f'<div class="slack-chart">{cols}</div>'
            f'<div class="slack-labels">{labels}</div>'
            f'<div class="meta">{int(explain.get("matched", 0)):,} matched '
            "receives</div></div>"
        )
    else:
        slack = '<p class="okline">no matched receives to histogram</p>'
    return f'{head}<div class="grid">{blame}{slack}</div>'


def _runs_table(entries: Sequence[LedgerEntry], limit: int = 30) -> str:
    if not entries:
        return '<p class="okline">no ledgered runs</p>'
    body = []
    for e in list(entries)[-limit:]:
        health = "ok" if e.healthy else "⚠ " + ",".join(sorted(e.health))
        body.append(
            f"<tr><td>{html.escape(e.run_id)}</td>"
            f"<td>{html.escape(e.workload)}</td>"
            f"<td>{html.escape(e.mode)}</td>"
            f'<td class="num">{e.nprocs}</td>'
            f'<td class="num">{e.events:,}</td>'
            f'<td class="num">{e.bytes_per_event:.3f}</td>'
            f'<td class="num">{e.wall_seconds:.3f}</td>'
            f'<td class="num">{e.events_per_second:,.0f}</td>'
            f"<td>{html.escape(health)}</td></tr>"
        )
    return (
        "<table><thead><tr><th>run</th><th>workload</th><th>mode</th>"
        '<th class="num">ranks</th><th class="num">events</th>'
        '<th class="num">B/event</th><th class="num">wall s</th>'
        '<th class="num">events/s</th><th>health</th></tr></thead>'
        f'<tbody>{"".join(body)}</tbody></table>'
    )


# ---------------------------------------------------------------------------
# build / validate
# ---------------------------------------------------------------------------


def build_dashboard(
    ledger: RunLedger | str | Sequence[LedgerEntry] | None = None,
    folded: str | Sequence[str] | None = None,
    explain: Mapping[str, Any] | str | None = None,
    title: str = "repro perf dashboard",
    generated_at: str = "",
    z_threshold: float = 3.0,
) -> str:
    """Render the whole dashboard; returns the HTML text.

    ``ledger`` is a :class:`RunLedger`, a JSONL path, or entries;
    ``folded`` a collapsed-stack file path or lines; ``explain`` a
    ``repro explain --json`` export (the dict or a path).
    """
    if isinstance(ledger, str):
        ledger = RunLedger(ledger)
    if isinstance(ledger, RunLedger):
        entries: Sequence[LedgerEntry] = ledger.entries()
    else:
        entries = list(ledger or [])
    flags, series = trend_report(entries, z_threshold=z_threshold)

    if isinstance(folded, str):
        try:
            with open(folded, "r", encoding="utf-8") as fh:
                folded_lines: Sequence[str] = fh.read().splitlines()
        except OSError:
            folded_lines = []
    else:
        folded_lines = list(folded or [])
    flame_root = _parse_folded(folded_lines)

    if isinstance(explain, str):
        try:
            with open(explain, "r", encoding="utf-8") as fh:
                explain = json.load(fh)
        except (OSError, ValueError):
            explain = None

    hero_value = "—"
    hero_label = "no runs ledgered yet"
    if entries:
        latest = entries[-1]
        hero_value = f"{latest.events_per_second:,.0f}"
        hero_label = (
            f"events/s — latest run {latest.run_id} "
            f"({latest.workload}/{latest.mode} @ {latest.nprocs} ranks)"
        )

    flame_html = (
        _flamegraph(flame_root) + _hotspot_table(flame_root)
        if flame_root.value
        else '<p class="okline">no sampling profile supplied</p>'
    )

    sub = f"generated {generated_at}" if generated_at else ""
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="sub">{html.escape(sub)}</p>
<div class="hero">{html.escape(hero_value)}</div>
<div class="hero-label">{html.escape(hero_label)}</div>

<h2 id="dash-ledger">Run-ledger trends</h2>
{_ledger_section(entries, flags, series)}

<h2 id="dash-critical">Critical path</h2>
{_critical_section(explain)}

<h2 id="dash-flame">Flamegraph (sampling profile)</h2>
{flame_html}

<h2 id="dash-runs">Run history</h2>
{_runs_table(entries)}

<div id="dash-tip"></div>
<script>{_JS}</script>
</body>
</html>
"""


def write_dashboard(path: str, **kwargs: Any) -> str:
    text = build_dashboard(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class _DashParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.ids: set[str] = set()
        self.external: list[str] = []
        self.open_tags: list[str] = []
        self.mismatched: list[str] = []

    _VOID = {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "source", "track", "wbr",
    }

    def handle_starttag(self, tag: str, attrs) -> None:
        for key, value in attrs:
            if key == "id" and value:
                self.ids.add(value)
            if key in ("src", "href") and value and (
                value.startswith("http://")
                or value.startswith("https://")
                or value.startswith("//")
            ):
                self.external.append(f"{tag} {key}={value}")
        if tag not in self._VOID:
            self.open_tags.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag in self._VOID:
            return
        if self.open_tags and self.open_tags[-1] == tag:
            self.open_tags.pop()
        elif tag in self.open_tags:
            while self.open_tags and self.open_tags[-1] != tag:
                self.mismatched.append(self.open_tags.pop())
            if self.open_tags:
                self.open_tags.pop()
        else:
            self.mismatched.append(f"/{tag}")


def validate_dashboard_html(text: str) -> list[str]:
    """CI smoke check: parses, self-contained, all sections present."""
    problems: list[str] = []
    if not text.lstrip().lower().startswith("<!doctype html>"):
        problems.append("missing <!DOCTYPE html> preamble")
    parser = _DashParser()
    try:
        parser.feed(text)
        parser.close()
    except Exception as exc:  # pragma: no cover - html.parser rarely raises
        return problems + [f"HTML parse error: {exc}"]
    for section in REQUIRED_SECTIONS:
        if section not in parser.ids:
            problems.append(f"missing section id {section!r}")
    for ref in parser.external:
        problems.append(f"external asset reference: {ref}")
    for tag in parser.mismatched:
        problems.append(f"mismatched tag: {tag}")
    if parser.open_tags:
        problems.append(f"unclosed tags: {parser.open_tags}")
    return problems
