"""Static HTML rendering of the paper's figures from the results store.

Every renderer here is a pure function of store contents: queries are
deterministically ordered, floats are formatted with fixed precision,
and nothing timestamps the output — so ``repro report build`` against
the same store produces byte-identical HTML, and the figure/table
benches become store queries instead of simulations.

Sections rendered (when their tables hold rows):

* **Figure 2** — the tMBF-vs-sMBF MTTF table (``mttf_rows``).
* **Sec. VIII** — the protection-scheme comparison over stored VGPR
  sweeps: per (scheme, interleaving) design, mean DUE/SDC MB-AVF across
  workloads and fault modes, as a table plus an inline SVG bar chart.
* **AVF results** — the full keyed measurement table.
* **Campaigns** — Table II injection-campaign summaries.
"""

from __future__ import annotations

from html import escape
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from ..ioutil import atomic_write
from ..store import ResultStore

__all__ = ["render_index", "build_report"]

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #b8b8c8; padding: .3rem .7rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eceef4; }
td.k, th.k { text-align: left; }
p.empty { color: #667; font-style: italic; }
figure { margin: 1rem 0; }
figcaption { font-size: .9rem; color: #445; }
"""


def _fmt(value: Any, spec: str = ".6f") -> str:
    if value is None:
        return "–"
    return format(float(value), spec)


def _table(
    headers: Sequence[Tuple[str, bool]], rows: Sequence[Sequence[str]]
) -> str:
    """An HTML table; headers are (label, is_key_column)."""
    head = "".join(
        f'<th class="k">{escape(h)}</th>' if key else f"<th>{escape(h)}</th>"
        for h, key in headers
    )
    body = []
    for row in rows:
        cells = []
        for (header, key), cell in zip(headers, row):
            klass = ' class="k"' if key else ""
            cells.append(f"<td{klass}>{escape(cell)}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        "<table><thead><tr>" + head + "</tr></thead><tbody>"
        + "".join(body) + "</tbody></table>"
    )


def _section_summary(store: ResultStore) -> str:
    info = store.summary()
    rows = [
        ["AVF results", str(info["avf_results"])],
        ["injections", str(info["injections"])],
        ["MTTF rows", str(info["mttf_rows"])],
        ["campaigns", str(info["campaigns"])],
        ["workloads", ", ".join(info["workloads"]) or "–"],
        ["structures", ", ".join(info["structures"]) or "–"],
        ["schema version", str(info["schema_version"])],
    ]
    return "<h2>Store summary</h2>" + _table(
        [("field", True), ("value", False)], rows
    )


def _section_mttf(store: ResultStore) -> str:
    rows = store.mttf_rows()
    out = [
        "<h2>Figure 2 — MTTF: spatial vs. temporal multi-bit faults</h2>"
    ]
    if not rows:
        out.append(
            '<p class="empty">No stored MTTF rows; run '
            "<code>repro mttf --store ...</code>.</p>"
        )
        return "".join(out)
    headers = [
        ("cache", True), ("FIT/Mbit", False), ("sMBF 0.1% (h)", False),
        ("sMBF 5% (h)", False), ("tMBF inf (h)", False),
        ("tMBF 100yr (h)", False),
    ]
    body = [
        [
            f"{int(r['cache_bytes']) >> 20}MB",
            _fmt(r["raw_fit_per_mbit"], ".2f"),
            _fmt(r["mttf_smbf_01pct"], ".3e"),
            _fmt(r["mttf_smbf_5pct"], ".3e"),
            _fmt(r["mttf_tmbf_unbounded"], ".3e"),
            _fmt(r["mttf_tmbf_100yr"], ".3e"),
        ]
        for r in rows
    ]
    out.append(_table(headers, body))
    out.append(
        "<figcaption>Spatial MBF MTTF is linear in the raw rate while "
        "temporal MBF MTTF is quadratic, so spatial faults dominate by "
        "orders of magnitude at realistic rates (paper Sec. IV-B)."
        "</figcaption>"
    )
    return "".join(out)


def _design_label(scheme: str, style: str, factor: int) -> str:
    if style == "none" and factor == 1:
        return scheme
    return f"{scheme} {style} x{factor}"


def _svg_bars(
    labels: Sequence[str], series: Dict[str, List[float]]
) -> str:
    """A deterministic grouped-bar SVG (no external assets)."""
    colors = {"DUE": "#3a5fa0", "SDC": "#c0483a"}
    names = list(series)
    peak = max(
        (v for vs in series.values() for v in vs), default=0.0
    ) or 1.0
    bar_w, gap, group_gap, h, pad = 18, 4, 26, 180, 30
    group_w = len(names) * (bar_w + gap) + group_gap
    width = pad * 2 + group_w * len(labels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{h + 60}" role="img">'
    ]
    for gi, label in enumerate(labels):
        x0 = pad + gi * group_w
        for si, name in enumerate(names):
            value = series[name][gi]
            bh = 0 if peak == 0 else value / peak * h
            x = x0 + si * (bar_w + gap)
            y = pad + h - bh
            parts.append(
                f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" '
                f'height="{bh:.2f}" fill="{colors.get(name, "#888")}">'
                f"<title>{escape(label)} {escape(name)}: "
                f"{value:.6f}</title></rect>"
            )
        parts.append(
            f'<text x="{x0 + (group_w - group_gap) / 2:.1f}" '
            f'y="{pad + h + 14}" font-size="10" text-anchor="middle">'
            f"{escape(label)}</text>"
        )
    for si, name in enumerate(names):
        lx = pad + si * 70
        parts.append(
            f'<rect x="{lx}" y="{pad + h + 26}" width="10" height="10" '
            f'fill="{colors.get(name, "#888")}"/>'
            f'<text x="{lx + 14}" y="{pad + h + 35}" font-size="10">'
            f"{escape(name)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _section_protection(store: ResultStore) -> str:
    result = store.query(structure="vgpr")
    out = [
        "<h2>Sec. VIII — VGPR protection scheme comparison</h2>"
    ]
    if not result:
        out.append(
            '<p class="empty">No stored VGPR sweeps; run a VGPR sweep '
            "with a <code>--store</code> sink.</p>"
        )
        return "".join(out)
    keys = ("scheme", "style", "factor")
    due = result.group_by(keys, value="due_avf", agg="mean")
    sdc = result.group_by(keys, value="sdc_avf", agg="mean")
    count = result.group_by(keys, value="sdc_avf", agg="count")
    labels = [
        _design_label(str(k[0]), str(k[1]), int(k[2])) for k in due
    ]
    headers = [
        ("design", True), ("measurements", False),
        ("mean DUE MB-AVF", False), ("mean SDC MB-AVF", False),
    ]
    body = [
        [
            label, str(int(count[key])),
            _fmt(due[key]), _fmt(sdc[key]),
        ]
        for label, key in zip(labels, due)
    ]
    out.append(_table(headers, body))
    out.append("<figure>")
    out.append(
        _svg_bars(
            labels,
            {
                "DUE": [due[k] for k in due],
                "SDC": [sdc[k] for k in due],
            },
        )
    )
    out.append(
        "<figcaption>Mean MB-AVF per protection design, averaged over "
        "stored workloads and fault modes (paper Sec. VIII: interleaving "
        "trades SDC for detectable DUE).</figcaption></figure>"
    )
    return "".join(out)


def _section_avf(store: ResultStore) -> str:
    result = store.query()
    out = ["<h2>Stored AVF measurements</h2>"]
    if not result:
        out.append(
            '<p class="empty">The avf_results table is empty; feed it '
            "with <code>--store</code> on avf/inject/campaign runs or "
            "<code>campaign merge --store</code>.</p>"
        )
        return "".join(out)
    headers = [
        ("workload", True), ("structure", True), ("scheme", True),
        ("layout", True), ("mode", True), ("seed", False),
        ("DUE", False), ("SDC", False), ("total", False),
    ]
    body = [
        [
            r.workload, r.structure, r.scheme,
            f"{r.style} x{r.factor}", r.mode, str(r.seed),
            _fmt(r.due_avf), _fmt(r.sdc_avf), _fmt(r.total_avf),
        ]
        for r in result
    ]
    out.append(_table(headers, body))
    return "".join(out)


def _section_campaigns(store: ResultStore) -> str:
    campaigns = store.campaigns()
    out = ["<h2>Injection campaigns (Table II)</h2>"]
    if not campaigns:
        out.append('<p class="empty">No stored campaign summaries.</p>')
        return "".join(out)
    headers = [
        ("benchmark", True), ("seed", False), ("singles", False),
        ("SDC ACE bits", False), ("interference", False),
        ("model SDC AVF", False),
    ]
    body = [
        [
            c["benchmark"], str(c["seed"]), str(c["n_single"]),
            str(c["sdc_ace_bits"]), str(c["interference"]),
            _fmt(c["model_sdc_avf"]),
        ]
        for c in campaigns
    ]
    out.append(_table(headers, body))
    return "".join(out)


def render_index(store: ResultStore) -> str:
    """The whole report page as one self-contained HTML string."""
    sections = [
        _section_summary(store),
        _section_mttf(store),
        _section_protection(store),
        _section_avf(store),
        _section_campaigns(store),
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        "<title>MB-AVF results</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>MB-AVF results store</h1>"
        "<p>Figures and tables of the MICRO 2014 reproduction, rendered "
        "from stored results — no simulation ran to build this page.</p>"
        + "".join(sections)
        + "</body></html>\n"
    )


def build_report(store: ResultStore, outdir: Path) -> Path:
    """Render the static report into ``outdir`` (atomically); returns the
    index path.  Byte-stable: same store contents, same bytes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    index = outdir / "index.html"
    atomic_write(index, render_index(store))
    return index
