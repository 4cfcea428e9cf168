#!/usr/bin/env python3
"""Render icfp-sim artifacts to SVG — the report layer over the raw grids.

Inputs are the machine-readable artifacts the harnesses already emit:

  * sweep CSVs (``icfp-sim sweep --format csv``, ``icfp-sim figure
    --format csv``, fetched service artifacts) -> a fig5-style grouped-bar chart of
    percent speedup over the in-order baseline, one group per benchmark,
    one bar per scheme;
  * ``BENCH_perf.json`` files (``icfp-sim perf``) -> simulator throughput
    per scheme; several files plot as a trajectory in argument order
    (the before/after ledger of the perf work), one file as bars;
  * metrics JSON dumps (``icfp-sim metrics --json``) -> a per-scheme
    replay-latency histogram from the ``icfp_replay_duration_us``
    bucket samples, one bar group per latency bucket, one bar per
    scheme (bench and peer labels are summed away).

Standard library only (CI runs this right after the smoke sweeps), and
deterministic: the same artifact bytes render the same SVG bytes.

Usage:
  python3 tools/plot_artifacts.py --out-dir plots \
      --sweep-csv build/sweep.csv [--sweep-csv ...] \
      --perf-json build/BENCH_perf.json [--perf-json ...] \
      --metrics-json build/metrics.json [--metrics-json ...]
"""

import argparse
import csv
import json
import os
import sys

# The validated categorical palette (fixed slot order, never cycled; a
# 7th+ series folds into the cap check below). Light-surface steps.
PALETTE = [
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
]
SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_SOFT = "#52514e"
GRID = "#e4e3df"
AXIS = "#b5b4ae"

FONT = 'font-family="system-ui, -apple-system, sans-serif"'


def esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class Svg:
    """A tiny deterministic SVG assembler."""

    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        ]

    def rect(self, x, y, w, h, fill, rx=0, title=None):
        tip = f"<title>{esc(title)}</title>" if title else ""
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" rx="{rx}" fill="{fill}">{tip}</rect>'
            if tip else
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" rx="{rx}" fill="{fill}"/>')

    def line(self, x1, y1, x2, y2, stroke, width=1):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="{stroke}" stroke-width="{width}"/>')

    def polyline(self, points, stroke, width=2):
        text = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{text}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}" stroke-linejoin="round" '
            f'stroke-linecap="round"/>')

    def circle(self, x, y, r, fill, title=None):
        tip = f"<title>{esc(title)}</title>" if title else ""
        self.parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}" '
            f'stroke="{SURFACE}" stroke-width="2">{tip}</circle>'
            if tip else
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}" '
            f'stroke="{SURFACE}" stroke-width="2"/>')

    def text(self, x, y, content, size=12, fill=INK, anchor="start",
             rotate=None):
        transform = (f' transform="rotate({rotate} {x:.1f} {y:.1f})"'
                     if rotate is not None else "")
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" {FONT} '
            f'fill="{fill}" text-anchor="{anchor}"{transform}>'
            f'{esc(content)}</text>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.parts) + "\n")
        print(f"plot_artifacts: wrote {path}")


def nice_ticks(lo, hi, n=5):
    """Round tick positions covering [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * mag:
            step *= mag
            break
    else:
        step = 10 * mag
    first = int(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 0.01:
        if t >= lo - step * 0.01:
            ticks.append(round(t, 6))
        t += step
    return ticks


def read_sweep_csv(path):
    """-> (benches in file order, series labels in file order,
           {(bench, series): (cycles, core)})."""
    benches, series, cells = [], [], {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row.get("bench") is None or row.get("cycles") is None:
                raise SystemExit(
                    f"{path}: not a sweep CSV (no bench/cycles columns)")
            bench, variant = row["bench"], row["variant"]
            if bench not in benches:
                benches.append(bench)
            if variant not in series:
                series.append(variant)
            cells[(bench, variant)] = (int(row["cycles"]), row["core"])
    return benches, series, cells


def plot_speedups(path, out_dir):
    benches, series, cells = read_sweep_csv(path)

    # The baseline is the in-order row of each benchmark (fig5's "base").
    base_series = [s for s in series
                   if any(cells.get((b, s), (0, ""))[1] == "in-order"
                          for b in benches)]
    if not base_series:
        print(f"plot_artifacts: {path}: no in-order baseline rows; "
              "skipping speedup plot", file=sys.stderr)
        return
    base = base_series[0]
    others = [s for s in series if s != base]
    if not others:
        print(f"plot_artifacts: {path}: only a baseline series; "
              "nothing to plot", file=sys.stderr)
        return
    if len(others) > len(PALETTE):
        # Fixed palette order, never cycled: past 8 series the chart
        # stops being readable — fail loudly rather than inventing hues.
        raise SystemExit(f"{path}: {len(others)} series exceeds the "
                         f"{len(PALETTE)}-slot palette; split the grid")

    speedups = {}
    lo, hi = 0.0, 0.0
    for b in benches:
        if (b, base) not in cells:
            continue
        base_cycles = cells[(b, base)][0]
        for s in others:
            if (b, s) not in cells:
                continue
            pct = 100.0 * (base_cycles / cells[(b, s)][0] - 1.0)
            speedups[(b, s)] = pct
            lo, hi = min(lo, pct), max(hi, pct)

    bar_w, gap, group_pad = 9, 2, 14
    group_w = len(others) * (bar_w + gap) - gap + group_pad
    margin_l, margin_r, margin_t, margin_b = 64, 16, 56, 96
    plot_w = len(benches) * group_w
    plot_h = 320
    svg = Svg(margin_l + plot_w + margin_r, margin_t + plot_h + margin_b)

    title = os.path.splitext(os.path.basename(path))[0]
    svg.text(margin_l, 24, f"% speedup over in-order — {title}", 15, INK)
    svg.text(margin_l, 42, "grouped by benchmark; one bar per scheme",
             11, INK_SOFT)

    ticks = nice_ticks(lo, hi * 1.05 if hi > 0 else 1.0)
    lo_t, hi_t = min(ticks + [lo]), max(ticks + [hi])
    span = hi_t - lo_t or 1.0

    def y_of(v):
        return margin_t + plot_h * (1.0 - (v - lo_t) / span)

    for t in ticks:
        y = y_of(t)
        svg.line(margin_l, y, margin_l + plot_w, y,
                 AXIS if t == 0 else GRID, 1)
        svg.text(margin_l - 6, y + 4, f"{t:g}", 11, INK_SOFT, "end")
    svg.text(16, margin_t + plot_h / 2, "% speedup", 11, INK_SOFT,
             "middle", rotate=-90)

    for bi, b in enumerate(benches):
        gx = margin_l + bi * group_w + group_pad / 2
        for si, s in enumerate(others):
            if (b, s) not in speedups:
                continue
            v = speedups[(b, s)]
            x = gx + si * (bar_w + gap)
            y0, y1 = y_of(max(v, 0.0)), y_of(min(v, 0.0))
            svg.rect(x, y0, bar_w, max(y1 - y0, 1.0), PALETTE[si], rx=2,
                     title=f"{b} · {s}: {v:+.1f}%")
        svg.text(gx + (group_w - group_pad) / 2,
                 margin_t + plot_h + 14, b, 11, INK_SOFT, "end",
                 rotate=-45)

    # Legend: identity is never color-alone — swatch + label per scheme.
    lx, ly = margin_l, margin_t + plot_h + margin_b - 18
    for si, s in enumerate(others):
        svg.rect(lx, ly - 9, 10, 10, PALETTE[si], rx=2)
        svg.text(lx + 14, ly, s, 11, INK)
        lx += 22 + 7 * len(s)

    out = os.path.join(out_dir, f"{title}_speedup.svg")
    svg.write(out)


def read_perf_json(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") != "icfp-sim-perf-v1":
        raise SystemExit(f"{path}: not an icfp-sim-perf-v1 artifact")
    schemes = [(s["scheme"], s["insts_per_sec"] / 1e6)
               for s in data["schemes"]]
    schemes.append(("trace gen", data["trace_gen"]["insts_per_sec"] / 1e6))
    schemes.append(("overall replay",
                    data["replay"]["insts_per_sec"] / 1e6))
    label = os.path.splitext(os.path.basename(path))[0]
    return label, data.get("grid", "?"), schemes


def plot_perf(paths, out_dir):
    reports = [read_perf_json(p) for p in paths]
    # Series = the first report's scheme order (fixed palette order);
    # later reports must describe the same grid shape to be a trajectory.
    names = [name for name, _ in reports[0][2]]
    if len(names) > len(PALETTE) + 2:
        raise SystemExit(f"{paths[0]}: too many schemes to color")

    margin_l, margin_t, margin_b = 64, 56, 72
    plot_h = 300

    hi = max(v for _, _, ss in reports for _, v in ss)
    ticks = nice_ticks(0.0, hi * 1.1)
    span = max(ticks) or 1.0

    def y_of(v):
        return margin_t + plot_h * (1.0 - v / span)

    def color_of(i, name):
        # trace gen / overall replay ride as neutral-ink context series.
        return INK_SOFT if name in ("trace gen", "overall replay") \
            else PALETTE[i % len(PALETTE)]

    if len(reports) == 1:
        label, grid, schemes = reports[0]
        bar_w, gap = 34, 14
        plot_w = len(schemes) * (bar_w + gap)
        svg = Svg(margin_l + plot_w + 120, margin_t + plot_h + margin_b)
        svg.text(margin_l, 24,
                 f"simulator throughput — {label} (grid {grid})", 15)
        svg.text(margin_l, 42, "million simulated instructions per host "
                 "second", 11, INK_SOFT)
        for t in ticks:
            svg.line(margin_l, y_of(t), margin_l + plot_w, y_of(t),
                     AXIS if t == 0 else GRID, 1)
            svg.text(margin_l - 6, y_of(t) + 4, f"{t:g}", 11, INK_SOFT,
                     "end")
        for i, (name, v) in enumerate(schemes):
            x = margin_l + i * (bar_w + gap) + gap / 2
            svg.rect(x, y_of(v), bar_w, y_of(0) - y_of(v) or 1.0,
                     color_of(i, name), rx=3,
                     title=f"{name}: {v:.2f} Minsts/s")
            svg.text(x + bar_w / 2, y_of(v) - 5, f"{v:.1f}", 10,
                     INK_SOFT, "middle")
            svg.text(x + bar_w / 2, margin_t + plot_h + 14, name, 11,
                     INK_SOFT, "end", rotate=-35)
        out = os.path.join(out_dir, "perf_throughput.svg")
        svg.write(out)
        return

    step = 120
    plot_w = (len(reports) - 1) * step + 40
    svg = Svg(margin_l + plot_w + 180, margin_t + plot_h + margin_b)
    svg.text(margin_l, 24, "simulator throughput trajectory", 15)
    svg.text(margin_l, 42,
             "Minsts/s per scheme across perf artifacts (argument order)",
             11, INK_SOFT)
    for t in ticks:
        svg.line(margin_l, y_of(t), margin_l + plot_w, y_of(t),
                 AXIS if t == 0 else GRID, 1)
        svg.text(margin_l - 6, y_of(t) + 4, f"{t:g}", 11, INK_SOFT, "end")
    for ri, (label, _, _) in enumerate(reports):
        svg.text(margin_l + 20 + ri * step, margin_t + plot_h + 16,
                 label, 10, INK_SOFT, "middle")

    for i, name in enumerate(names):
        color = color_of(i, name)
        # Pair each point with its value at build time: an artifact
        # missing this scheme (older binary, other suite) just leaves a
        # gap instead of shifting later points onto the wrong report.
        points = []
        for ri, (_, _, schemes) in enumerate(reports):
            values = dict(schemes)
            if name in values:
                points.append((margin_l + 20 + ri * step,
                               y_of(values[name]), values[name]))
        if not points:
            continue
        svg.polyline([(x, y) for x, y, _ in points], color)
        for x, y, v in points:
            svg.circle(x, y, 4, color,
                       title=f"{name}: {v:.2f} Minsts/s")
        # Direct label at the line's end; identity also in the legend.
        x, y, _ = points[-1]
        svg.text(x + 10, y + 4, name, 11, color)

    out = os.path.join(out_dir, "perf_trajectory.svg")
    svg.write(out)


def parse_sample_name(name):
    """``base{k="v",...}`` -> (base, {k: v}); label values may contain
    escaped quotes/backslashes (escapeLabelValue's format)."""
    brace = name.find("{")
    if brace < 0:
        return name, {}
    base, labels, body = name[:brace], {}, name[brace + 1:-1]
    i = 0
    while i < len(body):
        eq = body.index('="', i)
        key = body[i:eq]
        j = eq + 2
        value = []
        while body[j] != '"':
            if body[j] == "\\":
                j += 1
            value.append(body[j])
            j += 1
        labels[key] = "".join(value)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return base, labels


def fmt_le(le):
    """A bucket bound in microseconds -> a human axis label."""
    if le == "+Inf":
        return "+Inf"
    us = int(le)
    if us >= 1000000:
        return f"≤{us // 1000000}s" if us % 1000000 == 0 \
            else f"≤{us / 1000000:g}s"
    if us >= 1000:
        return f"≤{us // 1000}ms" if us % 1000 == 0 \
            else f"≤{us / 1000:g}ms"
    return f"≤{us}µs"


def plot_replay_latency(path, out_dir):
    """Metrics JSON dump -> per-scheme replay-latency histogram."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: not a flat metrics JSON object")

    # Cumulative bucket counts summed over bench (and, in a fleet
    # rollup, peer) labels; cumulative sums stay cumulative under +.
    cumulative, les = {}, set()
    for name, value in data.items():
        base, labels = parse_sample_name(name)
        if base != "icfp_replay_duration_us_bucket":
            continue
        core, le = labels.get("core", "?"), labels.get("le")
        if le is None:
            continue
        cumulative[(core, le)] = cumulative.get((core, le), 0) + int(value)
        les.add(le)
    if not cumulative:
        print(f"plot_artifacts: {path}: no icfp_replay_duration_us "
              "bucket samples; skipping replay-latency plot",
              file=sys.stderr)
        return

    def le_key(le):
        return float("inf") if le == "+Inf" else float(le)

    bounds = sorted(les, key=le_key)
    cores = sorted({core for core, _ in cumulative})
    if len(cores) > len(PALETTE):
        raise SystemExit(f"{path}: {len(cores)} schemes exceeds the "
                         f"{len(PALETTE)}-slot palette")

    # Cumulative -> per-bucket, dropping empty trailing buckets keeps
    # the chart honest about where latencies actually land.
    counts = {}
    hi = 0
    for core in cores:
        prev = 0
        for le in bounds:
            cum = cumulative.get((core, le), prev)
            counts[(core, le)] = max(cum - prev, 0)
            hi = max(hi, counts[(core, le)])
            prev = cum
    while len(bounds) > 1 and all(
            counts.get((core, bounds[-1]), 0) == 0 for core in cores):
        bounds.pop()

    bar_w, gap, group_pad = 9, 2, 14
    group_w = len(cores) * (bar_w + gap) - gap + group_pad
    margin_l, margin_r, margin_t, margin_b = 64, 16, 56, 96
    plot_w = len(bounds) * group_w
    plot_h = 300
    svg = Svg(margin_l + plot_w + margin_r, margin_t + plot_h + margin_b)

    title = os.path.splitext(os.path.basename(path))[0]
    svg.text(margin_l, 24, f"replay latency by scheme — {title}", 15, INK)
    svg.text(margin_l, 42, "replays per duration bucket "
             "(icfp_replay_duration_us; benches and peers summed)",
             11, INK_SOFT)

    ticks = nice_ticks(0.0, hi * 1.1 if hi else 1.0)
    span = max(ticks) or 1.0

    def y_of(v):
        return margin_t + plot_h * (1.0 - v / span)

    for t in ticks:
        svg.line(margin_l, y_of(t), margin_l + plot_w, y_of(t),
                 AXIS if t == 0 else GRID, 1)
        svg.text(margin_l - 6, y_of(t) + 4, f"{t:g}", 11, INK_SOFT, "end")
    svg.text(16, margin_t + plot_h / 2, "replays", 11, INK_SOFT,
             "middle", rotate=-90)

    for bi, le in enumerate(bounds):
        gx = margin_l + bi * group_w + group_pad / 2
        for ci, core in enumerate(cores):
            v = counts.get((core, le), 0)
            if v == 0:
                continue
            x = gx + ci * (bar_w + gap)
            svg.rect(x, y_of(v), bar_w, max(y_of(0) - y_of(v), 1.0),
                     PALETTE[ci], rx=2,
                     title=f"{core} · {fmt_le(le)}: {v} replays")
        svg.text(gx + (group_w - group_pad) / 2, margin_t + plot_h + 14,
                 fmt_le(le), 11, INK_SOFT, "end", rotate=-45)

    lx, ly = margin_l, margin_t + plot_h + margin_b - 18
    for ci, core in enumerate(cores):
        svg.rect(lx, ly - 9, 10, 10, PALETTE[ci], rx=2)
        svg.text(lx + 14, ly, core, 11, INK)
        lx += 22 + 7 * len(core)

    out = os.path.join(out_dir, f"{title}_replay_latency.svg")
    svg.write(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep-csv", action="append", default=[],
                        help="sweep CSV artifact (repeatable)")
    parser.add_argument("--perf-json", action="append", default=[],
                        help="BENCH_perf.json artifact (repeatable; "
                             "several plot as a trajectory)")
    parser.add_argument("--metrics-json", action="append", default=[],
                        help="metrics JSON dump from "
                             "'icfp-sim metrics --json' (repeatable)")
    parser.add_argument("--out-dir", default="plots",
                        help="output directory for SVGs")
    args = parser.parse_args()
    if not args.sweep_csv and not args.perf_json and not args.metrics_json:
        parser.error("give at least one --sweep-csv, --perf-json, or "
                     "--metrics-json")

    os.makedirs(args.out_dir, exist_ok=True)
    for path in args.sweep_csv:
        plot_speedups(path, args.out_dir)
    if args.perf_json:
        plot_perf(args.perf_json, args.out_dir)
    for path in args.metrics_json:
        plot_replay_latency(path, args.out_dir)


if __name__ == "__main__":
    main()
