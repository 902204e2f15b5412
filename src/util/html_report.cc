#include "util/html_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "util/json.h"

namespace scq::util {

namespace {

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

// SVG coordinates need sub-pixel precision but no trailing noise.
std::string coord(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// The sequential blue ramp (light -> dark = low -> high), shared by both
// color schemes: every step reads on both surfaces and the scale stays
// comparable across modes.
constexpr const char* kRamp[] = {"#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
                                 "#256abf", "#184f95", "#0d366b"};
constexpr int kRampSteps = 7;

const char* ramp_color(double v, double lo, double hi) {
  if (hi <= lo) return kRamp[0];
  const double t = (v - lo) / (hi - lo);
  int idx = static_cast<int>(t * kRampSteps);
  idx = std::clamp(idx, 0, kRampSteps - 1);
  return kRamp[idx];
}

// Decimates to at most `cap` points, always keeping the first and last.
std::vector<std::pair<double, double>> decimate(
    const std::vector<std::pair<double, double>>& pts, std::size_t cap) {
  if (pts.size() <= cap) return pts;
  std::vector<std::pair<double, double>> out;
  out.reserve(cap);
  const double stride =
      static_cast<double>(pts.size() - 1) / static_cast<double>(cap - 1);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(pts[static_cast<std::size_t>(
        std::min<double>(std::round(static_cast<double>(i) * stride),
                         static_cast<double>(pts.size() - 1)))]);
  }
  return out;
}

// One sparkline chart: a 2px line on a recessive baseline, min/max/last
// annotated in muted ink, per-point hover titles when sparse enough.
std::string render_sparkline(const ReportSeries& s) {
  constexpr double kW = 640, kH = 72, kPadX = 4, kPadY = 8;
  std::string out;
  out += "<div class=\"chart\">\n";
  out += "<div class=\"chart-head\"><span class=\"chart-name\">" +
         html_escape(s.name) + "</span><span class=\"chart-n\">" +
         std::to_string(s.points.size()) + " windows</span></div>\n";
  if (s.points.empty()) {
    out += "<p class=\"empty\">no data</p></div>\n";
    return out;
  }

  double xmin = s.points.front().first, xmax = s.points.back().first;
  double ymin = s.points.front().second, ymax = ymin;
  for (const auto& [x, y] : s.points) {
    ymin = std::min(ymin, y);
    ymax = std::max(ymax, y);
  }
  const double xspan = xmax > xmin ? xmax - xmin : 1.0;
  const double yspan = ymax > ymin ? ymax - ymin : 1.0;
  const auto px = [&](double x) {
    return kPadX + (x - xmin) / xspan * (kW - 2 * kPadX);
  };
  const auto py = [&](double y) {
    return kH - kPadY - (y - ymin) / yspan * (kH - 2 * kPadY);
  };

  const auto pts = decimate(s.points, 256);
  out += "<svg viewBox=\"0 0 " + coord(kW) + " " + coord(kH) +
         "\" role=\"img\" aria-label=\"" + html_escape(s.name) + "\">\n";
  // Recessive baseline at the series minimum.
  out += "<line class=\"axis\" x1=\"" + coord(kPadX) + "\" y1=\"" +
         coord(py(ymin)) + "\" x2=\"" + coord(kW - kPadX) + "\" y2=\"" +
         coord(py(ymin)) + "\"/>\n";
  out += "<polyline class=\"line\" fill=\"none\" points=\"";
  for (const auto& [x, y] : pts) {
    out += coord(px(x)) + "," + coord(py(y)) + " ";
  }
  out += "\"><title>" + html_escape(s.name) + ": min " + num(ymin) + ", max " +
         num(ymax) + "</title></polyline>\n";
  if (pts.size() <= 64) {
    for (const auto& [x, y] : pts) {
      out += "<circle class=\"pt\" cx=\"" + coord(px(x)) + "\" cy=\"" +
             coord(py(y)) + "\" r=\"4\"><title>t=" + num(x) + ": " + num(y) +
             "</title></circle>\n";
    }
  }
  out += "</svg>\n";
  out += "<div class=\"chart-foot\"><span>min " + num(ymin) + "</span><span>max " +
         num(ymax) + "</span><span>last " + num(s.points.back().second) +
         "</span></div>\n";

  // The table view: the accessibility/exact-values channel.
  constexpr std::size_t kTableCap = 512;
  out += "<details><summary>values</summary><table class=\"nums\">"
         "<tr><th>window start</th><th>value</th></tr>";
  const std::size_t n = std::min(s.points.size(), kTableCap);
  for (std::size_t i = 0; i < n; ++i) {
    out += "<tr><td>" + num(s.points[i].first) + "</td><td>" +
           num(s.points[i].second) + "</td></tr>";
  }
  if (s.points.size() > kTableCap) {
    out += "<tr><td colspan=\"2\">… " +
           std::to_string(s.points.size() - kTableCap) +
           " more (see CSV artifact)</td></tr>";
  }
  out += "</table></details>\n</div>\n";
  return out;
}

std::string render_heatmap(const ReportHeatmap& hm) {
  std::string out;
  if (hm.rows.empty() || hm.col_starts.empty()) {
    out += "<p class=\"empty\">no data</p>\n";
    return out;
  }
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const auto& row : hm.values) {
    for (double v : row) {
      if (first) {
        lo = hi = v;
        first = false;
      }
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }

  // Column decimation: long runs stride down to kMaxCols columns so the
  // SVG stays page-sized. Every row shares col_starts, so sampling the
  // same index set keeps rows aligned; the first and last columns are
  // always kept (same policy as the sparkline decimator).
  constexpr std::size_t kMaxCols = 160;
  const std::size_t ncol = hm.col_starts.size();
  std::vector<std::size_t> cols;
  cols.reserve(std::min(ncol, kMaxCols));
  if (ncol <= kMaxCols) {
    for (std::size_t c = 0; c < ncol; ++c) cols.push_back(c);
  } else {
    const double stride = static_cast<double>(ncol - 1) /
                          static_cast<double>(kMaxCols - 1);
    for (std::size_t i = 0; i < kMaxCols; ++i) {
      cols.push_back(static_cast<std::size_t>(
          std::min<double>(std::round(static_cast<double>(i) * stride),
                           static_cast<double>(ncol - 1))));
    }
  }

  constexpr double kCell = 14, kGap = 2, kLabelW = 64, kPad = 4;
  // Wide runs get thinner cells so the SVG stays within the page.
  const double cell_w = std::min(
      kCell, std::max(2.0, 900.0 / static_cast<double>(cols.size())));
  const double w =
      kLabelW + static_cast<double>(cols.size()) * (cell_w + kGap) + kPad;
  const double h =
      static_cast<double>(hm.rows.size()) * (kCell + kGap) + 20 + kPad;
  out += "<svg viewBox=\"0 0 " + coord(w) + " " + coord(h) +
         "\" role=\"img\" aria-label=\"" + html_escape(hm.title) + "\">\n";
  for (std::size_t r = 0; r < hm.rows.size(); ++r) {
    const double y = static_cast<double>(r) * (kCell + kGap);
    out += "<text class=\"label\" x=\"0\" y=\"" + coord(y + kCell - 3) +
           "\">" + html_escape(hm.rows[r]) + "</text>\n";
    if (r >= hm.values.size()) continue;
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const std::size_t c = cols[ci];
      if (c >= hm.values[r].size()) continue;
      const double v = hm.values[r][c];
      const double x = kLabelW + static_cast<double>(ci) * (cell_w + kGap);
      out += "<rect x=\"" + coord(x) + "\" y=\"" + coord(y) + "\" width=\"" +
             coord(cell_w) + "\" height=\"" + coord(kCell) + "\" fill=\"" +
             ramp_color(v, lo, hi) + "\"><title>" + html_escape(hm.rows[r]) +
             " · t=" + num(hm.col_starts[c]) + ": " + num(v) +
             "</title></rect>\n";
    }
  }
  const double axis_y =
      static_cast<double>(hm.rows.size()) * (kCell + kGap) + 14;
  out += "<text class=\"label\" x=\"" + coord(kLabelW) + "\" y=\"" +
         coord(axis_y) + "\">t=" + num(hm.col_starts.front()) + "</text>\n";
  out += "<text class=\"label\" x=\"" + coord(w - kPad) + "\" y=\"" +
         coord(axis_y) + "\" text-anchor=\"end\">t=" +
         num(hm.col_starts.back()) + "</text>\n";
  out += "</svg>\n";
  out += "<div class=\"chart-foot\"><span>low " + num(lo) +
         "</span><span>high " + num(hi) + "</span>";
  if (cols.size() < ncol) {
    out += "<span>showing " + std::to_string(cols.size()) + " of " +
           std::to_string(ncol) + " columns</span>";
  }
  out += "</div>\n";
  return out;
}

std::string render_table(const ReportTable& t) {
  if (t.rows.empty()) return "<p class=\"empty\">no data</p>\n";
  std::string out = "<table class=\"nums\"><tr>";
  for (const auto& col : t.columns) out += "<th>" + html_escape(col) + "</th>";
  out += "</tr>";
  for (const auto& row : t.rows) {
    out += "<tr>";
    for (const auto& cell : row) out += "<td>" + html_escape(cell) + "</td>";
    out += "</tr>";
  }
  out += "</table>\n";
  return out;
}

std::string render_bars(const std::vector<ReportBar>& bars) {
  if (bars.empty()) return "<p class=\"empty\">no data</p>\n";
  std::string out = "<div class=\"bars\">\n";
  for (const auto& b : bars) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.1f", b.share * 100.0);
    out += "<div class=\"bar-row\"><span class=\"bar-label\">" +
           html_escape(b.label) + "</span><span class=\"bar-track\">"
           "<span class=\"bar-fill\" style=\"width:" +
           std::string(pct) + "%\"></span></span><span class=\"bar-pct\">" +
           pct + "%</span></div>\n";
  }
  out += "</div>\n";
  return out;
}

// Palette roles from the validated reference palette; dark mode is its
// own selected steps, applied via both the OS media query and an
// explicit data-theme stamp (toggle wins both ways).
constexpr const char* kStyle = R"css(
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px 32px; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface-1: #fcfcfb; --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7; --series-1: #2a78d6;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) body {
    color-scheme: dark; background: #0d0d0d; color: #ffffff;
    --surface-1: #1a1a19; --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835; --series-1: #3987e5;
    --ring: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] body {
  color-scheme: dark; background: #0d0d0d; color: #ffffff;
  --surface-1: #1a1a19; --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --muted: #898781; --grid: #2c2c2a; --axis: #383835; --series-1: #3987e5;
  --ring: rgba(255,255,255,0.10);
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
section {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
}
.meta { color: var(--text-secondary); }
.meta td { padding: 1px 16px 1px 0; }
.empty { color: var(--muted); font-style: italic; }
.chart { margin: 14px 0; }
.chart-head { display: flex; justify-content: space-between; }
.chart-name { color: var(--text-secondary); font-weight: 600; }
.chart-n { color: var(--muted); }
.chart-foot { display: flex; gap: 24px; color: var(--muted); font-size: 12px; }
svg { display: block; width: 100%; height: auto; max-width: 960px; }
svg .line { stroke: var(--series-1); stroke-width: 2; }
svg .pt { fill: var(--series-1); opacity: 0; }
svg .pt:hover { opacity: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .label { fill: var(--muted); font-size: 10px; }
table.nums { border-collapse: collapse; font-variant-numeric: tabular-nums; }
table.nums th {
  text-align: right; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 2px 14px;
}
table.nums th:first-child { text-align: left; }
table.nums td {
  text-align: right; padding: 2px 14px;
  border-bottom: 1px solid var(--grid);
}
table.nums td:first-child { text-align: left; }
pre.postmortem {
  font: 12px/1.5 ui-monospace, "SF Mono", Menlo, Consolas, monospace;
  color: var(--text-secondary); white-space: pre-wrap; margin: 0;
}
details { margin-top: 6px; }
summary { color: var(--muted); cursor: pointer; font-size: 12px; }
.bars { max-width: 640px; }
.bar-row { display: flex; align-items: center; gap: 10px; margin: 4px 0; }
.bar-label { flex: 0 0 180px; color: var(--text-secondary); text-align: right; }
.bar-track {
  flex: 1; height: 14px; background: var(--grid); border-radius: 4px;
  overflow: hidden; display: block;
}
.bar-fill {
  display: block; height: 100%; background: var(--series-1);
  border-radius: 4px;
}
.bar-pct {
  flex: 0 0 52px; font-variant-numeric: tabular-nums; color: var(--muted);
}
)css";

}  // namespace

std::string HtmlReportBuilder::render() const {
  std::string out = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
                    "<meta charset=\"utf-8\">\n"
                    "<meta name=\"viewport\" content=\"width=device-width, "
                    "initial-scale=1\">\n<title>" +
                    html_escape(title_) + "</title>\n<style>" + kStyle +
                    "</style>\n</head>\n<body>\n";
  out += "<h1>" + html_escape(title_) + "</h1>\n";

  out += "<section id=\"meta\">\n<h2>Run</h2>\n";
  if (meta_.empty()) {
    out += "<p class=\"empty\">no metadata</p>\n";
  } else {
    out += "<table class=\"meta\">";
    for (const auto& [k, v] : meta_) {
      out += "<tr><td>" + html_escape(k) + "</td><td>" + html_escape(v) +
             "</td></tr>";
    }
    out += "</table>\n";
  }
  out += "</section>\n";

  out += "<section id=\"series\">\n<h2>Windowed time series</h2>\n";
  if (series_.empty()) {
    out += "<p class=\"empty\">no windowed series recorded (run with "
           "--telemetry)</p>\n";
  } else {
    for (const auto& s : series_) out += render_sparkline(s);
  }
  out += "</section>\n";

  out += "<section id=\"heatmap\">\n<h2>" +
         html_escape(heatmap_.title.empty() ? "Occupancy heatmap"
                                            : heatmap_.title) +
         "</h2>\n";
  out += render_heatmap(heatmap_);
  out += "</section>\n";

  out += "<section id=\"attribution\">\n<h2>" +
         html_escape(attribution_.title.empty() ? "Critical-path attribution"
                                                : attribution_.title) +
         "</h2>\n";
  out += render_table(attribution_);
  out += "</section>\n";

  out += "<section id=\"taskstats\">\n<h2>" +
         html_escape(task_stats_.title.empty() ? "Task framework statistics"
                                               : task_stats_.title) +
         "</h2>\n";
  out += render_table(task_stats_);
  out += "</section>\n";

  out += "<section id=\"postmortem\">\n<h2>Post-mortem</h2>\n";
  if (postmortem_.empty()) {
    out += "<p class=\"empty\">no abort recorded — nothing to analyze</p>\n";
  } else {
    out += "<pre class=\"postmortem\">" + html_escape(postmortem_) +
           "</pre>\n";
  }
  out += "</section>\n";

  out += "<section id=\"profiler\">\n<h2>Simulator self-profile</h2>\n";
  if (!profiler_stats_.empty()) {
    out += "<table class=\"meta\">";
    for (const auto& [k, v] : profiler_stats_) {
      out += "<tr><td>" + html_escape(k) + "</td><td>" + html_escape(v) +
             "</td></tr>";
    }
    out += "</table>\n";
  }
  out += render_bars(profiler_);
  out += "</section>\n";

  out += "</body>\n</html>\n";
  return out;
}

bool HtmlReportBuilder::write(const std::string& path) const {
  return write_file(path, render());
}

}  // namespace scq::util
