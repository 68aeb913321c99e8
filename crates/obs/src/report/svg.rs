//! Hand-rolled SVG charts: line charts, horizontal bar charts, log2
//! histogram plots, and set-heatmap grids.
//!
//! Conventions (documented in DESIGN.md):
//!
//! * fixed viewport per chart kind, scaled by the browser (`max-width`
//!   in the page stylesheet);
//! * a fixed eight-color palette assigned to series in input order;
//! * axis ticks at 1/2/5 × 10^k steps, labels through
//!   [`fmt_num`];
//! * tooltips are `<title>` children (pure SVG, no scripts);
//! * all user-controlled text (series names, marker labels) is escaped.
//!
//! Output is deterministic: coordinates are formatted with fixed
//! precision and every collection is rendered in input order.

use super::{escape_html, fmt_num};

/// The fixed series palette (Tableau-like, color-blind friendly order).
pub const PALETTE: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
];

/// The color for series `i` (wraps around the palette).
pub fn series_color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

fn fmt_coord(v: f64) -> String {
    format!("{v:.1}")
}

/// Tick positions covering `min..=max` at a 1/2/5 × 10^k step.
fn ticks(min: f64, max: f64) -> Vec<f64> {
    let span = max - min;
    if !(span.is_finite() && span > 0.0) {
        return vec![min];
    }
    let raw = span / 4.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let step = mag
        * if norm <= 1.0 {
            1.0
        } else if norm <= 2.0 {
            2.0
        } else if norm <= 5.0 {
            5.0
        } else {
            10.0
        };
    let mut t = (min / step).ceil() * step;
    let mut out = Vec::new();
    while t <= max + step * 1e-9 && out.len() < 12 {
        // Snap -0.0 and float dust to clean multiples for stable labels.
        out.push((t / step).round() * step);
        t += step;
    }
    out
}

/// One named line-chart series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (escaped at render).
    pub name: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A new series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// A multi-series line chart with axes, ticks, legend, and optional
/// vertical reference lines.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title (escaped at render).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, colored in input order.
    pub series: Vec<Series>,
    /// Vertical dashed reference lines at data-x positions (e.g. trace
    /// segment boundaries), with a small label.
    pub vlines: Vec<(f64, String)>,
    /// Force the y axis to start at zero.
    pub y_zero: bool,
}

impl LineChart {
    /// A new chart with the given title and axis labels.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> LineChart {
        LineChart {
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            series: Vec::new(),
            vlines: Vec::new(),
            y_zero: false,
        }
    }

    fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, y) in &s.points {
                if x.is_finite() && y.is_finite() {
                    xs.push(x);
                    ys.push(y);
                }
            }
        }
        let fold = |v: &[f64]| -> (f64, f64) {
            v.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                })
        };
        let (mut x0, mut x1) = fold(&xs);
        let (mut y0, mut y1) = fold(&ys);
        if xs.is_empty() {
            (x0, x1) = (0.0, 1.0);
            (y0, y1) = (0.0, 1.0);
        }
        if self.y_zero {
            y0 = y0.min(0.0);
        }
        if x1 - x0 <= 0.0 {
            (x0, x1) = (x0 - 0.5, x1 + 0.5);
        }
        if y1 - y0 <= 0.0 {
            (y0, y1) = (y0 - 0.5, y1 + 0.5);
        }
        ((x0, x1), (y0, y1))
    }

    /// Renders the chart as an inline `<svg>` element.
    pub fn svg(&self) -> String {
        const W: f64 = 680.0;
        const H: f64 = 300.0;
        const ML: f64 = 64.0; // left margin (y tick labels)
        const MR: f64 = 16.0;
        const MT: f64 = 24.0; // title
        const MB: f64 = 46.0; // x ticks + axis label
        let pw = W - ML - MR;
        let ph = H - MT - MB;
        let ((x0, x1), (y0, y1)) = self.bounds();
        let sx = |x: f64| ML + (x - x0) / (x1 - x0) * pw;
        let sy = |y: f64| MT + ph - (y - y0) / (y1 - y0) * ph;

        let mut s = format!(
            "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" \
             aria-label=\"{}\">\n",
            escape_html(&self.title)
        );
        s.push_str(&format!(
            "<text x=\"{ML}\" y=\"15\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
            escape_html(&self.title)
        ));
        // Plot frame.
        s.push_str(&format!(
            "<rect x=\"{ML}\" y=\"{MT}\" width=\"{}\" height=\"{}\" fill=\"none\" \
             stroke=\"#99a\" stroke-width=\"1\"/>\n",
            fmt_coord(pw),
            fmt_coord(ph)
        ));
        // Y ticks and gridlines.
        for t in ticks(y0, y1) {
            let y = sy(t);
            s.push_str(&format!(
                "<line x1=\"{ML}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#e3e6ea\" \
                 stroke-width=\"1\"/>\n",
                fmt_coord(y),
                fmt_coord(W - MR)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{}</text>\n",
                fmt_coord(ML - 6.0),
                fmt_coord(y + 3.0),
                fmt_num(t)
            ));
        }
        // X ticks.
        for t in ticks(x0, x1) {
            let x = sx(t);
            s.push_str(&format!(
                "<line x1=\"{0}\" y1=\"{1}\" x2=\"{0}\" y2=\"{2}\" stroke=\"#99a\" \
                 stroke-width=\"1\"/>\n",
                fmt_coord(x),
                fmt_coord(MT + ph),
                fmt_coord(MT + ph + 4.0)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"middle\">{}</text>\n",
                fmt_coord(x),
                fmt_coord(MT + ph + 16.0),
                fmt_num(t)
            ));
        }
        // Axis labels.
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\">{}</text>\n",
            fmt_coord(ML + pw / 2.0),
            fmt_coord(H - 8.0),
            escape_html(&self.x_label)
        ));
        s.push_str(&format!(
            "<text x=\"14\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\" \
             transform=\"rotate(-90 14 {0})\">{1}</text>\n",
            fmt_coord(MT + ph / 2.0),
            escape_html(&self.y_label)
        ));
        // Vertical reference lines.
        for (x, label) in &self.vlines {
            let px = sx(*x);
            s.push_str(&format!(
                "<line x1=\"{0}\" y1=\"{MT}\" x2=\"{0}\" y2=\"{1}\" stroke=\"#bbb\" \
                 stroke-width=\"1\" stroke-dasharray=\"3 3\"><title>{2}</title></line>\n",
                fmt_coord(px),
                fmt_coord(MT + ph),
                escape_html(label)
            ));
        }
        // Series polylines (+ point dots when sparse enough to see them).
        for (i, series) in self.series.iter().enumerate() {
            let color = series_color(i);
            let pts: Vec<String> = series
                .points
                .iter()
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .map(|&(x, y)| format!("{},{}", fmt_coord(sx(x)), fmt_coord(sy(y))))
                .collect();
            if pts.is_empty() {
                continue;
            }
            s.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                 stroke-width=\"1.5\"/>\n",
                pts.join(" ")
            ));
            if series.points.len() <= 64 {
                for &(x, y) in &series.points {
                    if !(x.is_finite() && y.is_finite()) {
                        continue;
                    }
                    s.push_str(&format!(
                        "<circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{color}\">\
                         <title>{}: ({}, {})</title></circle>\n",
                        fmt_coord(sx(x)),
                        fmt_coord(sy(y)),
                        escape_html(&series.name),
                        fmt_num(x),
                        fmt_num(y)
                    ));
                }
            }
        }
        // Legend, top-right inside the frame.
        for (i, series) in self.series.iter().enumerate() {
            let y = MT + 12.0 + i as f64 * 14.0;
            let x = W - MR - 150.0;
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"10\" height=\"3\" fill=\"{}\"/>\n",
                fmt_coord(x),
                fmt_coord(y - 3.0),
                series_color(i)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\">{}</text>\n",
                fmt_coord(x + 14.0),
                fmt_coord(y),
                escape_html(&series.name)
            ));
        }
        s.push_str("</svg>");
        s
    }
}

/// A horizontal bar chart: one labelled bar per entry, value printed at
/// the bar's end, bars scaled to the maximum value.
#[derive(Debug, Clone)]
pub struct BarChart {
    /// Chart title (escaped at render).
    pub title: String,
    /// Unit suffix appended to the printed values (escaped).
    pub unit: String,
    /// `(label, value)` pairs in display order.
    pub bars: Vec<(String, f64)>,
}

impl BarChart {
    /// A new bar chart.
    pub fn new(title: &str, unit: &str) -> BarChart {
        BarChart {
            title: title.to_owned(),
            unit: unit.to_owned(),
            bars: Vec::new(),
        }
    }

    /// Appends one bar.
    pub fn bar(&mut self, label: impl Into<String>, value: f64) {
        self.bars.push((label.into(), value));
    }

    /// Renders the chart as an inline `<svg>` element.
    pub fn svg(&self) -> String {
        const W: f64 = 680.0;
        const BAR_H: f64 = 16.0;
        const GAP: f64 = 6.0;
        const MT: f64 = 24.0;
        let ml = 12.0
            + self
                .bars
                .iter()
                .map(|(l, _)| l.chars().count())
                .max()
                .unwrap_or(4) as f64
                * 6.6;
        let ml = ml.min(240.0);
        let h = MT + self.bars.len() as f64 * (BAR_H + GAP) + 8.0;
        let max = self
            .bars
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let pw = W - ml - 90.0;
        let mut s = format!(
            "<svg viewBox=\"0 0 {W} {h}\" width=\"{W}\" height=\"{h}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"{}\">\n",
            escape_html(&self.title)
        );
        s.push_str(&format!(
            "<text x=\"4\" y=\"15\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
            escape_html(&self.title)
        ));
        for (i, (label, value)) in self.bars.iter().enumerate() {
            let y = MT + i as f64 * (BAR_H + GAP);
            let w = (value / max * pw).max(0.0);
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{}</text>\n",
                fmt_coord(ml - 6.0),
                fmt_coord(y + BAR_H - 4.0),
                escape_html(label)
            ));
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{BAR_H}\" fill=\"{}\">\
                 <title>{}: {}{}</title></rect>\n",
                fmt_coord(ml),
                fmt_coord(y),
                fmt_coord(w),
                series_color(i),
                escape_html(label),
                fmt_num(*value),
                escape_html(&self.unit)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\">{}{}</text>\n",
                fmt_coord(ml + w + 5.0),
                fmt_coord(y + BAR_H - 4.0),
                fmt_num(*value),
                escape_html(&self.unit)
            ));
        }
        s.push_str("</svg>");
        s
    }
}

/// A horizontal stacked bar chart: one labelled bar per entry, each bar
/// split into segments (one per named series, colored in series order),
/// with the total printed at the bar's end. Bars scale to the maximum
/// total. Used for wait-vs-service latency attribution, where the
/// segments of one bar are phases of the same measured whole.
#[derive(Debug, Clone)]
pub struct StackedBarChart {
    /// Chart title (escaped at render).
    pub title: String,
    /// Unit suffix appended to the printed totals (escaped).
    pub unit: String,
    /// Segment names, in stacking order (escaped; colored by index).
    pub segments: Vec<String>,
    /// `(label, values)` per bar; `values` aligns with `segments` and
    /// missing trailing values count as zero.
    pub bars: Vec<(String, Vec<f64>)>,
}

impl StackedBarChart {
    /// A new stacked bar chart with the given segment names.
    pub fn new(title: &str, unit: &str, segments: &[&str]) -> StackedBarChart {
        StackedBarChart {
            title: title.to_owned(),
            unit: unit.to_owned(),
            segments: segments.iter().map(|s| (*s).to_owned()).collect(),
            bars: Vec::new(),
        }
    }

    /// Appends one bar with per-segment values.
    pub fn bar(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.bars.push((label.into(), values));
    }

    /// Renders the chart as an inline `<svg>` element.
    pub fn svg(&self) -> String {
        const W: f64 = 680.0;
        const BAR_H: f64 = 16.0;
        const GAP: f64 = 6.0;
        const MT: f64 = 24.0;
        let ml = 12.0
            + self
                .bars
                .iter()
                .map(|(l, _)| l.chars().count())
                .max()
                .unwrap_or(4) as f64
                * 6.6;
        let ml = ml.min(240.0);
        let legend_h = 14.0;
        let h = MT + legend_h + self.bars.len() as f64 * (BAR_H + GAP) + 8.0;
        let max = self
            .bars
            .iter()
            .map(|(_, vs)| vs.iter().filter(|v| v.is_finite()).sum::<f64>())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let pw = W - ml - 90.0;
        let mut s = format!(
            "<svg viewBox=\"0 0 {W} {h}\" width=\"{W}\" height=\"{h}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"{}\">\n",
            escape_html(&self.title)
        );
        s.push_str(&format!(
            "<text x=\"4\" y=\"15\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
            escape_html(&self.title)
        ));
        // Legend row under the title: one swatch per segment.
        let mut lx = ml;
        for (i, name) in self.segments.iter().enumerate() {
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{}\"/>\n",
                fmt_coord(lx),
                fmt_coord(MT),
                series_color(i)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\">{}</text>\n",
                fmt_coord(lx + 13.0),
                fmt_coord(MT + 9.0),
                escape_html(name)
            ));
            lx += 13.0 + 8.0 + name.chars().count() as f64 * 6.6;
        }
        for (i, (label, values)) in self.bars.iter().enumerate() {
            let y = MT + legend_h + i as f64 * (BAR_H + GAP);
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{}</text>\n",
                fmt_coord(ml - 6.0),
                fmt_coord(y + BAR_H - 4.0),
                escape_html(label)
            ));
            let mut x = ml;
            let mut total = 0.0;
            for (j, name) in self.segments.iter().enumerate() {
                let v = values.get(j).copied().unwrap_or(0.0);
                if !v.is_finite() || v <= 0.0 {
                    continue;
                }
                total += v;
                let w = v / max * pw;
                s.push_str(&format!(
                    "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{BAR_H}\" fill=\"{}\">\
                     <title>{}: {} = {}{}</title></rect>\n",
                    fmt_coord(x),
                    fmt_coord(y),
                    fmt_coord(w),
                    series_color(j),
                    escape_html(label),
                    escape_html(name),
                    fmt_num(v),
                    escape_html(&self.unit)
                ));
                x += w;
            }
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\">{}{}</text>\n",
                fmt_coord(x + 5.0),
                fmt_coord(y + BAR_H - 4.0),
                fmt_num(total),
                escape_html(&self.unit)
            ));
        }
        s.push_str("</svg>");
        s
    }
}

/// Renders a [`Log2Histogram`](crate::Log2Histogram) as a bar chart with
/// `≤ 2^k` bucket labels.
pub fn log2_histogram_chart(title: &str, unit: &str, h: &crate::Log2Histogram) -> String {
    let mut chart = BarChart::new(title, "");
    for (i, &count) in h.buckets.iter().enumerate() {
        let label = format!(
            "\u{2264} {} {unit}",
            crate::Log2Histogram::bucket_upper_bound(i)
        );
        chart.bar(label, count as f64);
    }
    if chart.bars.is_empty() {
        chart.bar("(empty)", 0.0);
    }
    chart.svg()
}

/// One tile of a [`HeatGrid`].
#[derive(Debug, Clone)]
pub struct HeatCell {
    /// Short tile label (escaped).
    pub label: String,
    /// Intensity value; tiles are shaded relative to the grid maximum.
    pub value: f64,
    /// Tooltip detail (escaped).
    pub detail: String,
}

/// A wrapped grid of shaded tiles — the "set heatmap": one tile per
/// cache set, shaded by access or conflict intensity.
#[derive(Debug, Clone)]
pub struct HeatGrid {
    /// Grid title (escaped).
    pub title: String,
    /// Tiles in display order (callers sort for determinism).
    pub cells: Vec<HeatCell>,
    /// Tiles per row.
    pub columns: usize,
}

impl HeatGrid {
    /// A new grid with the default 8 columns.
    pub fn new(title: &str) -> HeatGrid {
        HeatGrid {
            title: title.to_owned(),
            cells: Vec::new(),
            columns: 8,
        }
    }

    /// Renders the grid as an inline `<svg>` element.
    pub fn svg(&self) -> String {
        const CW: f64 = 78.0;
        const CH: f64 = 34.0;
        const GAP: f64 = 4.0;
        const MT: f64 = 24.0;
        let cols = self.columns.max(1);
        let rows = self.cells.len().div_ceil(cols);
        let w = 8.0 + cols as f64 * (CW + GAP);
        let h = MT + rows.max(1) as f64 * (CH + GAP) + 6.0;
        let max = self
            .cells
            .iter()
            .map(|c| c.value)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut s = format!(
            "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"{}\">\n",
            escape_html(&self.title)
        );
        s.push_str(&format!(
            "<text x=\"4\" y=\"15\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
            escape_html(&self.title)
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            let x = 4.0 + (i % cols) as f64 * (CW + GAP);
            let y = MT + (i / cols) as f64 * (CH + GAP);
            // White -> warm orange -> deep red as intensity rises.
            let t = (cell.value / max).clamp(0.0, 1.0);
            let r = 255.0 - t * 75.0;
            let g = 245.0 - t * 175.0;
            let b = 235.0 - t * 195.0;
            let text_fill = if t > 0.6 { "#fff" } else { "#333" };
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"{CW}\" height=\"{CH}\" rx=\"3\" \
                 fill=\"rgb({:.0},{:.0},{:.0})\" stroke=\"#ccc\" stroke-width=\"0.5\">\
                 <title>{}</title></rect>\n",
                fmt_coord(x),
                fmt_coord(y),
                r,
                g,
                b,
                escape_html(&cell.detail)
            ));
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"middle\" \
                 fill=\"{text_fill}\">{}</text>\n",
                fmt_coord(x + CW / 2.0),
                fmt_coord(y + CH / 2.0 + 3.0),
                escape_html(&cell.label)
            ));
        }
        s.push_str("</svg>");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(svg: &str) -> String {
        format!("<!DOCTYPE html>\n<html><body>{svg}</body></html>")
    }

    #[test]
    fn ticks_are_round_and_cover_the_span() {
        let t = ticks(0.0, 1.0);
        assert!(t.len() >= 3, "{t:?}");
        assert!(t.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)), "{t:?}");
        let t = ticks(17.0, 9431.0);
        assert!(t.iter().all(|&v| v % 1000.0 == 0.0), "{t:?}");
        assert!(t.iter().all(|&v| (17.0..=9431.0).contains(&v)), "{t:?}");
        assert_eq!(ticks(3.0, 3.0), vec![3.0]);
    }

    #[test]
    fn line_chart_is_well_formed_and_escaped() {
        let mut c = LineChart::new("t <&>", "x", "y");
        c.series.push(Series::new(
            "s<1>",
            vec![(0.0, 0.1), (1.0, 0.4), (2.0, 0.2)],
        ));
        c.vlines.push((1.5, "segment 2".into()));
        let svg = c.svg();
        assert!(!svg.contains("s<1>"), "unescaped series name");
        assert!(svg.contains("polyline"));
        crate::report::validate_self_contained(&wrap(&svg)).expect("balanced");
    }

    #[test]
    fn empty_line_chart_still_renders() {
        let c = LineChart::new("empty", "x", "y");
        crate::report::validate_self_contained(&wrap(&c.svg())).expect("balanced");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let mut c = BarChart::new("bars", " us");
        c.bar("a", 10.0);
        c.bar("b", 5.0);
        let svg = c.svg();
        assert!(svg.contains("bars"));
        crate::report::validate_self_contained(&wrap(&svg)).expect("balanced");
    }

    #[test]
    fn stacked_bar_chart_stacks_and_escapes() {
        let mut c = StackedBarChart::new("phases <x>", " ns", &["wait", "service", "overhead"]);
        c.bar("1 thread", vec![10.0, 80.0, 5.0]);
        c.bar("4 <threads>", vec![60.0, 85.0]);
        let svg = c.svg();
        assert!(!svg.contains("4 <threads>"), "unescaped bar label");
        assert!(svg.contains("wait"), "legend names segments");
        assert!(
            svg.matches("<rect").count() >= 5 + 3,
            "segment rects + legend swatches"
        );
        crate::report::validate_self_contained(&wrap(&svg)).expect("balanced");
        assert_eq!(c.svg(), c.svg(), "deterministic");
    }

    #[test]
    fn log2_chart_labels_buckets() {
        let mut h = crate::Log2Histogram::new();
        for v in [1u64, 2, 3, 900] {
            h.observe(v);
        }
        let svg = log2_histogram_chart("sizes", "refs", &h);
        assert!(svg.contains("\u{2264} 1024 refs"), "{svg}");
        crate::report::validate_self_contained(&wrap(&svg)).expect("balanced");
    }

    #[test]
    fn heat_grid_shades_and_escapes() {
        let mut g = HeatGrid::new("sets");
        for i in 0..10u64 {
            g.cells.push(HeatCell {
                label: format!("set {i}"),
                value: i as f64,
                detail: format!("<set {i}>"),
            });
        }
        let svg = g.svg();
        assert!(!svg.contains("<set "), "unescaped detail");
        crate::report::validate_self_contained(&wrap(&svg)).expect("balanced");
    }

    #[test]
    fn charts_render_deterministically() {
        let build = || {
            let mut c = LineChart::new("d", "x", "y");
            c.series
                .push(Series::new("s", vec![(0.0, 1.0 / 3.0), (1.0, 2.0 / 7.0)]));
            c.svg()
        };
        assert_eq!(build(), build());
    }
}
