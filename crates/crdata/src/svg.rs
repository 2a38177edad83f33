//! Tiny SVG plot rendering.
//!
//! CRData tools "return output files and figures after running R" (§IV.B).
//! The figure outputs here are real SVG documents — scatter/volcano plots,
//! heatmaps with dendrogram-ordered rows, boxplots — small enough to eyeball
//! and assert on in tests.

use crate::decimal::push_fixed;

/// A point with an optional highlight flag (e.g. significant probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlotPoint {
    /// X coordinate (data space).
    pub x: f64,
    /// Y coordinate (data space).
    pub y: f64,
    /// Highlighted (drawn in the accent color)?
    pub highlight: bool,
}

const WIDTH: f64 = 480.0;
const HEIGHT: f64 = 360.0;
const MARGIN: f64 = 40.0;

fn scale(points: &[PlotPoint]) -> (f64, f64, f64, f64) {
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for p in points {
        xmin = xmin.min(p.x);
        xmax = xmax.max(p.x);
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    if !xmin.is_finite() {
        return (0.0, 1.0, 0.0, 1.0);
    }
    if xmax == xmin {
        xmax = xmin + 1.0;
    }
    if ymax == ymin {
        ymax = ymin + 1.0;
    }
    (xmin, xmax, ymin, ymax)
}

/// Render a scatter plot (used by MA, volcano, PCA and plain scatter
/// tools).
pub fn scatter_plot(title: &str, x_label: &str, y_label: &str, points: &[PlotPoint]) -> String {
    let (xmin, xmax, ymin, ymax) = scale(points);
    let sx = |x: f64| MARGIN + (x - xmin) / (xmax - xmin) * (WIDTH - 2.0 * MARGIN);
    let sy = |y: f64| HEIGHT - MARGIN - (y - ymin) / (ymax - ymin) * (HEIGHT - 2.0 * MARGIN);
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
    );
    out.push_str(&format!(
        r#"<title>{title}</title><rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    ));
    // Axes.
    out.push_str(&format!(
        r#"<line x1="{m}" y1="{b}" x2="{r}" y2="{b}" stroke="black"/><line x1="{m}" y1="{t}" x2="{m}" y2="{b}" stroke="black"/>"#,
        m = MARGIN,
        b = HEIGHT - MARGIN,
        r = WIDTH - MARGIN,
        t = MARGIN
    ));
    out.push_str(&format!(
        r#"<text x="{}" y="{}" font-size="12" text-anchor="middle">{x_label}</text>"#,
        WIDTH / 2.0,
        HEIGHT - 8.0
    ));
    out.push_str(&format!(
        r#"<text x="12" y="{}" font-size="12" text-anchor="middle" transform="rotate(-90 12 {})">{y_label}</text>"#,
        HEIGHT / 2.0,
        HEIGHT / 2.0
    ));
    // One `<circle>` per point, written straight into the document. The
    // buffer is left to grow on its own: reserving room for every point up
    // front measured a higher peak memory in episodes that keep their
    // figures (DESIGN.md §16).
    for p in points {
        out.push_str(r#"<circle cx=""#);
        push_fixed(&mut out, sx(p.x), 2);
        out.push_str(r#"" cy=""#);
        push_fixed(&mut out, sy(p.y), 2);
        out.push_str(if p.highlight {
            r##"" r="2.5" fill="#d62728" fill-opacity="0.7"/>"##
        } else {
            r##"" r="2.5" fill="#1f77b4" fill-opacity="0.7"/>"##
        });
    }
    out.push_str("</svg>");
    out
}

/// Render a heatmap: `values[r][c]` in row-major order with row/column
/// labels (rows typically pre-ordered by a dendrogram).
pub fn heatmap(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    values: &[Vec<f64>],
) -> String {
    let nrows = values.len();
    let ncols = col_labels.len();
    let cell_w = ((WIDTH - 2.0 * MARGIN) / ncols.max(1) as f64).min(40.0);
    let cell_h = ((HEIGHT - 2.0 * MARGIN) / nrows.max(1) as f64).min(18.0);
    // Color scale bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for row in values {
        for &v in row {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi == lo {
        lo = 0.0;
        hi = 1.0;
    }
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"><title>{title}</title><rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    for (r, row) in values.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            // Blue → white → red diverging ramp.
            let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            let (red, green, blue) = if t < 0.5 {
                let u = t * 2.0;
                ((u * 255.0) as u8, (u * 255.0) as u8, 255)
            } else {
                let u = (t - 0.5) * 2.0;
                (255, ((1.0 - u) * 255.0) as u8, ((1.0 - u) * 255.0) as u8)
            };
            out.push_str(&format!(
                r##"<rect x="{:.1}" y="{:.1}" width="{cell_w:.1}" height="{cell_h:.1}" fill="#{red:02x}{green:02x}{blue:02x}"/>"##,
                MARGIN + c as f64 * cell_w,
                MARGIN + r as f64 * cell_h,
            ));
        }
        if let Some(label) = row_labels.get(r) {
            out.push_str(&format!(
                r#"<text x="{:.1}" y="{:.1}" font-size="8">{label}</text>"#,
                MARGIN + ncols as f64 * cell_w + 4.0,
                MARGIN + r as f64 * cell_h + cell_h * 0.75,
            ));
        }
    }
    for (c, label) in col_labels.iter().enumerate() {
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" font-size="9" text-anchor="middle">{label}</text>"#,
            MARGIN + c as f64 * cell_w + cell_w / 2.0,
            MARGIN - 6.0,
        ));
    }
    out.push_str("</svg>");
    out
}

/// Render per-group boxplot data (five-number summaries).
pub fn boxplot(title: &str, groups: &[(String, [f64; 5])]) -> String {
    let n = groups.len().max(1);
    let slot = (WIDTH - 2.0 * MARGIN) / n as f64;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, q) in groups {
        lo = lo.min(q[0]);
        hi = hi.max(q[4]);
    }
    if !lo.is_finite() || hi == lo {
        lo = 0.0;
        hi = 1.0;
    }
    let sy = |v: f64| HEIGHT - MARGIN - (v - lo) / (hi - lo) * (HEIGHT - 2.0 * MARGIN);
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"><title>{title}</title><rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    for (i, (label, q)) in groups.iter().enumerate() {
        let cx = MARGIN + slot * (i as f64 + 0.5);
        let half = slot * 0.3;
        // Whiskers.
        out.push_str(&format!(
            r#"<line x1="{cx:.1}" y1="{:.1}" x2="{cx:.1}" y2="{:.1}" stroke="black"/>"#,
            sy(q[0]),
            sy(q[4])
        ));
        // Box q1..q3.
        out.push_str(&format!(
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#aec7e8" stroke="black"/>"##,
            cx - half,
            sy(q[3]),
            half * 2.0,
            (sy(q[1]) - sy(q[3])).abs().max(1.0),
        ));
        // Median line.
        out.push_str(&format!(
            r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black" stroke-width="2"/>"#,
            cx - half,
            sy(q[2]),
            cx + half,
            sy(q[2])
        ));
        out.push_str(&format!(
            r#"<text x="{cx:.1}" y="{:.1}" font-size="10" text-anchor="middle">{label}</text>"#,
            HEIGHT - MARGIN + 14.0
        ));
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;

    #[test]
    fn circles_are_written_as_the_formatter_wrote_them() {
        let mut rng = RngStream::derive(12, "circles");
        let points: Vec<PlotPoint> = (0..500)
            .map(|i| PlotPoint {
                x: rng.normal(0.0, 2.0),
                y: rng.uniform_range(0.0, 12.0),
                highlight: i % 7 == 0,
            })
            .collect();
        let svg = scatter_plot("t", "x", "y", &points);
        // Reference: one `format!` per point.
        let (xmin, xmax, ymin, ymax) = scale(&points);
        let sx = |x: f64| MARGIN + (x - xmin) / (xmax - xmin) * (WIDTH - 2.0 * MARGIN);
        let sy = |y: f64| HEIGHT - MARGIN - (y - ymin) / (ymax - ymin) * (HEIGHT - 2.0 * MARGIN);
        let circles: String = points
            .iter()
            .map(|p| {
                let color = if p.highlight { "#d62728" } else { "#1f77b4" };
                format!(
                    r#"<circle cx="{:.2}" cy="{:.2}" r="2.5" fill="{color}" fill-opacity="0.7"/>"#,
                    sx(p.x),
                    sy(p.y)
                )
            })
            .collect();
        let start = svg.find("<circle").unwrap();
        assert_eq!(&svg[start..svg.len() - "</svg>".len()], circles);
    }

    #[test]
    fn scatter_contains_points_and_labels() {
        let points = vec![
            PlotPoint {
                x: 0.0,
                y: 0.0,
                highlight: false,
            },
            PlotPoint {
                x: 1.0,
                y: 2.0,
                highlight: true,
            },
        ];
        let svg = scatter_plot("MA plot", "A", "M", &points);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("<title>MA plot</title>"));
        assert_eq!(svg.matches("<circle").count(), 2);
        assert!(svg.contains("#d62728"), "highlight color present");
        assert!(svg.contains(">A</text>"));
    }

    #[test]
    fn scatter_handles_empty_and_degenerate() {
        let svg = scatter_plot("empty", "x", "y", &[]);
        assert!(svg.contains("</svg>"));
        let svg = scatter_plot(
            "flat",
            "x",
            "y",
            &[PlotPoint {
                x: 1.0,
                y: 1.0,
                highlight: false,
            }],
        );
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn heatmap_has_one_rect_per_cell() {
        let rows = vec!["g1".to_string(), "g2".to_string()];
        let cols = vec!["s1".to_string(), "s2".to_string(), "s3".to_string()];
        let values = vec![vec![0.0, 0.5, 1.0], vec![1.0, 0.5, 0.0]];
        let svg = heatmap("hm", &rows, &cols, &values);
        // 6 cells + background rect.
        assert_eq!(svg.matches("<rect").count(), 7);
        assert!(svg.contains("g2"));
        assert!(svg.contains("s3"));
        // Extremes use saturated blue and red.
        assert!(svg.contains("#0000ff"));
        assert!(svg.contains("#ff0000"));
    }

    #[test]
    fn boxplot_draws_all_groups() {
        let groups = vec![
            ("g1".to_string(), [1.0, 2.0, 3.0, 4.0, 5.0]),
            ("g2".to_string(), [2.0, 3.0, 4.0, 5.0, 6.0]),
        ];
        let svg = boxplot("expression", &groups);
        assert!(svg.contains("g1"));
        assert!(svg.contains("g2"));
        assert!(
            svg.matches("stroke-width=\"2\"").count() == 2,
            "two medians"
        );
    }
}
