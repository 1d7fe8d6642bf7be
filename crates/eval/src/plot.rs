//! Minimal dependency-free SVG plotting for the figure experiments.
//!
//! Two chart types cover every figure in the paper: multi-series line
//! charts (Figs. 3, 5, 6, 8, 9) and labelled scatter plots (Fig. 7's
//! t-SNE embeddings).

#![expect(
    clippy::write_with_newline,
    reason = "raw-string SVG fragments keep their own newlines"
)]

use std::fmt::Write as _;

const WIDTH: f32 = 640.0;
const HEIGHT: f32 = 400.0;
const MARGIN: f32 = 56.0;

/// Categorical palette (colorblind-safe Okabe–Ito subset).
const PALETTE: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#000000",
];

/// One named series of `(x, y)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in x order.
    pub points: Vec<(f32, f32)>,
}

impl Series {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, points: Vec<(f32, f32)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }
}

fn bounds(all: impl Iterator<Item = (f32, f32)>) -> (f32, f32, f32, f32) {
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::INFINITY,
        f32::NEG_INFINITY,
    );
    for (x, y) in all {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    if !min_x.is_finite() {
        return (0.0, 1.0, 0.0, 1.0);
    }
    if (max_x - min_x).abs() < 1e-9 {
        max_x = min_x + 1.0;
    }
    if (max_y - min_y).abs() < 1e-9 {
        max_y = min_y + 1.0;
    }
    (min_x, max_x, min_y, max_y)
}

fn sx(x: f32, min_x: f32, max_x: f32) -> f32 {
    MARGIN + (x - min_x) / (max_x - min_x) * (WIDTH - 2.0 * MARGIN)
}

fn sy(y: f32, min_y: f32, max_y: f32) -> f32 {
    HEIGHT - MARGIN - (y - min_y) / (max_y - min_y) * (HEIGHT - 2.0 * MARGIN)
}

#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String never fails"
)]
fn header(title: &str, x_label: &str, y_label: &str) -> String {
    let mut s = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
    );
    let _ = write!(
        s,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>
<text x="{}" y="24" text-anchor="middle" font-family="sans-serif" font-size="15" font-weight="bold">{}</text>
<text x="{}" y="{}" text-anchor="middle" font-family="sans-serif" font-size="12">{}</text>
<text x="16" y="{}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {})">{}</text>
"#,
        WIDTH / 2.0,
        escape(title),
        WIDTH / 2.0,
        HEIGHT - 12.0,
        escape(x_label),
        HEIGHT / 2.0,
        HEIGHT / 2.0,
        escape(y_label),
    );
    s
}

#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String never fails"
)]
fn axes(min_x: f32, max_x: f32, min_y: f32, max_y: f32) -> String {
    let mut s = String::new();
    let (x0, y0) = (MARGIN, HEIGHT - MARGIN);
    let (x1, y1) = (WIDTH - MARGIN, MARGIN);
    let _ = write!(
        s,
        r#"<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>
<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>
"#
    );
    // Four ticks per axis.
    for i in 0..=4 {
        let fx = min_x + (max_x - min_x) * i as f32 / 4.0;
        let fy = min_y + (max_y - min_y) * i as f32 / 4.0;
        let px = sx(fx, min_x, max_x);
        let py = sy(fy, min_y, max_y);
        let _ = write!(
            s,
            r#"<line x1="{px}" y1="{y0}" x2="{px}" y2="{}" stroke="black"/>
<text x="{px}" y="{}" text-anchor="middle" font-family="sans-serif" font-size="10">{fx:.1}</text>
<line x1="{x0}" y1="{py}" x2="{}" y2="{py}" stroke="black"/>
<text x="{}" y="{}" text-anchor="end" font-family="sans-serif" font-size="10">{fy:.1}</text>
"#,
            y0 + 4.0,
            y0 + 16.0,
            x0 - 4.0,
            x0 - 6.0,
            py + 3.0,
        );
    }
    s
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render a multi-series line chart to an SVG string.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String never fails"
)]
pub fn line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let (min_x, max_x, min_y, max_y) = bounds(series.iter().flat_map(|s| s.points.iter().copied()));
    let mut svg = header(title, x_label, y_label);
    svg += &axes(min_x, max_x, min_y, max_y);
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::new();
        for (j, &(x, y)) in s.points.iter().enumerate() {
            let cmd = if j == 0 { 'M' } else { 'L' };
            let _ = write!(
                path,
                "{cmd}{:.1} {:.1} ",
                sx(x, min_x, max_x),
                sy(y, min_y, max_y)
            );
        }
        let _ = write!(
            svg,
            r#"<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>
"#
        );
        for &(x, y) in &s.points {
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>
"#,
                sx(x, min_x, max_x),
                sy(y, min_y, max_y)
            );
        }
        // Legend entry.
        let ly = MARGIN + 16.0 * i as f32;
        let _ = write!(
            svg,
            r#"<rect x="{}" y="{}" width="10" height="10" fill="{color}"/>
<text x="{}" y="{}" font-family="sans-serif" font-size="11">{}</text>
"#,
            WIDTH - MARGIN - 150.0,
            ly,
            WIDTH - MARGIN - 136.0,
            ly + 9.0,
            escape(&s.name),
        );
    }
    svg += "</svg>\n";
    svg
}

/// Render a class-colored scatter plot (e.g. t-SNE embeddings) to SVG.
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String never fails"
)]
pub fn scatter_plot(title: &str, points: &[(f32, f32)], labels: &[usize]) -> String {
    assert_eq!(points.len(), labels.len(), "one label per point");
    let (min_x, max_x, min_y, max_y) = bounds(points.iter().copied());
    let mut svg = header(title, "", "");
    svg += &axes(min_x, max_x, min_y, max_y);
    for (&(x, y), &l) in points.iter().zip(labels) {
        let color = PALETTE[l % PALETTE.len()];
        let _ = write!(
            svg,
            r#"<circle cx="{:.1}" cy="{:.1}" r="4" fill="{color}" fill-opacity="0.75"/>
"#,
            sx(x, min_x, max_x),
            sy(y, min_y, max_y)
        );
    }
    svg += "</svg>\n";
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_contains_all_series() {
        let svg = line_chart(
            "Accuracy vs ways",
            "ways",
            "accuracy (%)",
            &[
                Series::new("GraphPrompter", vec![(5.0, 70.0), (10.0, 50.0)]),
                Series::new("Prodigy", vec![(5.0, 60.0), (10.0, 45.0)]),
            ],
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("GraphPrompter"));
        assert!(svg.contains("Prodigy"));
        assert!(svg.matches("<path").count() == 2);
    }

    #[test]
    fn scatter_colors_by_label() {
        let svg = scatter_plot("t-SNE", &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], &[0, 1, 0]);
        assert!(svg.contains(PALETTE[0]));
        assert!(svg.contains(PALETTE[1]));
        assert_eq!(svg.matches("<circle").count(), 3);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let svg = line_chart("empty", "x", "y", &[Series::new("s", vec![])]);
        assert!(svg.contains("</svg>"));
        let svg = line_chart("flat", "x", "y", &[Series::new("s", vec![(1.0, 1.0)])]);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = line_chart("a < b & c", "x", "y", &[]);
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    #[should_panic(expected = "one label per point")]
    fn scatter_rejects_mismatched_labels() {
        let _ = scatter_plot("t", &[(0.0, 0.0)], &[]);
    }
}
