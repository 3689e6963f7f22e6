//! SVG line charts (the graphical Fig. 5): multiple series over a
//! linear- or log₂-scaled x-axis, with axes, ticks and a legend.

use crate::svg::SvgDoc;

/// X-axis scaling of an SVG chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartScale {
    /// Linear x positions.
    Linear,
    /// log₂ x positions (natural for the paper's agent counts).
    Log2,
}

/// One chart series.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartSeries {
    /// Legend label.
    pub label: String,
    /// CSS stroke colour.
    pub color: String,
    /// `(x, y)` points in ascending `x`.
    pub points: Vec<(f64, f64)>,
}

const W: f64 = 560.0;
const H: f64 = 360.0;
const PAD_L: f64 = 56.0;
const PAD_R: f64 = 18.0;
const PAD_T: f64 = 20.0;
const PAD_B: f64 = 46.0;

/// Renders a multi-series line chart.
///
/// # Panics
///
/// Panics if no series contains a point, or a log-scaled x value is not
/// positive.
#[must_use]
pub fn render_chart(
    title: &str,
    x_label: &str,
    y_label: &str,
    scale: ChartScale,
    series: &[ChartSeries],
) -> String {
    let xform = |x: f64| -> f64 {
        match scale {
            ChartScale::Linear => x,
            ChartScale::Log2 => {
                assert!(x > 0.0, "log scale needs positive x values");
                x.log2()
            }
        }
    };
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, y)| (xform(x), y)))
        .collect();
    assert!(!pts.is_empty(), "chart needs at least one point");
    let (x_min, x_max) = pts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)));
    let (y_min, y_max) = pts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, y)| (lo.min(y), hi.max(y)));
    let x_span = (x_max - x_min).max(f64::MIN_POSITIVE);
    let y_span = (y_max - y_min).max(f64::MIN_POSITIVE);
    let plot_w = W - PAD_L - PAD_R;
    let plot_h = H - PAD_T - PAD_B;
    let px = |x: f64| PAD_L + (xform(x) - x_min) / x_span * plot_w;
    let py = |y: f64| PAD_T + (1.0 - (y - y_min) / y_span) * plot_h;

    let mut doc = SvgDoc::new(W, H);
    doc.rect(0.0, 0.0, W, H, "#ffffff", 1.0);
    // Axes.
    doc.line(PAD_L, PAD_T, PAD_L, H - PAD_B, "#444444", 1.0);
    doc.line(PAD_L, H - PAD_B, W - PAD_R, H - PAD_B, "#444444", 1.0);
    doc.text(PAD_L, 13.0, 12.0, "#222222", title);
    doc.text(W / 2.0 - 30.0, H - 10.0, 11.0, "#444444", x_label);
    doc.text(4.0, PAD_T + 10.0, 11.0, "#444444", y_label);
    // Y ticks (5 divisions).
    for i in 0..=4 {
        let y = y_min + y_span * f64::from(i) / 4.0;
        doc.line(PAD_L - 4.0, py(y), PAD_L, py(y), "#444444", 1.0);
        doc.line(PAD_L, py(y), W - PAD_R, py(y), "#eeeeee", 0.7);
        doc.text(6.0, py(y) + 4.0, 10.0, "#444444", &format!("{y:.1}"));
    }
    // X ticks at every distinct data x.
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are not NaN"));
    xs.dedup();
    for &x in &xs {
        doc.line(px(x), H - PAD_B, px(x), H - PAD_B + 4.0, "#444444", 1.0);
        doc.text(px(x) - 8.0, H - PAD_B + 16.0, 10.0, "#444444", &format!("{x:.0}"));
    }
    // Series.
    for (i, s) in series.iter().enumerate() {
        if s.points.len() >= 2 {
            let line: Vec<(f64, f64)> =
                s.points.iter().map(|&(x, y)| (px(x), py(y))).collect();
            doc.polyline(&line, &s.color, 2.0);
        }
        for &(x, y) in &s.points {
            doc.circle(px(x), py(y), 3.0, &s.color);
        }
        let ly = PAD_T + 16.0 * i as f64 + 8.0;
        doc.line(W - PAD_R - 110.0, ly, W - PAD_R - 90.0, ly, &s.color, 2.0);
        doc.text(W - PAD_R - 84.0, ly + 4.0, 11.0, "#222222", &s.label);
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_series() -> Vec<ChartSeries> {
        vec![
            ChartSeries {
                label: "T-grid".into(),
                color: "#c1121f".into(),
                points: vec![(2.0, 58.4), (4.0, 78.3), (8.0, 58.7), (256.0, 9.0)],
            },
            ChartSeries {
                label: "S-grid".into(),
                color: "#2a6f97".into(),
                points: vec![(2.0, 82.8), (4.0, 116.1), (8.0, 90.9), (256.0, 15.0)],
            },
        ]
    }

    #[test]
    fn chart_has_axes_legend_and_series() {
        let svg = render_chart(
            "Fig. 5",
            "N_agents",
            "t_comm",
            ChartScale::Log2,
            &fig5_series(),
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("Fig. 5"));
        assert!(svg.contains("T-grid") && svg.contains("S-grid"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 8, "one dot per point");
    }

    #[test]
    fn linear_scale_also_renders() {
        let svg = render_chart(
            "profile",
            "t",
            "informed",
            ChartScale::Linear,
            &[ChartSeries {
                label: "T".into(),
                color: "#000".into(),
                points: vec![(0.0, 0.2), (10.0, 0.8), (20.0, 1.0)],
            }],
        );
        assert!(svg.contains("<polyline"));
    }

    #[test]
    #[should_panic(expected = "positive x")]
    fn log_scale_rejects_zero() {
        let _ = render_chart(
            "x",
            "x",
            "y",
            ChartScale::Log2,
            &[ChartSeries { label: "s".into(), color: "#000".into(), points: vec![(0.0, 1.0)] }],
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_chart_rejected() {
        let _ = render_chart("x", "x", "y", ChartScale::Linear, &[]);
    }
}
