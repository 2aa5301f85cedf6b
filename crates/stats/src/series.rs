//! Simple named `(x, y)` series with text export.

use std::fmt::Write as _;

/// A named series of `(x, y)` points, used by the experiment harness to
/// emit figure data in a gnuplot/spreadsheet-friendly form.
///
/// # Examples
///
/// ```
/// use st_stats::Series;
///
/// let mut s = Series::new("throughput", "freq_khz", "conn_per_s");
/// s.push(0.0, 900.0);
/// s.push(100.0, 480.0);
/// let csv = s.to_csv();
/// assert!(csv.starts_with("freq_khz,conn_per_s\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    x_label: String,
    y_label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: &str, x_label: &str, y_label: &str) -> Self {
        Series {
            name: name.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Extends from an iterator of points.
    pub fn extend(&mut self, pts: impl IntoIterator<Item = (f64, f64)>) {
        self.points.extend(pts);
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The points, in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{},{}", self.x_label, self.y_label);
        for &(x, y) in &self.points {
            let _ = writeln!(out, "{x},{y}");
        }
        out
    }

    /// Renders a compact ASCII sparkline-style table (for terminal output).
    ///
    /// `width` controls the bar width of the largest y value.
    pub fn to_ascii(&self, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} ({} vs {})",
            self.name, self.y_label, self.x_label
        );
        let max = self
            .points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max);
        for &(x, y) in &self.points {
            let bar = if max > 0.0 {
                ((y / max) * width as f64).round() as usize
            } else {
                0
            };
            let _ = writeln!(out, "{x:>12.3} {y:>14.3} {}", "#".repeat(bar));
        }
        out
    }

    /// Linear interpolation of y at `x` (points must be x-sorted); `None`
    /// outside the covered range or when empty.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        let pts = &self.points;
        if pts.is_empty() || x < pts[0].0 || x > pts[pts.len() - 1].0 {
            return None;
        }
        let i = pts.partition_point(|&(px, _)| px < x);
        if i == 0 {
            return Some(pts[0].1);
        }
        if i >= pts.len() {
            return Some(pts[pts.len() - 1].1);
        }
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        if (x1 - x0).abs() < f64::EPSILON {
            return Some(y1);
        }
        Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let mut s = Series::new("t", "x", "y");
        s.push(1.0, 2.0);
        s.push(3.0, 4.0);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["x,y", "1,2", "3,4"]);
    }

    #[test]
    fn interpolation_endpoints_and_midpoint() {
        let mut s = Series::new("t", "x", "y");
        s.extend([(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(s.interpolate(0.0), Some(0.0));
        assert_eq!(s.interpolate(5.0), Some(50.0));
        assert_eq!(s.interpolate(10.0), Some(100.0));
        assert_eq!(s.interpolate(11.0), None);
        assert_eq!(s.interpolate(-1.0), None);
    }

    #[test]
    fn interpolate_empty_is_none() {
        let s = Series::new("t", "x", "y");
        assert_eq!(s.interpolate(0.0), None);
    }

    #[test]
    fn ascii_renders_bars() {
        let mut s = Series::new("t", "x", "y");
        s.push(0.0, 1.0);
        s.push(1.0, 2.0);
        let a = s.to_ascii(10);
        assert!(a.contains("##########"));
    }
}
