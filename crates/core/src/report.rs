//! Figure data: named series over the worker axis, with ASCII and CSV
//! rendering so every paper figure can be regenerated as text.

use serde::Serialize;

/// One line of a figure: a named series of `(x, y)` points.
#[derive(Clone, Debug, Serialize)]
pub struct Series {
    /// Series label (e.g. `"page-upload"`, `"get-16KB"`).
    pub name: String,
    /// `(x, y)` points; x is almost always the worker count.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

/// A reproducible paper figure: metadata plus its series.
#[derive(Clone, Debug, Serialize)]
pub struct Figure {
    /// Identifier, e.g. `"fig4a"`.
    pub id: String,
    /// Human title, e.g. `"Blob storage throughput"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Find a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render as an aligned text table: one row per x, one column per
    /// series (the textual equivalent of the paper's plot).
    pub fn render_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = format!("# {} — {}\n# y: {}\n", self.id, self.title, self.y_label);
        let name_w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(4)
            .max(self.x_label.len())
            .max(10);
        out.push_str(&format!("{:>w$}", self.x_label, w = name_w));
        for s in &self.series {
            out.push_str(&format!(" | {:>w$}", s.name, w = name_w));
        }
        out.push('\n');
        for x in &xs {
            out.push_str(&format!("{:>w$.0}", x, w = name_w));
            for s in &self.series {
                match s.y_at(*x) {
                    Some(y) => out.push_str(&format!(" | {:>w$.4}", y, w = name_w)),
                    None => out.push_str(&format!(" | {:>w$}", "-", w = name_w)),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV: `x,series1,series2,...`.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::from(&self.x_label.replace(' ', "_"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for x in &xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push(',');
                if let Some(y) = s.y_at(*x) {
                    out.push_str(&format!("{y}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("figX", "Test", "workers", "seconds");
        let mut a = Series::new("alpha");
        a.push(1.0, 0.5);
        a.push(2.0, 0.25);
        let mut b = Series::new("beta");
        b.push(1.0, 1.5);
        f.series.push(a);
        f.series.push(b);
        f
    }

    #[test]
    fn series_lookup() {
        let f = sample();
        assert_eq!(f.series("alpha").unwrap().y_at(2.0), Some(0.25));
        assert_eq!(f.series("alpha").unwrap().y_at(3.0), None);
        assert!(f.series("gamma").is_none());
    }

    #[test]
    fn table_renders_all_points_and_gaps() {
        let t = sample().render_table();
        assert!(t.contains("figX"));
        assert!(t.contains("alpha"));
        assert!(t.contains("0.2500"));
        // beta has no point at x=2 → a dash.
        assert!(t.contains('-'));
    }

    #[test]
    fn csv_roundtrips_structure() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "workers,alpha,beta");
        assert_eq!(lines.next().unwrap(), "1,0.5,1.5");
        assert_eq!(lines.next().unwrap(), "2,0.25,");
    }

    #[test]
    fn empty_figure_renders() {
        let f = Figure::new("f", "t", "x", "y");
        assert!(f.render_table().contains("# f"));
        assert_eq!(f.to_csv(), "x\n");
    }
}
