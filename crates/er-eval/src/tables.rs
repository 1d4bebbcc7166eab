//! Result rows and plain-text table rendering.
//!
//! The benchmark binaries print their output in the same shape as the paper's
//! tables (one row per dataset with recall, precision, F1 and run-time), so
//! `EXPERIMENTS.md` can be filled by copy-pasting the bench output.

use crate::metrics::Effectiveness;

/// One row of a results table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Row label (usually a dataset name).
    pub label: String,
    /// Effectiveness measures.
    pub effectiveness: Effectiveness,
    /// Run-time in seconds, if measured.
    pub rt_seconds: Option<f64>,
    /// Extra free-form columns (e.g. |C|, retained pairs).
    pub extras: Vec<(String, String)>,
}

impl TableRow {
    /// Creates a row with no extras.
    pub fn new(label: impl Into<String>, effectiveness: Effectiveness) -> Self {
        TableRow {
            label: label.into(),
            effectiveness,
            rt_seconds: None,
            extras: Vec::new(),
        }
    }

    /// Sets the run-time column.
    pub fn with_rt(mut self, seconds: f64) -> Self {
        self.rt_seconds = Some(seconds);
        self
    }

    /// Adds an extra column.
    pub fn with_extra(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extras.push((key.into(), value.into()));
        self
    }
}

/// Renders rows as an aligned plain-text table.
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');

    let mut extra_keys: Vec<String> = Vec::new();
    for row in rows {
        for (key, _) in &row.extras {
            if !extra_keys.contains(key) {
                extra_keys.push(key.clone());
            }
        }
    }

    let label_width = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once("dataset".len()))
        .max()
        .unwrap_or(8);

    let mut header = format!(
        "{:<label_width$}  {:>8}  {:>10}  {:>8}  {:>9}",
        "dataset", "recall", "precision", "F1", "RT(s)"
    );
    for key in &extra_keys {
        header.push_str(&format!("  {key:>12}"));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');

    for row in rows {
        let rt = row
            .rt_seconds
            .map(|s| format!("{s:9.3}"))
            .unwrap_or_else(|| format!("{:>9}", "-"));
        let mut line = format!(
            "{:<label_width$}  {:>8.4}  {:>10.4}  {:>8.4}  {rt}",
            row.label, row.effectiveness.recall, row.effectiveness.precision, row.effectiveness.f1
        );
        for key in &extra_keys {
            let value = row
                .extras
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or("-");
            line.push_str(&format!("  {value:>12}"));
        }
        out.push_str(&line);
        out.push('\n');
    }

    // Average row, as the paper reports averages across datasets.
    if rows.len() > 1 {
        let mean = Effectiveness::mean(&rows.iter().map(|r| r.effectiveness).collect::<Vec<_>>());
        let mean_rt: Vec<f64> = rows.iter().filter_map(|r| r.rt_seconds).collect();
        let rt = if mean_rt.is_empty() {
            format!("{:>9}", "-")
        } else {
            format!("{:9.3}", mean_rt.iter().sum::<f64>() / mean_rt.len() as f64)
        };
        out.push_str(&format!(
            "{:<label_width$}  {:>8.4}  {:>10.4}  {:>8.4}  {rt}\n",
            "AVERAGE", mean.recall, mean.precision, mean.f1
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eff(recall: f64, precision: f64) -> Effectiveness {
        Effectiveness {
            recall,
            precision,
            f1: if recall + precision > 0.0 {
                2.0 * recall * precision / (recall + precision)
            } else {
                0.0
            },
        }
    }

    #[test]
    fn renders_header_rows_and_average() {
        let rows = vec![
            TableRow::new("AbtBuy", eff(0.9, 0.1)).with_rt(1.5),
            TableRow::new("DblpAcm", eff(0.99, 0.5)).with_rt(2.0),
        ];
        let text = render_table("Table X", &rows);
        assert!(text.contains("Table X"));
        assert!(text.contains("AbtBuy"));
        assert!(text.contains("DblpAcm"));
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("recall"));
    }

    #[test]
    fn extras_render_as_additional_columns() {
        let rows = vec![TableRow::new("Movies", eff(0.8, 0.2)).with_extra("|C|", "12345")];
        let text = render_table("t", &rows);
        assert!(text.contains("|C|"));
        assert!(text.contains("12345"));
    }

    #[test]
    fn missing_rt_renders_dash() {
        let rows = vec![TableRow::new("X", eff(0.5, 0.5))];
        let text = render_table("t", &rows);
        assert!(text.contains('-'));
    }

    #[test]
    fn single_row_has_no_average() {
        let rows = vec![TableRow::new("X", eff(0.5, 0.5))];
        let text = render_table("t", &rows);
        assert!(!text.contains("AVERAGE"));
    }
}
