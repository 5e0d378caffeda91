//! Text rendering of the paper's tables and figure series.

use training::RunReport;

/// Render a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&render_row(&sep, &widths));
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// A unicode sparkline of a series (the figure traces, one char per point).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (min, _, max) = min_mean_max(values);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// One labeled series line, e.g. for the Fig 9 utilization traces.
pub fn series_line(label: &str, values: &[f64], unit: &str) -> String {
    let (min, mean, max) = min_mean_max(values);
    format!(
        "{label:12} {} min={min:.2}{unit} mean={mean:.2}{unit} max={max:.2}{unit}",
        sparkline(values),
    )
}

/// Minimum, mean and maximum of a series; all 0 when it is empty.
fn min_mean_max(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    (min, sum / values.len() as f64, max)
}

/// Percent with sign, e.g. `+12.3%`.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Gigabytes per second.
pub fn gbps(bytes_per_sec: f64) -> String {
    format!("{:.2} GB/s", bytes_per_sec / 1e9)
}

/// One row summarizing a run.
pub fn run_row(r: &RunReport) -> Vec<String> {
    vec![
        r.benchmark.clone(),
        r.label.clone(),
        format!("{}", r.total_time),
        format!("{}", r.mean_iter),
        format!("{:.1}/s", r.throughput),
        format!("{:.0}%", r.gpu_util * 100.0),
        format!("{:.0}%", r.cpu_util * 100.0),
    ]
}

pub const RUN_HEADERS: [&str; 7] = [
    "benchmark",
    "config",
    "total",
    "iter",
    "throughput",
    "GPU",
    "CPU",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "long-header"],
            &[vec!["xxxx".into(), "y".into()], vec!["z".into(), "w".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn pct_and_gbps_format() {
        assert_eq!(pct(12.34), "+12.3%");
        assert_eq!(pct(-3.0), "-3.0%");
        assert_eq!(gbps(76.43e9), "76.43 GB/s");
    }

    #[test]
    fn constant_series_does_not_panic() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }
}
