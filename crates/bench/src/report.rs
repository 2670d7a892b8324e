//! Plain-text experiment reports — each figure/table of the paper rendered
//! as one aligned table — plus the machine-readable benchmark records behind
//! the CI perf-regression gate.
//!
//! The Criterion smoke runs (`cargo bench … -- --test` with `BENCH_JSON`
//! set) emit `BENCH_*.json` trajectory files: one [`BenchRecord`] per bench
//! id with the median ns/iteration and, where a throughput is configured,
//! Melem/s. [`parse_bench_json`] reads that format (the criterion shim is
//! the single writer), and [`compare_bench`] checks a current run against a
//! committed baseline with a relative threshold — the `bench_gate` binary
//! wires this into CI and fails the build on regression.

/// One row of a report: a label plus one value per column.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. method name or parameter value).
    pub label: String,
    /// One value per column, already formatted.
    pub values: Vec<String>,
}

impl Row {
    /// Creates a row from a label and pre-formatted values.
    pub fn new(label: impl Into<String>, values: Vec<String>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// A rendered experiment: title, column headers, and rows.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Report title (e.g. "Fig. 10a — Edge query AAE (Lkml)").
    pub title: String,
    /// Column headers (not counting the leading label column).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, columns: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths = vec![self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("method".len()))
            .max()
            .unwrap_or(8)];
        for (i, col) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|r| r.values.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(col.len()))
                .max()
                .unwrap_or(col.len());
            widths.push(w);
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut header = format!("{:<width$}", "method", width = widths[0]);
        for (i, col) in self.columns.iter().enumerate() {
            header.push_str(&format!("  {:>width$}", col, width = widths[i + 1]));
        }
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<width$}", row.label, width = widths[0]));
            for (i, v) in row.values.iter().enumerate() {
                out.push_str(&format!("  {:>width$}", v, width = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One machine-readable benchmark measurement, as emitted by the criterion
/// shim into the file named by `BENCH_JSON`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark id (`group/function[/parameter]`).
    pub id: String,
    /// Median wall-clock time per iteration in nanoseconds.
    pub median_ns: f64,
    /// Element throughput implied by the median, when the bench declares a
    /// `Throughput::Elements` annotation.
    pub melem_per_s: Option<f64>,
}

/// Parses a `BENCH_*.json` document.
///
/// A deliberately small parser for the fixed record shape above (the build
/// environment has no JSON dependency): it scans for `"id"`, `"median_ns"`
/// and `"melem_per_s"` keys inside each `{…}` object of the `records` array
/// and is insensitive to whitespace. Ids must not contain quotes or
/// backslashes, which holds for every benchmark id in this workspace.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let array_start = text
        .find('[')
        .ok_or_else(|| "no records array found".to_string())?;
    let array_end = text
        .rfind(']')
        .ok_or_else(|| "unterminated records array".to_string())?;
    if array_end <= array_start {
        return Err("records array closes before it opens".to_string());
    }
    let body = &text[array_start + 1..array_end];
    let mut records = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| "unterminated record object".to_string())?
            + open;
        let object = &rest[open + 1..close];
        records.push(parse_record_object(object)?);
        rest = &rest[close + 1..];
    }
    Ok(records)
}

fn parse_record_object(object: &str) -> Result<BenchRecord, String> {
    let id = string_field(object, "id")?;
    let median_ns = number_field(object, "median_ns")?
        .ok_or_else(|| format!("record {id:?} has null median_ns"))?;
    let melem_per_s = number_field(object, "melem_per_s")?;
    Ok(BenchRecord {
        id,
        median_ns,
        melem_per_s,
    })
}

/// The raw text of `"key": <value>` inside `object`, trimmed.
fn field_value<'a>(object: &'a str, key: &str) -> Result<&'a str, String> {
    let marker = format!("\"{key}\"");
    let key_pos = object
        .find(&marker)
        .ok_or_else(|| format!("missing field {key:?} in {object:?}"))?;
    let after_key = &object[key_pos + marker.len()..];
    let colon = after_key
        .find(':')
        .ok_or_else(|| format!("malformed field {key:?}"))?;
    let value = after_key[colon + 1..].trim_start();
    let end = value
        .char_indices()
        .find(|&(i, c)| {
            if value.starts_with('"') {
                i > 0 && c == '"'
            } else {
                c == ',' || c == '}'
            }
        })
        .map(|(i, _)| if value.starts_with('"') { i + 1 } else { i })
        .unwrap_or(value.len());
    Ok(value[..end].trim_end())
}

fn string_field(object: &str, key: &str) -> Result<String, String> {
    let value = field_value(object, key)?;
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("field {key:?} is not a string: {value:?}"))?;
    Ok(inner.to_string())
}

fn number_field(object: &str, key: &str) -> Result<Option<f64>, String> {
    let value = field_value(object, key)?;
    if value == "null" {
        return Ok(None);
    }
    value
        .parse::<f64>()
        .map(Some)
        .map_err(|e| format!("field {key:?} is not a number ({value:?}): {e}"))
}

/// Verdict for one benchmark id present in the baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum BenchVerdict {
    /// Within the threshold of the baseline (ratio = current/baseline).
    Ok {
        /// current/baseline median ratio.
        ratio: f64,
    },
    /// Slower than baseline by more than the threshold — a regression.
    Regression {
        /// current/baseline median ratio (> 1 + threshold).
        ratio: f64,
    },
    /// Faster than baseline by more than the threshold; not a failure, but
    /// the committed baseline understates the trajectory and should be
    /// refreshed.
    Improvement {
        /// current/baseline median ratio (< 1 / (1 + threshold)).
        ratio: f64,
    },
    /// The id exists in the baseline but not in the current run.
    Missing,
}

/// Result of comparing a current bench run against a committed baseline.
#[derive(Clone, Debug, Default)]
pub struct BenchComparison {
    /// `(id, baseline_ns, current_ns, verdict)` for every baseline id, in
    /// baseline order.
    pub rows: Vec<(String, f64, Option<f64>, BenchVerdict)>,
    /// Ids present only in the current run (inform: baseline needs
    /// re-seeding to start tracking them).
    pub new_ids: Vec<String>,
}

impl BenchComparison {
    /// Whether the gate must fail: any regression, or a baseline id that
    /// disappeared (a silently dropped bench would otherwise hide its
    /// regressions forever).
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|(_, _, _, v)| {
            matches!(v, BenchVerdict::Regression { .. } | BenchVerdict::Missing)
        })
    }

    /// The worst (highest) current/baseline ratio in this comparison,
    /// together with the id carrying it — the one number a multi-group
    /// summary reports per group. `None` when no baseline id was matched by
    /// the current run (every row `Missing`), which is itself a failure.
    pub fn worst_ratio(&self) -> Option<(&str, f64)> {
        self.rows
            .iter()
            .filter_map(|(id, _, _, verdict)| match verdict {
                BenchVerdict::Ok { ratio }
                | BenchVerdict::Regression { ratio }
                | BenchVerdict::Improvement { ratio } => Some((id.as_str(), *ratio)),
                BenchVerdict::Missing => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Number of baseline ids that vanished from the current run.
    pub fn missing_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|(_, _, _, v)| matches!(v, BenchVerdict::Missing))
            .count()
    }

    /// Renders an aligned human-readable verdict table.
    pub fn render(&self, threshold: f64) -> String {
        let mut report = Report::new(
            format!("Bench gate (threshold ±{:.0}%)", threshold * 100.0),
            vec!["baseline", "current", "ratio", "verdict"],
        );
        for (id, baseline_ns, current_ns, verdict) in &self.rows {
            let (ratio, label) = match verdict {
                BenchVerdict::Ok { ratio } => (Some(*ratio), "ok"),
                BenchVerdict::Regression { ratio } => (Some(*ratio), "REGRESSION"),
                BenchVerdict::Improvement { ratio } => (Some(*ratio), "improvement"),
                BenchVerdict::Missing => (None, "MISSING"),
            };
            report.push(Row::new(
                id.clone(),
                vec![
                    format!("{:.0} ns", baseline_ns),
                    current_ns.map_or("-".into(), |ns| format!("{ns:.0} ns")),
                    ratio.map_or("-".into(), |r| format!("{r:.2}x")),
                    label.to_string(),
                ],
            ));
        }
        let mut out = report.render();
        for id in &self.new_ids {
            out.push_str(&format!("new bench (not in baseline): {id}\n"));
        }
        out
    }
}

/// Compares a current run against a baseline: a benchmark regresses when its
/// current median exceeds the baseline median by more than `threshold`
/// (0.25 = +25%), and counts as an improvement when it undercuts the
/// baseline by the symmetric factor.
pub fn compare_bench(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    threshold: f64,
) -> BenchComparison {
    let mut comparison = BenchComparison::default();
    for b in baseline {
        let verdict = match current.iter().find(|c| c.id == b.id) {
            None => (None, BenchVerdict::Missing),
            Some(c) => {
                let ratio = c.median_ns / b.median_ns.max(f64::MIN_POSITIVE);
                let v = if ratio > 1.0 + threshold {
                    BenchVerdict::Regression { ratio }
                } else if ratio < 1.0 / (1.0 + threshold) {
                    BenchVerdict::Improvement { ratio }
                } else {
                    BenchVerdict::Ok { ratio }
                };
                (Some(c.median_ns), v)
            }
        };
        comparison
            .rows
            .push((b.id.clone(), b.median_ns, verdict.0, verdict.1));
    }
    for c in current {
        if !baseline.iter().any(|b| b.id == c.id) {
            comparison.new_ids.push(c.id.clone());
        }
    }
    comparison
}

/// Formats a float with engineering-style precision suited to error metrics.
pub fn fmt_metric(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 0.001 || v.abs() >= 100_000.0 {
        format!("{v:.3e}")
    } else if v.abs() < 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("Fig. X — demo", vec!["AAE", "ARE"]);
        r.push(Row::new("HIGGS", vec!["0".into(), "0".into()]));
        r.push(Row::new("Horae", vec!["12.5".into(), "0.33".into()]));
        let text = r.render();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("HIGGS"));
        assert!(text.contains("Horae"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn fmt_metric_ranges() {
        assert_eq!(fmt_metric(0.0), "0");
        assert_eq!(fmt_metric(0.5), "0.5000");
        assert_eq!(fmt_metric(12.345), "12.35");
        assert!(fmt_metric(1.0e-6).contains('e'));
        assert!(fmt_metric(5.0e7).contains('e'));
    }

    fn sample_records() -> Vec<BenchRecord> {
        vec![
            BenchRecord {
                id: "sharding/ingest/sharded/4".into(),
                median_ns: 123_456.789,
                melem_per_s: Some(48.6),
            },
            BenchRecord {
                id: "matrix_layout/insert/64".into(),
                median_ns: 250.0,
                melem_per_s: None,
            },
        ]
    }

    #[test]
    fn parse_accepts_the_criterion_shim_emission_verbatim() {
        // Kept in lockstep with render_json in the criterion shim: if the
        // shim's format drifts, this literal catches it.
        let text = "{\n  \"records\": [\n    {\"id\": \"sharding/ingest/single\", \
                    \"median_ns\": 2100000.000, \"melem_per_s\": 2.857143},\n    \
                    {\"id\": \"matrix_layout/src_weight/256\", \"median_ns\": 970000.000, \
                    \"melem_per_s\": null}\n  ]\n}\n";
        let parsed = parse_bench_json(text).expect("parse shim output");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "sharding/ingest/single");
        assert!((parsed[0].median_ns - 2.1e6).abs() < 1e-3);
        assert!((parsed[0].melem_per_s.expect("throughput") - 2.857143).abs() < 1e-9);
        assert_eq!(parsed[1].melem_per_s, None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_bench_json("not json at all").is_err());
        // A truncated/garbled file where ']' precedes '[' must error, not
        // panic on a reversed slice.
        assert!(parse_bench_json("] garbage [").is_err());
        assert!(parse_bench_json("{\"records\": [{\"id\": \"x\"}]}").is_err());
        assert!(
            parse_bench_json(
                "{\"records\": [{\"id\": \"x\", \"median_ns\": null, \
                              \"melem_per_s\": null}]}"
            )
            .is_err(),
            "null median must be rejected"
        );
        assert_eq!(parse_bench_json("{\"records\": []}").unwrap(), vec![]);
    }

    #[test]
    fn compare_bench_classifies_regressions_improvements_and_missing() {
        let baseline = vec![
            BenchRecord {
                id: "a".into(),
                median_ns: 1_000.0,
                melem_per_s: None,
            },
            BenchRecord {
                id: "b".into(),
                median_ns: 1_000.0,
                melem_per_s: None,
            },
            BenchRecord {
                id: "c".into(),
                median_ns: 1_000.0,
                melem_per_s: None,
            },
            BenchRecord {
                id: "gone".into(),
                median_ns: 1_000.0,
                melem_per_s: None,
            },
        ];
        let current = vec![
            BenchRecord {
                id: "a".into(),
                median_ns: 1_200.0, // +20% — inside a 25% threshold
                melem_per_s: None,
            },
            BenchRecord {
                id: "b".into(),
                median_ns: 1_300.0, // +30% — regression
                melem_per_s: None,
            },
            BenchRecord {
                id: "c".into(),
                median_ns: 700.0, // −30% — improvement
                melem_per_s: None,
            },
            BenchRecord {
                id: "fresh".into(),
                median_ns: 10.0,
                melem_per_s: None,
            },
        ];
        let cmp = compare_bench(&baseline, &current, 0.25);
        assert!(matches!(cmp.rows[0].3, BenchVerdict::Ok { .. }));
        assert!(matches!(cmp.rows[1].3, BenchVerdict::Regression { .. }));
        assert!(matches!(cmp.rows[2].3, BenchVerdict::Improvement { .. }));
        assert_eq!(cmp.rows[3].3, BenchVerdict::Missing);
        assert_eq!(cmp.new_ids, vec!["fresh".to_string()]);
        assert!(cmp.failed());
        let rendered = cmp.render(0.25);
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("MISSING"));
        assert!(rendered.contains("improvement"));
        assert!(rendered.contains("fresh"));
    }

    #[test]
    fn worst_ratio_reports_the_highest_current_over_baseline() {
        let baseline = sample_records();
        let mut current = sample_records();
        current[0].median_ns *= 1.18; // worst offender, inside threshold
        current[1].median_ns *= 0.95;
        let cmp = compare_bench(&baseline, &current, 0.25);
        let (id, ratio) = cmp.worst_ratio().expect("ratios exist");
        assert_eq!(id, "sharding/ingest/sharded/4");
        assert!((ratio - 1.18).abs() < 1e-9);
        assert_eq!(cmp.missing_count(), 0);
    }

    #[test]
    fn worst_ratio_is_none_when_everything_vanished() {
        let baseline = sample_records();
        let other = vec![BenchRecord {
            id: "unrelated".into(),
            median_ns: 1.0,
            melem_per_s: None,
        }];
        let cmp = compare_bench(&baseline, &other, 0.25);
        assert!(cmp.worst_ratio().is_none());
        assert_eq!(cmp.missing_count(), baseline.len());
        assert!(cmp.failed());
    }

    #[test]
    fn compare_bench_passes_when_within_threshold() {
        let baseline = sample_records();
        let mut current = sample_records();
        current[0].median_ns *= 1.1;
        current[1].median_ns *= 0.9;
        let cmp = compare_bench(&baseline, &current, 0.25);
        assert!(!cmp.failed());
        assert!(cmp.new_ids.is_empty());
    }
}
