//! `compare <base.json> <new.json>`: applies each end-to-end metric's
//! bound, workload row by workload row.

use crate::json::Json;
use crate::metrics::Better;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Moved the right way by more than either file's spread.
    Better,
    Same,
    /// Worse than the base by more than the bound: a regression.
    Worse,
    /// A run-to-run spread wider than the bound: the bound cannot be
    /// applied, so this is neither "same" nor a regression.
    Unresolved,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Better => "better",
            Status::Same => "same",
            Status::Worse => "WORSE",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Relative change, positive = worse.
    pub worse_by: f64,
    pub bound: f64,
    pub status: Status,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose `failed_share` went up.
    pub more_failures: Vec<String>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.status == Status::Worse)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:<14} {:>14} {:>14} {:>9} {:>7}  status\n",
            "workload", "metric", "base", "new", "worse by", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:<14} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}\n",
                r.workload,
                r.metric,
                r.base,
                r.new,
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.status.name()
            ));
        }
        for w in &self.more_failures {
            out.push_str(&format!("{w}: failed_share went up\n"));
        }
        out
    }
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

/// `(q3 - q1) / value` of a recorded metric.
fn spread(metric: &Json) -> Result<f64, String> {
    let value = number(metric, "value")?;
    Ok(((number(metric, "q3")? - number(metric, "q1")?) / value).abs())
}

/// Compares two result documents. Every workload of `base` must be in
/// `new`, measured at the same thread count.
pub fn compare(base: &Json, new: &Json) -> Result<Comparison, String> {
    let (base_threads, new_threads) = (number(base, "threads")?, number(new, "threads")?);
    if base_threads != new_threads {
        return Err(format!(
            "results compare only at equal threads (base {base_threads}, new {new_threads})"
        ));
    }
    let base_rows = base.get("workloads").ok_or("base: no 'workloads'")?;
    let new_rows = new.get("workloads").ok_or("new: no 'workloads'")?;
    let mut out = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
    };
    for (workload, base_row) in base_rows.entries() {
        let new_row = new_rows
            .get(workload)
            .ok_or_else(|| format!("new: workload '{workload}' missing"))?;
        if number(new_row, "failed_share")? > number(base_row, "failed_share")? {
            out.more_failures.push(workload.clone());
        }
        let metrics = base_row.get("metrics").ok_or("base: row without metrics")?;
        for (name, base_metric) in metrics.entries() {
            let new_metric = new_row
                .get("metrics")
                .and_then(|m| m.get(name))
                .ok_or_else(|| format!("new: {workload} lacks metric '{name}'"))?;
            let (b, n) = (number(base_metric, "value")?, number(new_metric, "value")?);
            let bound = number(base_metric, "bound")?;
            let better = base_metric
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::by_name)
                .ok_or_else(|| format!("base: {workload}.{name} lacks 'better'"))?;
            let worse_by = match better {
                Better::Lower => (n - b) / b,
                Better::Higher => (b - n) / b,
            };
            let widest = spread(base_metric)?.max(spread(new_metric)?);
            let status = if widest > bound {
                Status::Unresolved
            } else if worse_by > bound {
                Status::Worse
            } else if -worse_by > widest {
                Status::Better
            } else {
                Status::Same
            };
            out.rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                base: b,
                new: n,
                worse_by,
                bound,
                status,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, better: &str, bound: f64, rel_spread: f64) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("better", Json::str(better)),
            ("bound", Json::Num(bound)),
            ("q1", Json::Num(value * (1.0 - rel_spread / 2.0))),
            ("q3", Json::Num(value * (1.0 + rel_spread / 2.0))),
        ])
    }

    /// A result document with one workload; `slow` scales every timing
    /// the wrong way, `failed_share` is recorded as given.
    fn doc(threads: f64, slow: f64, failed_share: f64, rel_spread: f64) -> Json {
        Json::obj([
            ("threads", Json::Num(threads)),
            (
                "workloads",
                Json::obj([(
                    "service_mixed_n3",
                    Json::obj([
                        ("failed_share", Json::Num(failed_share)),
                        (
                            "metrics",
                            Json::obj([
                                (
                                    "ops_per_s",
                                    metric(50_000.0 / slow, "higher", 0.10, rel_spread),
                                ),
                                ("op_p50_ms", metric(19.0 * slow, "lower", 0.10, rel_spread)),
                                ("setup_s", metric(1.0 * slow, "lower", 0.25, rel_spread)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn a_file_compared_with_itself_passes() {
        let base = doc(2.0, 1.0, 0.0, 0.02);
        let cmp = compare(&base, &base).unwrap();
        assert!(!cmp.regressed());
        assert!(cmp.rows.iter().all(|r| r.status == Status::Same));
        assert_eq!(cmp.rows.len(), 3);
    }

    #[test]
    fn a_fifteen_percent_slower_copy_fails_on_the_ten_percent_metrics_only() {
        let cmp = compare(&doc(2.0, 1.0, 0.0, 0.02), &doc(2.0, 1.15, 0.0, 0.02)).unwrap();
        assert!(cmp.regressed());
        let status = |m: &str| cmp.rows.iter().find(|r| r.metric == m).unwrap().status;
        assert_eq!(status("ops_per_s"), Status::Worse);
        assert_eq!(status("op_p50_ms"), Status::Worse);
        assert_eq!(
            status("setup_s"),
            Status::Same,
            "15 % is inside the 25 % bound"
        );
        assert!(cmp.render().contains("WORSE"));
    }

    #[test]
    fn a_faster_copy_is_better_and_a_noisy_one_is_unresolved() {
        let cmp = compare(&doc(2.0, 1.0, 0.0, 0.02), &doc(2.0, 0.9, 0.0, 0.02)).unwrap();
        assert!(!cmp.regressed());
        assert!(cmp.rows.iter().all(|r| r.status == Status::Better));
        let cmp = compare(&doc(2.0, 1.0, 0.0, 0.02), &doc(2.0, 1.15, 0.0, 0.3)).unwrap();
        assert!(cmp.rows.iter().all(|r| r.status == Status::Unresolved));
        assert!(!cmp.regressed());
    }

    #[test]
    fn more_failures_or_other_threads_are_refused() {
        let cmp = compare(&doc(2.0, 1.0, 0.0, 0.02), &doc(2.0, 1.0, 0.001, 0.02)).unwrap();
        assert!(cmp.regressed());
        assert_eq!(cmp.more_failures, vec!["service_mixed_n3".to_string()]);
        assert!(compare(&doc(2.0, 1.0, 0.0, 0.02), &doc(4.0, 1.0, 0.0, 0.02)).is_err());
        let empty = Json::obj([
            ("threads", Json::Num(2.0)),
            ("workloads", Json::Obj(vec![])),
        ]);
        assert!(compare(&doc(2.0, 1.0, 0.0, 0.02), &empty).is_err());
    }
}
