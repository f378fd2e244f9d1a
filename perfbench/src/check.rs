//! Output checks and the accuracy audit.
//!
//! Every answer must have at least one group and finite estimates and
//! confidence intervals; every ingest must advance the table's row
//! watermark by exactly its batch size. A fixed subset of answers is
//! audited against exact execution outside the timed region: each
//! audited group key must exist in the exact result, and the per-group
//! relative error of `SUM(lo_revenue)` feeds `group_rel_err_p50`.

use std::collections::HashMap;

use laqy_engine::{QueryResult, Value};

/// Failed checks collected over a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    /// Relative errors of audited groups.
    pub rel_errs: Vec<f64>,
    /// Audited groups whose exact value lies inside the reported CI.
    pub covered: u64,
    /// Answers audited.
    pub audited: u64,
}

impl Checks {
    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Check one answer's estimates: `(value, ci_half_width)` per
    /// aggregate per group. Every aggregate the benchmark issues is a SUM
    /// or COUNT, so every CI must be finite.
    pub fn answer<'a>(&mut self, what: &str, groups: impl IntoIterator<Item = (f64, f64)> + 'a) {
        let mut n = 0usize;
        for (value, ci) in groups {
            n += 1;
            if !value.is_finite() || !ci.is_finite() {
                self.fail(format!("{what}: non-finite estimate {value} ± {ci}"));
                return;
            }
        }
        if n == 0 {
            self.fail(format!("{what}: answer has no groups"));
        }
    }

    /// Check that an ingest acknowledged `watermark` after a table of
    /// `before` rows took a batch of `rows`.
    pub fn watermark(&mut self, what: &str, before: u64, rows: u64, watermark: u64) {
        if watermark != before + rows {
            self.fail(format!(
                "{what}: watermark {watermark} after {rows} rows onto {before}"
            ));
        }
    }

    /// Audit one answer, given as decoded keys with the first aggregate's
    /// estimate and CI half-width, against the exact result of the same query on the same
    /// table version. Every group with a nonzero estimate must exist in
    /// the exact result.
    pub fn audit(&mut self, what: &str, answer: &[(Vec<Value>, f64, f64)], exact: &QueryResult) {
        self.audited += 1;
        let truth: HashMap<String, f64> = exact
            .rows
            .iter()
            .map(|r| (key_string(&r.key), r.values[0]))
            .collect();
        for (key, estimate, ci) in answer {
            match truth.get(&key_string(key)) {
                // A stored sample can report a stratum none of whose
                // tuples fall in the query's range as a zero estimate;
                // the exact result omits that empty group.
                None if *estimate == 0.0 => {}
                None => {
                    self.fail(format!(
                        "{what}: group {key:?} (estimate {estimate}) is not in the exact result"
                    ));
                    return;
                }
                Some(&t) if t != 0.0 => {
                    self.rel_errs.push((estimate - t).abs() / t.abs());
                    self.covered += u64::from((estimate - t).abs() <= *ci);
                }
                Some(_) => {}
            }
        }
    }

    /// Median audited relative error; a run that audited no group fails.
    pub fn finish_audit(&mut self) -> f64 {
        if self.rel_errs.is_empty() {
            self.fail("audit: no group was audited".to_string());
            return 0.0;
        }
        crate::stats::median(&self.rel_errs)
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

fn key_string(key: &[Value]) -> String {
    format!("{key:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::GroupedRow;

    fn exact(rows: &[(i64, f64)]) -> QueryResult {
        QueryResult {
            rows: rows
                .iter()
                .map(|&(k, v)| GroupedRow {
                    key: vec![Value::Int(k)],
                    values: vec![v, 1.0],
                })
                .collect(),
        }
    }

    #[test]
    fn empty_and_non_finite_answers_fail() {
        let mut c = Checks::default();
        c.answer("ok", [(1.0, 0.5), (2.0, 0.0)]);
        assert!(c.ok());
        c.answer("empty", []);
        c.answer("nan", [(f64::NAN, 0.1)]);
        c.answer("inf ci", [(1.0, f64::INFINITY)]);
        assert_eq!(c.failures().len(), 3);
    }

    #[test]
    fn watermark_must_advance_by_the_batch() {
        let mut c = Checks::default();
        c.watermark("ok", 100, 10, 110);
        assert!(c.ok());
        c.watermark("short", 100, 10, 105);
        assert!(!c.ok());
    }

    #[test]
    fn audit_measures_error_and_rejects_unknown_keys() {
        let mut c = Checks::default();
        let truth = exact(&[(1, 100.0), (2, 200.0), (3, 0.0)]);
        c.audit(
            "a",
            &[
                (vec![Value::Int(1)], 110.0, 20.0),
                (vec![Value::Int(2)], 190.0, 5.0),
                (vec![Value::Int(3)], 5.0, 1.0),
            ],
            &truth,
        );
        assert!(c.ok());
        assert_eq!(c.rel_errs.len(), 2);
        assert_eq!(c.covered, 1);
        // Nearest-rank median of the two errors, 0.1 and 0.05.
        assert_eq!(c.finish_audit(), 0.05);
        // An empty group (zero estimate) the exact result omits is fine.
        c.audit("b", &[(vec![Value::Int(8)], 0.0, 0.0)], &truth);
        assert!(c.ok());
        c.audit("c", &[(vec![Value::Int(9)], 1.0, 0.0)], &truth);
        assert!(!c.ok());
    }
}
