//! Summary statistics and failure accounting.
//!
//! Latencies are reported as a median and the highest standard
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it,
//! always together with the sample count. A failed operation counts as
//! attempted and as missing every latency limit: it enters the latency
//! samples as `+inf`.

/// Samples a tail percentile needs strictly beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Percentile levels the tail rule chooses from, highest first.
const LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
/// The small epsilon keeps `99.9 × 10000 / 100` from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-6).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest level in [`LEVELS`] with at least [`TAIL_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has too few.
pub fn tail_level(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LEVELS.into_iter().find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// Smallest sample count at which `level` satisfies the tail rule.
pub fn samples_for(level: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, level) >= TAIL_BEYOND)
        .expect("finite")
}

/// Median of unsorted samples (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency summary: median, tail at the level the rule allows, and
/// the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// The tail level chosen by [`tail_level`].
    pub tail_level: f64,
    /// The value at that level.
    pub tail: f64,
    /// Samples the summary rests on.
    pub count: usize,
}

/// Summarize latency samples (`+inf` marks a failed operation).
pub fn summarize(samples: &[f64]) -> Option<LatencySummary> {
    let level = tail_level(samples.len())?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(LatencySummary {
        p50: percentile(&v, 50.0),
        tail_level: level,
        tail: percentile(&v, level),
        count: v.len(),
    })
}

/// Per-class operation accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (queries and ingests).
    pub attempted: u64,
    /// Errors, I/O errors, and sheds.
    pub failed: u64,
    /// Queries answered (degraded answers included).
    pub answers: u64,
    /// Answers flagged degraded.
    pub degraded: u64,
    /// Query latencies in ms; `+inf` for a failed query.
    pub query_ms: Vec<f64>,
    /// Ingest busy times in ms; `+inf` for a failed ingest.
    pub ingest_ms: Vec<f64>,
    /// Rows in acknowledged ingest batches.
    pub ingest_rows: u64,
    /// Rows of each ingest attempted, aligned with `ingest_ms`.
    pub ingest_batch_rows: Vec<u64>,
}

/// How one operation ended, as the tally sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// A query answered after `ms`.
    Answer {
        /// Latency.
        ms: f64,
        /// Whether the answer was degraded.
        degraded: bool,
    },
    /// An ingest acknowledged after `ms`.
    Ingested {
        /// Busy time.
        ms: f64,
        /// Rows in the batch.
        rows: u64,
    },
    /// A query that failed: typed error, I/O error, or shed.
    QueryFailed,
    /// An ingest that failed the same ways.
    IngestFailed,
}

impl Tally {
    /// Account one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Answer { ms, degraded } => {
                self.answers += 1;
                self.degraded += u64::from(degraded);
                self.query_ms.push(ms);
            }
            Outcome::Ingested { ms, rows } => {
                self.ingest_rows += rows;
                self.ingest_ms.push(ms);
                self.ingest_batch_rows.push(rows);
            }
            Outcome::QueryFailed => {
                self.failed += 1;
                self.query_ms.push(f64::INFINITY);
            }
            Outcome::IngestFailed => {
                self.failed += 1;
                self.ingest_ms.push(f64::INFINITY);
                self.ingest_batch_rows.push(0);
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Degraded answers over answers.
    pub fn degraded_ratio(&self) -> f64 {
        ratio(self.degraded, self.answers)
    }

    /// Share of attempted operations served in full: answered without
    /// degradation, or acknowledged.
    pub fn good_ratio(&self) -> f64 {
        ratio(self.attempted - self.failed - self.degraded, self.attempted)
    }

    /// Median over ingest batches of rows per second of busy time; a
    /// failed batch counts as rate 0.
    pub fn ingest_rows_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .ingest_ms
            .iter()
            .zip(&self.ingest_batch_rows)
            .map(|(&ms, &rows)| {
                if ms.is_finite() {
                    rows as f64 / (ms.max(1e-9) / 1e3)
                } else {
                    0.0
                }
            })
            .collect();
        median(&rates)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_level_with_ten_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(9999), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(50.0), 20);
    }

    #[test]
    fn summary_reports_level_value_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples).expect("enough samples");
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_level, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        // Exactly ten samples (991..=1000) lie beyond the tail.
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
        let short: Vec<f64> = (1..=150).map(f64::from).collect();
        let s = summarize(&short).expect("enough samples");
        assert_eq!((s.tail_level, s.tail, s.count), (90.0, 135.0, 150));
    }

    #[test]
    fn failures_count_as_failed_and_as_missing_latency() {
        let mut t = Tally::default();
        for i in 0..995 {
            t.record(Outcome::Answer {
                ms: 1.0 + i as f64 / 1000.0,
                degraded: false,
            });
        }
        // Three sheds, one I/O error, one typed error: five failures.
        for _ in 0..5 {
            t.record(Outcome::QueryFailed);
        }
        t.record(Outcome::IngestFailed);
        t.record(Outcome::Ingested { ms: 4.0, rows: 100 });
        assert_eq!(t.attempted, 1002);
        assert_eq!(t.failed, 6);
        assert_eq!(t.answers, 995);
        assert!((t.failed_ratio() - 6.0 / 1002.0).abs() < 1e-12);
        let s = summarize(&t.query_ms).expect("1000 samples");
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_level, 99.0);
        // The five failures sit beyond every limit, so the tail is set
        // by the slowest answers, and a sixth failure would reach it.
        assert!(s.tail.is_finite());
        assert_eq!(t.query_ms.iter().filter(|m| m.is_infinite()).count(), 5);
        let mut worse = t.clone();
        for _ in 0..10 {
            worse.record(Outcome::QueryFailed);
        }
        assert!(summarize(&worse.query_ms)
            .expect("samples")
            .tail
            .is_infinite());
        // A failed ingest adds no rows and counts as rate 0.
        assert_eq!(t.ingest_rows, 100);
        t.record(Outcome::Ingested { ms: 1.0, rows: 100 });
        t.record(Outcome::Ingested { ms: 2.0, rows: 100 });
        // Per-batch rates 0, 25k, 100k, 50k: the nearest-rank median.
        assert!((t.ingest_rows_per_s() - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn degraded_answers_are_not_served_in_full() {
        let mut t = Tally::default();
        t.record(Outcome::Answer {
            ms: 1.0,
            degraded: true,
        });
        t.record(Outcome::Answer {
            ms: 1.0,
            degraded: false,
        });
        t.record(Outcome::QueryFailed);
        t.record(Outcome::Ingested { ms: 1.0, rows: 1 });
        assert_eq!(t.degraded_ratio(), 0.5);
        assert_eq!(t.good_ratio(), 0.5);
    }
}
