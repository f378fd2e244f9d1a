//! What every workload shares: its configuration, the shape of a run's
//! output, and the pass loop.
//!
//! A run is set up several times (the median set-up time is reported and
//! the last set-up is kept), then repeats identical *passes* of fixed
//! work. Untraced, passes repeat until `--seconds` have been measured,
//! the queries are enough for a p99 with ten samples beyond it, and there
//! are at least [`MIN_PASSES`] passes. Traced, the run makes two untraced
//! passes and one traced pass over the same inputs; the traced pass gives
//! the per-layer metrics, and its time over the second untraced pass's
//! gives the tracing overhead.

use std::path::PathBuf;
use std::time::Duration;

use laqy::SessionConfig;
use laqy_workload::SsbConfig;

use crate::check::Checks;
use crate::metrics::Metrics;
use crate::pipeline::Layers;
use crate::stats::{median, percentile, tail_level, Tally};
use crate::trace::Tracer;

/// Reservoir capacity per stratum, for every query.
pub const K: usize = 32;

/// Longest a run measures, whatever its sample count.
pub const MAX_MEASURE: Duration = Duration::from_secs(100);

/// Fewest timed passes a run makes, so per-pass medians can reject a
/// pass slowed by something outside the program.
pub const MIN_PASSES: usize = 3;

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: data, op streams, batches, and sampler seeds.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// SSB scale factor.
    pub scale: f64,
    /// Set-ups per run.
    pub setups: usize,
    /// Query samples a run collects before it may stop.
    pub min_queries: usize,
    /// Timed passes a run makes before it may stop.
    pub min_passes: usize,
    /// Scratch space for write-ahead logs and the trace file.
    pub out_dir: PathBuf,
}

impl Config {
    /// The SSB generator configuration for this run.
    pub fn ssb(&self) -> SsbConfig {
        SsbConfig {
            scale_factor: self.scale,
            seed: self.seed,
        }
    }

    /// Service configuration for service number `n` of this run.
    pub fn session(&self, n: u64) -> SessionConfig {
        SessionConfig {
            seed: self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..SessionConfig::default()
        }
    }

    /// Whether the untraced pass loop may stop.
    pub fn done(&self, run: &Run) -> bool {
        run.measured >= MAX_MEASURE
            || (run.measured.as_secs_f64() >= self.seconds
                && run.tally.query_ms.len() >= self.min_queries
                && run.explore_s.len() >= self.min_passes)
    }
}

/// What one run measured.
pub struct Run {
    /// Every timed operation.
    pub tally: Tally,
    /// Output checks and the audit.
    pub checks: Checks,
    /// Measured wall time of the timed passes.
    pub measured: Duration,
    /// Cumulative query time of each timed pass, seconds.
    pub explore_s: Vec<f64>,
    /// Answers per measured second of each timed pass.
    pub pass_answers_per_s: Vec<f64>,
    /// Median query latency of each timed pass, ms.
    pub pass_p50_ms: Vec<f64>,
    /// Each timed pass's own p99, ms, when it alone holds enough samples.
    pub pass_p99_ms: Vec<Option<f64>>,
    /// Sample-store bytes at the end of the run.
    pub store_bytes: f64,
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// The span log.
    pub tracer: Tracer,
}

/// Nearest-rank percentile of unsorted samples.
fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

impl Run {
    /// A run that has measured nothing yet.
    pub fn new(trace: bool) -> Run {
        Run {
            tally: Tally::default(),
            checks: Checks::default(),
            measured: Duration::ZERO,
            explore_s: Vec::new(),
            pass_answers_per_s: Vec::new(),
            pass_p50_ms: Vec::new(),
            pass_p99_ms: Vec::new(),
            store_bytes: 0.0,
            setup_s: Vec::new(),
            layers: Metrics::default(),
            tracer: Tracer::new(trace),
        }
    }

    /// Record one timed pass that took `measured` and spent `explore_s`
    /// in queries; its answers and samples are those the tally gained
    /// since it held `answers` answers and `samples` query samples.
    pub fn note_pass(&mut self, measured: Duration, explore_s: f64, answers: u64, samples: usize) {
        let secs = measured.as_secs_f64();
        println!(
            "pass {}: {secs:.3} s measured, {explore_s:.3} s in queries",
            self.explore_s.len()
        );
        self.measured += measured;
        self.explore_s.push(explore_s);
        self.pass_answers_per_s
            .push((self.tally.answers - answers) as f64 / secs.max(1e-9));
        let pass = &self.tally.query_ms[samples..];
        self.pass_p50_ms.push(median(pass));
        self.pass_p99_ms.push(
            tail_level(pass.len())
                .is_some_and(|l| l >= 99.0)
                .then(|| percentile_of(pass, 99.0)),
        );
    }

    /// Record the traced pass's time against the untraced one's.
    pub fn overhead(&mut self, untraced: Duration, traced: Duration) {
        self.layers.put(
            "trace.overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9),
            "ratio",
        );
    }
}

/// Drive a workload's passes: in the traced run two untraced passes and
/// one traced pass, otherwise untraced passes until [`Config::done`]. The
/// first pass audits. `pass` returns its measured time and cumulative
/// query time.
pub fn drive(
    cfg: &Config,
    run: &mut Run,
    mut pass: impl FnMut(&Tracer, &mut Run, &mut Layers, bool) -> (Duration, f64),
) {
    let off = Tracer::new(false);
    if cfg.trace {
        // The first pass also warms the allocator; the overhead compares
        // the traced pass with the untraced pass right before it.
        pass(&off, run, &mut Layers::default(), true);
        let (untraced, _) = pass(&off, run, &mut Layers::default(), false);
        let tracer = run.tracer.clone();
        let mut layers = Layers::default();
        let (traced, _) = pass(&tracer, run, &mut layers, false);
        layers.report(&mut run.layers);
        run.overhead(untraced, traced);
        return;
    }
    let mut first = true;
    while !cfg.done(run) {
        let (answers, samples) = (run.tally.answers, run.tally.query_ms.len());
        let (measured, explore) = pass(&off, run, &mut Layers::default(), first);
        run.note_pass(measured, explore, answers, samples);
        first = false;
    }
}
