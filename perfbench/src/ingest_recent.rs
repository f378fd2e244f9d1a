//! `ingest_recent`: writes beside reads, in process, with the
//! write-ahead log on (fsync per batch).
//!
//! A pass starts a fresh service on the same catalog with a fresh log
//! and makes a fixed number of rounds. A round ingests one `lineorder`
//! batch and then asks a few Q1 queries over a window at the tail of the
//! key space that reaches past the newest keys, so every batch makes the
//! stored tail samples absorb rows and Δ-scans meet new data. The first
//! query of a round extends the window by one batch (partial reuse); the
//! rest narrow inside it (full reuse).

use std::path::Path;
use std::time::{Duration, Instant};

use laqy_engine::{Catalog, Column};
use laqy_sampling::Lehmer64;
use laqy_workload::{generate, lineorder_batch, q1_sql};

use crate::pipeline::{self, Layers};
use crate::trace::Tracer;
use crate::workload::{drive, Config, Run};

/// Rounds per pass: 1 000 queries, so each pass holds its own p99.
pub const ROUNDS: usize = 125;

/// Queries per round.
pub const QUERIES_PER_ROUND: usize = 8;

/// Rows per ingest batch.
pub const BATCH_ROWS: usize = 1_000;

/// Every `AUDIT_EVERY`-th round of the first pass is audited.
const AUDIT_EVERY: usize = 40;

/// Width of a tail window, as a share of the initial key space.
const WINDOW_SHARE: f64 = 0.5;

struct Prepared {
    catalog: Catalog,
    batches: Vec<Vec<(String, Column)>>,
    windows: Vec<Vec<String>>,
}

fn prepare(cfg: &Config) -> Prepared {
    let ssb = cfg.ssb();
    let catalog = generate(&ssb);
    let rows = ssb.lineorder_rows();
    let batches = (0..ROUNDS)
        .map(|r| lineorder_batch(&ssb, rows + r * BATCH_ROWS, BATCH_ROWS))
        .collect();
    let mut rng = Lehmer64::new(cfg.seed ^ 0x7A11);
    let width = ((rows as f64 * WINDOW_SHARE) as i64).max(8);
    let batch = BATCH_ROWS as i64;
    let windows = (0..ROUNDS)
        .map(|r| {
            // Keys after round r's batch end at `newest`. The first window
            // reaches one batch past it, so the next batch lands inside
            // the sample it leaves; the others narrow inside that window.
            let newest = (rows + (r + 1) * BATCH_ROWS) as i64 - 1;
            let (lo, hi) = (newest + batch - width, newest + batch);
            let mut sqls = vec![q1_sql(lo.max(0), hi)];
            for _ in 1..QUERIES_PER_ROUND {
                let a = lo + rng.next_range_i64(0, width / 4);
                let b = newest - rng.next_range_i64(0, width / 4);
                sqls.push(q1_sql(a.max(0), b.max(a)));
            }
            sqls
        })
        .collect();
    Prepared {
        catalog,
        batches,
        windows,
    }
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the write-ahead log directory");
}

/// A fresh service with its log enabled in `dir`.
fn start(cfg: &Config, p: &Prepared, dir: &Path) -> laqy::LaqyService {
    fresh_dir(dir);
    let svc = laqy::LaqyService::with_config(p.catalog.clone(), cfg.session(0));
    svc.enable_wal(dir).expect("enable the write-ahead log");
    svc
}

/// One pass of [`ROUNDS`] rounds. Returns the measured time (service
/// start, audits, and trace-only work excluded) and the cumulative query
/// time.
fn pass(
    cfg: &Config,
    p: &Prepared,
    tracer: &Tracer,
    run: &mut Run,
    layers: &mut Layers,
    audit: bool,
) -> (Duration, f64) {
    let dir = cfg.out_dir.join(format!("wal-{}", std::process::id()));
    let svc = start(cfg, p, &dir);
    let before = svc.stats();
    let t0 = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut query_ms = 0.0;
    let mut req = 0u64;
    for (r, (batch, windows)) in p.batches.iter().zip(&p.windows).enumerate() {
        req += 1;
        excluded += pipeline::ingest(
            &svc,
            batch,
            tracer,
            req,
            &mut run.tally,
            layers,
            &mut run.checks,
        );
        let mut kept = Vec::new();
        for sql in windows {
            req += 1;
            let answered = pipeline::query(
                &svc,
                sql,
                tracer,
                req,
                &mut run.tally,
                layers,
                &mut run.checks,
            );
            if let Some(a) = answered {
                query_ms += a.ms;
                if audit && r % AUDIT_EVERY == AUDIT_EVERY - 1 {
                    kept.push((req, a));
                }
            }
        }
        // Audits run before the next batch, on the table version the
        // answers saw.
        let t_audit = Instant::now();
        for (q, a) in &kept {
            pipeline::audit(&svc, a, *q, &mut run.checks);
        }
        excluded += t_audit.elapsed();
    }
    let measured = t0.elapsed() - excluded;
    layers.note_store(&before, &svc.stats());
    layers.store_bytes = svc.store().total_bytes() as f64;
    run.store_bytes = layers.store_bytes;
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    (measured, query_ms / 1e3)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::new(cfg.trace);
    let mut prepared = None;
    let setup_dir = cfg
        .out_dir
        .join(format!("wal-setup-{}", std::process::id()));
    for _ in 0..cfg.setups {
        // The previous set-up's memory is freed before the next is timed.
        drop(prepared.take());
        let t = Instant::now();
        let p = prepare(cfg);
        drop(start(cfg, &p, &setup_dir));
        run.setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let _ = std::fs::remove_dir_all(&setup_dir);
    let p = prepared.expect("at least one set-up");
    drive(cfg, &mut run, |tracer, run, layers, audit| {
        pass(cfg, &p, tracer, run, layers, audit)
    });
    run
}
