//! `explore_q1`: the paper's long-running exploratory Q1 sequences,
//! in process, one closed-loop caller, a fresh service per sequence.
//!
//! Each sequence starts cold, so most of its queries take the
//! partial-reuse arm and merge, sampler build, and estimation dominate.
//! After each sequence one `lineorder` batch is ingested beside the
//! store the exploration left behind, which measures append and publish
//! there. Its keys lie past the explored domain, so no stored sample
//! absorbs rows (absorption is `ingest_recent`'s job). A pass runs the
//! whole fixed sequence set.

use std::time::{Duration, Instant};

use laqy::Interval;
use laqy_engine::{Catalog, Column};
use laqy_workload::{generate, lineorder_batch, long_running, q1_sql, ExploreConfig};

use crate::pipeline::{self, Layers};
use crate::trace::Tracer;
use crate::workload::{drive, Config, Run};

/// Sequences in the fixed set.
pub const SEQUENCES: u64 = 8;

/// Query positions within a sequence whose answers are audited.
const AUDITED: [usize; 3] = [9, 29, 49];

/// Rows in the batch ingested after each sequence.
const BATCH_ROWS: usize = 3_000;

struct Prepared {
    catalog: Catalog,
    sequences: Vec<Vec<String>>,
    batch: Vec<(String, Column)>,
}

fn prepare(cfg: &Config) -> Prepared {
    let ssb = cfg.ssb();
    let catalog = generate(&ssb);
    let rows = ssb.lineorder_rows();
    let domain = Interval::new(0, rows as i64 - 1);
    // The paper's sequence shape under fixed generator seeds; the run
    // seed varies the data and the samplers.
    let sequences = (1..=SEQUENCES)
        .map(|s| {
            long_running(&ExploreConfig::long_running(domain, s))
                .into_iter()
                .map(|iv| q1_sql(iv.lo, iv.hi))
                .collect()
        })
        .collect();
    let batch = lineorder_batch(&ssb, rows, BATCH_ROWS);
    Prepared {
        catalog,
        sequences,
        batch,
    }
}

/// One pass over every sequence. Returns the measured time (audits and
/// trace-only work excluded) and the cumulative query time.
fn pass(
    cfg: &Config,
    p: &Prepared,
    tracer: &Tracer,
    run: &mut Run,
    layers: &mut Layers,
    audit: bool,
) -> (Duration, f64) {
    let t0 = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut query_ms = 0.0;
    let mut bytes = 0.0;
    let mut req = 0u64;
    for (s, seq) in p.sequences.iter().enumerate() {
        let svc = laqy::LaqyService::with_config(p.catalog.clone(), cfg.session(s as u64));
        let before = svc.stats();
        let mut kept = Vec::new();
        for (i, sql) in seq.iter().enumerate() {
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
                if audit && AUDITED.contains(&i) {
                    kept.push((req, a));
                }
            }
        }
        let t_audit = Instant::now();
        for (r, a) in &kept {
            pipeline::audit(&svc, a, *r, &mut run.checks);
        }
        excluded += t_audit.elapsed();
        req += 1;
        excluded += pipeline::ingest(
            &svc,
            &p.batch,
            tracer,
            req,
            &mut run.tally,
            layers,
            &mut run.checks,
        );
        let t_snap = Instant::now();
        layers.note_store(&before, &svc.stats());
        bytes += svc.store().total_bytes() as f64;
        excluded += t_snap.elapsed();
    }
    layers.store_bytes = bytes / p.sequences.len() as f64;
    run.store_bytes = layers.store_bytes;
    (t0.elapsed() - excluded, query_ms / 1e3)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::new(cfg.trace);
    let mut prepared = None;
    for _ in 0..cfg.setups {
        // The previous set-up's memory is freed before the next is timed.
        drop(prepared.take());
        let t = Instant::now();
        let p = prepare(cfg);
        // Service start is part of set-up; passes build one per sequence.
        drop(laqy::LaqyService::with_config(
            p.catalog.clone(),
            cfg.session(0),
        ));
        run.setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    drive(cfg, &mut run, |tracer, run, layers, audit| {
        pass(cfg, &p, tracer, run, layers, audit)
    });
    run
}
