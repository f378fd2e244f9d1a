//! In-process operations against a [`LaqyService`], each timed end to
//! end and split into layer spans, plus the per-layer accumulator the
//! traced run reports from.
//!
//! A query is `approx_query` (layer `sql`), `LaqyService::run` (layer
//! `service`, with the executor's reported phases as derived children:
//! `engine.scan`, `sampling.build`, `sampling.merge`, `estimate`), and
//! `decode_keys` (layer `decode`). An ingest is `LaqyService::ingest`;
//! in the traced run `Table::append_batch` is also timed on its own, on
//! the same table version and batch, outside the operation's time.

use std::time::{Duration, Instant};

use laqy::{
    approx_query, ApproxQuery, ApproxResult, ExecStats, LaqyService, ReuseClass, ServiceStats,
};
use laqy_engine::{Column, Value};

use crate::check::Checks;
use crate::metrics::Metrics;
use crate::stats::{mean, median, Outcome, Tally};
use crate::trace::Tracer;
use crate::workload::K;

/// One answered in-process query.
pub struct Answered {
    /// Plan + run + decode, ms.
    pub ms: f64,
    /// The planned query (for the audit).
    pub query: ApproxQuery,
    /// The answer.
    pub result: ApproxResult,
    /// Decoded group keys, in `result.groups` order.
    pub keys: Vec<Vec<Value>>,
}

impl Answered {
    /// Decoded keys paired with the first aggregate's estimate and CI.
    pub fn audit_rows(&self) -> Vec<(Vec<Value>, f64, f64)> {
        self.keys
            .iter()
            .zip(&self.result.groups)
            .map(|(k, g)| (k.clone(), g.values[0].value, g.values[0].ci_half_width))
            .collect()
    }
}

/// Plan, run, and decode `sql` with reservoirs of [`K`], recording the outcome and the checks.
pub fn query(
    svc: &LaqyService,
    sql: &str,
    tracer: &Tracer,
    req: u64,
    tally: &mut Tally,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Option<Answered> {
    let t0 = Instant::now();
    let root = tracer.enter("op.query", req, None);
    let parent = root.id();
    let (planned, plan_t) = tracer.time("sql.plan", req, parent, || {
        let catalog = svc.catalog();
        approx_query(&catalog, sql, K)
    });
    let answered = planned.and_then(|query| {
        let open = tracer.enter("service.run", req, parent);
        let (run_id, run_start) = (open.id(), open.start());
        let result = svc.run(&query);
        if let Ok(r) = &result {
            let s = &r.stats;
            tracer.derived(
                req,
                run_id,
                run_start,
                &[
                    ("engine.scan", s.scan),
                    ("sampling.build", s.processing),
                    ("sampling.merge", s.merge),
                    ("estimate", s.estimate),
                ],
            );
        }
        let run_t = tracer.close(open);
        let result = result?;
        let (keys, decode_t) =
            tracer.time("decode", req, parent, || svc.decode_keys(&query, &result));
        Ok((query, result, keys?, run_t, decode_t))
    });
    tracer.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match answered {
        Ok((query, result, keys, run_t, decode_t)) => {
            checks.answer(
                &format!("query {req}"),
                result
                    .groups
                    .iter()
                    .flat_map(|g| g.values.iter().map(|v| (v.value, v.ci_half_width))),
            );
            let degraded = result.stats.degraded.is_some();
            tally.record(Outcome::Answer { ms, degraded });
            layers.note_query(plan_t, run_t, decode_t, &result.stats);
            Some(Answered {
                ms,
                query,
                result,
                keys,
            })
        }
        Err(e) => {
            eprintln!("query {req} failed: {e}");
            tally.record(Outcome::QueryFailed);
            None
        }
    }
}

/// Ingest `batch` into `lineorder`, checking the watermark. With
/// tracing on, `Table::append_batch` is also timed on its own; the
/// returned duration is that extra work, which the caller keeps out of
/// the pass time.
pub fn ingest(
    svc: &LaqyService,
    batch: &[(String, Column)],
    tracer: &Tracer,
    req: u64,
    tally: &mut Tally,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Duration {
    let rows = batch.first().map_or(0, |(_, c)| c.len()) as u64;
    // Traced only: the same append on the same table version, first, with
    // its copy freed before the ingest allocates its own, so both copies
    // are made under the same allocator state.
    let t_extra = Instant::now();
    let (before, append_t) = {
        let catalog = svc.catalog();
        let table = catalog.table("lineorder").expect("lineorder is registered");
        let append_t = tracer.on().then(|| {
            let (copy, t) = tracer.time("engine.append", req, None, || table.append_batch(batch));
            drop(std::hint::black_box(copy));
            t
        });
        (table.num_rows() as u64, append_t)
    };
    let extra = if tracer.on() {
        t_extra.elapsed()
    } else {
        Duration::ZERO
    };
    let owned = batch.to_vec();
    let t0 = Instant::now();
    let root = tracer.enter("op.ingest", req, None);
    let (acked, ingest_t) =
        tracer.time("ingest", req, root.id(), || svc.ingest("lineorder", owned));
    tracer.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match acked {
        Ok(watermark) => {
            checks.watermark(&format!("ingest {req}"), before, rows, watermark);
            tally.record(Outcome::Ingested { ms, rows });
            layers.note_ingest(ingest_t, append_t);
        }
        Err(e) => {
            eprintln!("ingest {req} failed: {e}");
            tally.record(Outcome::IngestFailed);
        }
    }
    extra
}

/// Audit one answer against exact execution on the same service.
pub fn audit(svc: &LaqyService, answered: &Answered, req: u64, checks: &mut Checks) {
    match svc.run_exact(&answered.query) {
        Ok((exact, _)) => checks.audit(&format!("audit {req}"), &answered.audit_rows(), &exact),
        Err(e) => checks.fail(format!("audit {req}: exact run failed: {e}")),
    }
}

/// Per-layer accumulator over one traced pass.
#[derive(Default)]
pub struct Layers {
    queries: u64,
    plan_us: Vec<f64>,
    decode_ms: f64,
    arms: [(u64, f64); 3],
    exec: ExecStats,
    store_plan_ms: f64,
    ingest_ms: Vec<f64>,
    append_ms: Vec<f64>,
    lock_wait_ns: u64,
    merge_retries: u64,
    absorbed_rows: u64,
    absorbed_samples: u64,
    /// Sample-store bytes at the end of the pass.
    pub store_bytes: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    fn note_query(&mut self, plan: Duration, run: Duration, decode: Duration, s: &ExecStats) {
        self.queries += 1;
        self.plan_us.push(plan.as_secs_f64() * 1e6);
        self.decode_ms += ms(decode);
        let arm = match s.reuse {
            Some(ReuseClass::Full) => 0,
            Some(ReuseClass::Partial) => 1,
            _ => 2,
        };
        self.arms[arm].0 += 1;
        self.arms[arm].1 += ms(run);
        self.store_plan_ms += ms(s.total.saturating_sub(s.phases_total()));
        self.exec.accumulate(s);
    }

    fn note_ingest(&mut self, ingest: Duration, append: Option<Duration>) {
        self.ingest_ms.push(ms(ingest));
        if let Some(a) = append {
            self.append_ms.push(ms(a));
        }
    }

    /// Fold in the store counters one service moved between two readings.
    pub fn note_store(&mut self, before: &ServiceStats, after: &ServiceStats) {
        self.lock_wait_ns += after.lock_wait_nanos - before.lock_wait_nanos;
        self.merge_retries += after.merge_retries - before.merge_retries;
        self.absorbed_rows += after.absorbed_rows - before.absorbed_rows;
        self.absorbed_samples += after.absorbed_samples - before.absorbed_samples;
    }

    /// Report the query- and ingest-side layer metrics: times as means
    /// per query or per batch, work as counts over the pass.
    pub fn report(&self, m: &mut Metrics) {
        let per_q = |total: f64| total / self.queries.max(1) as f64;
        let e = &self.exec;
        m.put("sql.plan_us", median(&self.plan_us), "us");
        for (i, arm) in ["full", "partial", "online"].iter().enumerate() {
            let (n, total) = self.arms[i];
            m.put(&format!("service.{arm}_n"), n as f64, "count");
            m.put(&format!("service.{arm}_ms"), total / n.max(1) as f64, "ms");
        }
        m.put("store.plan_ms", per_q(self.store_plan_ms), "ms");
        m.put(
            "store.full_hit_ratio",
            self.arms[0].0 as f64 / self.queries.max(1) as f64,
            "ratio",
        );
        m.put("store.full_hit_base", self.queries as f64, "count");
        m.put(
            "store.lock_wait_ms",
            per_q(self.lock_wait_ns as f64 / 1e6),
            "ms",
        );
        m.put("store.merge_retries", self.merge_retries as f64, "count");
        m.put("store.absorbed_rows", self.absorbed_rows as f64, "count");
        m.put(
            "store.absorbed_samples",
            self.absorbed_samples as f64,
            "count",
        );
        m.put("store.bytes", self.store_bytes, "B");
        m.put("store.fragments_reused", e.fragments_reused as f64, "count");
        m.put(
            "store.fragments_scanned",
            e.fragments_scanned as f64,
            "count",
        );
        m.put("sampling.build_ms", per_q(ms(e.processing)), "ms");
        m.put("sampling.input_rows", e.sampled_input_rows as f64, "count");
        m.put("sampling.merge_ms", per_q(ms(e.merge)), "ms");
        m.put("estimate.ms", per_q(ms(e.estimate)), "ms");
        m.put("decode.ms", per_q(self.decode_ms), "ms");
        m.put("engine.scan_ms", per_q(ms(e.scan)), "ms");
        m.put("engine.scanned_rows", e.scanned_rows as f64, "count");
        m.put("engine.morsels_scanned", e.morsels_scanned as f64, "count");
        m.put("engine.morsels_skipped", e.morsels_skipped as f64, "count");
        let ingest = mean(&self.ingest_ms);
        let append = mean(&self.append_ms);
        m.put("engine.append_ms", append, "ms");
        m.put("ingest.ms", ingest, "ms");
        m.put("ingest.other_ms", ingest - append, "ms");
    }
}
