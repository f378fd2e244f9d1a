//! `serve_zipf`: a real [`Server`] on loopback with
//! `ServerConfig::default()`, two closed-loop clients on their own
//! connections sharing one tenant, replaying `serving::op_stream` (zipf
//! Q1 ranges plus one ingest per 16 operations).
//!
//! Set-up starts the server, creates the tenant, and fills its store by
//! running an untimed warm-up mix straight on the tenant's service. The
//! tenant's `lineorder` version and sample store after warm-up are kept
//! as the baseline. Every pass first restores that baseline (untimed),
//! then replays each client's fixed stream once over the wire, so every
//! pass does the same work however many passes the run makes.
//!
//! The traced pass adds what only a wire workload has: the codec timed
//! on the pass's own messages, and `server.wire_ms`, each query's round
//! trip minus its time in an in-process replay of the same operations in
//! arrival order, from the same baseline. That replay also gives the
//! query-side layer split; the store counters come from the serving
//! tenant itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use laqy::{approx_query, LaqyService};
use laqy_engine::{Catalog, Table};
use laqy_server::protocol::{Request, Response};
use laqy_server::{Client, Server, ServerConfig, TenantState};
use laqy_workload::{generate, lineorder_batch, op_stream, q1_sql, MixConfig, Op};

use crate::check::Checks;
use crate::metrics::Metrics;
use crate::pipeline::{self, Layers};
use crate::stats::{mean, median, Outcome, Tally};
use crate::trace::Tracer;
use crate::workload::{drive, Config, Run, K};

/// Closed-loop clients, each on its own connection.
pub const CLIENTS: usize = 2;

/// The tenant every client shares.
const TENANT: &str = "bench";

/// Warm-up operations per client stream.
const WARM_OPS: usize = 256;

/// Operations per client per pass.
const PASS_OPS: usize = 128;

/// Queries re-sent and audited after the first pass.
const AUDITED: usize = 16;

/// Client socket timeout: a stall past it is an I/O error, never a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Request ids of the replay's spans start here, past every wire op's.
const REPLAY_REQ: u64 = 1 << 32;

struct Prepared {
    catalog: Catalog,
    mix: MixConfig,
    warm: Vec<Vec<Op>>,
    streams: Vec<Vec<Op>>,
}

fn prepare(cfg: &Config) -> Prepared {
    let ssb = cfg.ssb();
    let catalog = generate(&ssb);
    let mix = MixConfig::for_rows(ssb.lineorder_rows());
    let stream = |phase: u64, c: usize, len: usize| {
        op_stream(
            &mix,
            cfg.seed ^ (phase << 32) ^ ((c as u64 + 1) * 0x9E37_79B9),
            len,
        )
    };
    // Clients start their streams a fraction of the ingest period apart,
    // so their ingests do not all arrive in lockstep.
    let offset = |c: usize| c * mix.ingest_every / CLIENTS;
    let pass_stream = |c: usize| {
        let mut ops = stream(2, c, PASS_OPS);
        ops.rotate_left(offset(c));
        ops
    };
    Prepared {
        warm: (0..CLIENTS).map(|c| stream(1, c, WARM_OPS)).collect(),
        streams: (0..CLIENTS).map(pass_stream).collect(),
        catalog,
        mix,
    }
}

/// The tenant's state after warm-up, restored before every pass.
struct Baseline {
    table: Table,
    samples: Vec<u8>,
}

impl Baseline {
    fn capture(svc: &LaqyService) -> Baseline {
        let table = Table::clone(
            svc.catalog()
                .table("lineorder")
                .expect("lineorder is registered"),
        );
        Baseline {
            table,
            samples: svc.export_samples(),
        }
    }

    fn restore(&self, svc: &LaqyService) {
        svc.register_table(self.table.clone());
        svc.import_samples(&self.samples)
            .expect("a store the service exported imports again");
    }

    fn rows(&self) -> u64 {
        self.table.num_rows() as u64
    }
}

/// One sent operation, kept for the checks, the codec timing, and the
/// in-process replay.
struct Logged<'r> {
    req: u64,
    sent: Instant,
    rtt_ms: f64,
    request: &'r Request,
    response: Option<Response>,
}

/// A started server with its connected clients.
struct Served {
    server: Server,
    clients: Vec<Option<Client>>,
}

impl Served {
    fn start(p: &Prepared) -> Served {
        let server =
            Server::start(p.catalog.clone(), ServerConfig::default()).expect("start the server");
        let clients = (0..CLIENTS)
            .map(|_| Some(Client::connect(server.addr(), IO_TIMEOUT).expect("connect")))
            .collect();
        Served { server, clients }
    }

    fn tenant(&self) -> Arc<TenantState> {
        self.server
            .registry()
            .lookup(TENANT)
            .ok()
            .flatten()
            .expect("the bench tenant exists once served")
    }

    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Requests for one phase's streams. Ingests get row ids no other phase
/// or client uses, so `lo_intkey` stays unique.
fn requests(cfg: &Config, p: &Prepared, streams: &[Vec<Op>], phase: usize) -> Vec<Vec<Request>> {
    let ssb = cfg.ssb();
    let per_stream = PASS_OPS.max(WARM_OPS) / p.mix.ingest_every.max(1) + 1;
    streams
        .iter()
        .enumerate()
        .map(|(c, ops)| {
            let mut j = 0;
            ops.iter()
                .map(|op| match *op {
                    Op::Query { lo, hi } => Request::Query {
                        tenant: TENANT.to_string(),
                        sql: q1_sql(lo, hi),
                        k: K as u32,
                        timeout_ms: 0,
                    },
                    Op::Ingest { rows } => {
                        let slot = (phase * CLIENTS + c) * per_stream + j;
                        j += 1;
                        Request::Ingest {
                            tenant: TENANT.to_string(),
                            table: "lineorder".to_string(),
                            columns: lineorder_batch(
                                &ssb,
                                ssb.lineorder_rows() + slot * rows,
                                rows,
                            ),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Replay the pass's streams over the wire, both clients concurrently.
/// Returns the wall time and the operations in arrival order.
fn phase<'r>(
    served: &mut Served,
    reqs: &'r [Vec<Request>],
    tracer: &Tracer,
) -> (Duration, Vec<Logged<'r>>) {
    let addr = served.server.addr();
    let t0 = Instant::now();
    let logs: Vec<Vec<Logged<'r>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(reqs)
            .enumerate()
            .map(|(c, (client, reqs))| {
                scope.spawn(move || {
                    let mut log = Vec::with_capacity(reqs.len());
                    for (i, request) in reqs.iter().enumerate() {
                        let req = (c * PASS_OPS + i) as u64;
                        let root = tracer.enter(
                            if matches!(request, Request::Query { .. }) {
                                "op.query"
                            } else {
                                "op.ingest"
                            },
                            req,
                            None,
                        );
                        let parent = root.id();
                        let sent = Instant::now();
                        let (response, _) = tracer.time("server.round_trip", req, parent, || {
                            if client.is_none() {
                                *client = Client::connect(addr, IO_TIMEOUT).ok();
                            }
                            let r = client.as_mut().map(|cl| cl.request(request));
                            match r {
                                Some(Ok(resp)) => Some(resp),
                                _ => {
                                    // Reconnect for the next operation.
                                    *client = None;
                                    None
                                }
                            }
                        });
                        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
                        tracer.close(root);
                        log.push(Logged {
                            req,
                            sent,
                            rtt_ms,
                            request,
                            response,
                        });
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut merged: Vec<Logged<'r>> = logs.into_iter().flatten().collect();
    merged.sort_by_key(|l| l.sent);
    (wall, merged)
}

/// Account a pass's operations and check their outputs. Returns the
/// cumulative query round-trip time, seconds.
fn account(log: &[Logged], rows_before: u64, tally: &mut Tally, checks: &mut Checks) -> f64 {
    let mut query_ms = 0.0;
    let mut acks = Vec::new();
    let mut batch_rows = 0u64;
    for (i, l) in log.iter().enumerate() {
        let is_query = matches!(l.request, Request::Query { .. });
        match (&l.response, l.request) {
            (Some(Response::Answer(a)), _) => {
                checks.answer(
                    &format!("wire answer {i}"),
                    a.groups
                        .iter()
                        .flat_map(|g| g.values.iter().map(|v| (v.value, v.ci_half_width))),
                );
                query_ms += l.rtt_ms;
                tally.record(Outcome::Answer {
                    ms: l.rtt_ms,
                    degraded: a.degraded.is_some(),
                });
            }
            (Some(Response::IngestAck { watermark }), Request::Ingest { columns, .. }) => {
                let rows = columns.first().map_or(0, |(_, c)| c.len()) as u64;
                batch_rows = rows;
                acks.push(*watermark);
                tally.record(Outcome::Ingested { ms: l.rtt_ms, rows });
            }
            (other, _) => {
                if let Some(Response::Error { message, .. }) = other {
                    eprintln!("wire op {i} failed: {message}");
                }
                tally.record(if is_query {
                    Outcome::QueryFailed
                } else {
                    Outcome::IngestFailed
                });
            }
        }
    }
    // Concurrent clients interleave, so the acks of a pass must be
    // exactly the watermarks after 1, 2, ..., n batches.
    acks.sort_unstable();
    for (n, &w) in acks.iter().enumerate() {
        checks.watermark(
            &format!("wire ingest {n}"),
            rows_before + n as u64 * batch_rows,
            batch_rows,
            w,
        );
    }
    query_ms / 1e3
}

/// Re-send the first [`AUDITED`] queries of client 0's stream and audit
/// the answers against exact execution on the tenant's own service.
fn audit(served: &mut Served, p: &Prepared, checks: &mut Checks) {
    let tenant = served.tenant();
    let client = served.clients[0]
        .as_mut()
        .expect("client 0 is connected after a pass");
    let queries = p.streams[0].iter().filter_map(|op| match *op {
        Op::Query { lo, hi } => Some(q1_sql(lo, hi)),
        Op::Ingest { .. } => None,
    });
    for (i, sql) in queries.take(AUDITED).enumerate() {
        let request = Request::Query {
            tenant: TENANT.to_string(),
            sql: sql.clone(),
            k: K as u32,
            timeout_ms: 0,
        };
        let answer = match client.request(&request) {
            Ok(Response::Answer(a)) => a,
            other => {
                checks.fail(format!("audit {i}: no answer: {other:?}"));
                continue;
            }
        };
        let exact = {
            let catalog = tenant.service.catalog();
            approx_query(&catalog, &sql, K)
        }
        .and_then(|q| tenant.service.run_exact(&q));
        match exact {
            Ok((exact, _)) => {
                let rows: Vec<_> = answer
                    .groups
                    .iter()
                    .map(|g| (g.key.clone(), g.values[0].value, g.values[0].ci_half_width))
                    .collect();
                checks.audit(&format!("wire audit {i}"), &rows, &exact);
            }
            Err(e) => checks.fail(format!("audit {i}: exact run failed: {e}")),
        }
    }
}

/// The codec split of the traced pass: each message encoded and decoded
/// again from the benchmark, timed per operation.
fn codec(log: &[Logged], tracer: &Tracer, m: &mut Metrics) {
    let (mut enc, mut dec, mut req_kb, mut resp_kb) = (vec![], vec![], vec![], vec![]);
    for l in log {
        let Some(response) = &l.response else {
            continue;
        };
        let root = tracer.enter("codec", l.req, None);
        let parent = root.id();
        let ((rq, rs), e) = tracer.time("server.encode", l.req, parent, || {
            (l.request.encode(), response.encode())
        });
        let (decoded, d) = tracer.time("server.decode", l.req, parent, || {
            (Request::decode(&rq).is_ok(), Response::decode(&rs).is_ok())
        });
        tracer.close(root);
        assert!(
            decoded.0 && decoded.1,
            "a message the server handled must decode"
        );
        enc.push(e.as_secs_f64() * 1e6);
        dec.push(d.as_secs_f64() * 1e6);
        req_kb.push(rq.len() as f64 / 1e3);
        resp_kb.push(rs.len() as f64 / 1e3);
    }
    m.put("server.encode_us", median(&enc), "us");
    m.put("server.decode_us", median(&dec), "us");
    m.put("server.req_kb", mean(&req_kb), "KB");
    m.put("server.resp_kb", mean(&resp_kb), "KB");
}

/// Replay the traced pass in process, in arrival order, traced into
/// `layers`, on a fresh service restored to the baseline. Returns each
/// operation's time, ms.
fn replay(
    p: &Prepared,
    base: &Baseline,
    log: &[Logged],
    tracer: &Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Vec<Option<f64>> {
    let svc = LaqyService::with_config(
        p.catalog.clone(),
        laqy::SessionConfig {
            threads: ServerConfig::default().threads,
            ..laqy::SessionConfig::default()
        },
    );
    base.restore(&svc);
    log.iter()
        .map(|l| {
            let req = REPLAY_REQ + l.req;
            let mut tally = Tally::default();
            match l.request {
                Request::Query { sql, .. } => {
                    pipeline::query(&svc, sql, tracer, req, &mut tally, layers, checks)
                        .map(|a| a.ms)
                }
                Request::Ingest { columns, .. } => {
                    pipeline::ingest(&svc, columns, tracer, req, &mut tally, layers, checks);
                    tally.ingest_ms.first().copied()
                }
                _ => None,
            }
        })
        .collect()
}

/// The traced pass's wire-side split: the codec, the in-process replay
/// into `layers`, and the server's own counters.
fn split(
    served: &mut Served,
    p: &Prepared,
    base: &Baseline,
    log: &[Logged],
    tracer: &Tracer,
    run: &mut Run,
    layers: &mut Layers,
) {
    codec(log, tracer, &mut run.layers);
    let ingest_rtt: Vec<f64> = log
        .iter()
        .filter(|l| matches!(l.response, Some(Response::IngestAck { .. })))
        .map(|l| l.rtt_ms)
        .collect();
    let times = replay(p, base, log, tracer, layers, &mut run.checks);
    let wire: Vec<f64> = log
        .iter()
        .zip(&times)
        .filter(|(l, _)| matches!(l.response, Some(Response::Answer(_))))
        .filter_map(|(l, t)| t.map(|t| l.rtt_ms - t))
        .collect();
    let m = &mut run.layers;
    m.put("server.ingest_rtt_ms", median(&ingest_rtt), "ms");
    m.put("server.wire_ms", median(&wire), "ms");
    let stats = served.clients[0].as_mut().and_then(|c| {
        c.request(&Request::Stats {
            tenant: TENANT.to_string(),
        })
        .ok()
    });
    match stats {
        Some(Response::StatsReply(s)) => {
            m.put("server.sheds", s.shed as f64, "count");
            m.put("server.degraded", s.degraded as f64, "count");
            m.put("server.errors", s.errors as f64, "count");
        }
        other => run.checks.fail(format!("stats request: {other:?}")),
    }
}

/// Create the tenant and run the warm-up streams on its service,
/// interleaved.
fn warm_up(cfg: &Config, p: &Prepared, served: &Served, checks: &mut Checks) {
    let tenant = served
        .server
        .registry()
        .get_or_create(TENANT)
        .unwrap_or_else(|e| panic!("create the tenant: {}", e.message()));
    let off = Tracer::new(false);
    let (mut tally, mut layers) = (Tally::default(), Layers::default());
    let streams = requests(cfg, p, &p.warm, 0);
    for i in 0..WARM_OPS {
        for stream in &streams {
            let req = i as u64;
            match &stream[i] {
                Request::Query { sql, .. } => {
                    pipeline::query(
                        &tenant.service,
                        sql,
                        &off,
                        req,
                        &mut tally,
                        &mut layers,
                        checks,
                    );
                }
                Request::Ingest { columns, .. } => {
                    pipeline::ingest(
                        &tenant.service,
                        columns,
                        &off,
                        req,
                        &mut tally,
                        &mut layers,
                        checks,
                    );
                }
                _ => {}
            }
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::new(cfg.trace);
    let mut kept: Option<(Prepared, Served)> = None;
    for _ in 0..cfg.setups {
        if let Some((_, old)) = kept.take() {
            old.stop();
        }
        let t = Instant::now();
        let p = prepare(cfg);
        let served = Served::start(&p);
        warm_up(cfg, &p, &served, &mut run.checks);
        run.setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((p, served));
    }
    let (p, mut served) = kept.expect("at least one set-up");
    let base = Baseline::capture(&served.tenant().service);
    let reqs = requests(cfg, &p, &p.streams, 1);
    drive(cfg, &mut run, |tracer, run, layers, first| {
        let tenant = served.tenant();
        base.restore(&tenant.service);
        let before = tenant.service.stats();
        let (wall, log) = phase(&mut served, &reqs, tracer);
        let explore = account(&log, base.rows(), &mut run.tally, &mut run.checks);
        if first {
            audit(&mut served, &p, &mut run.checks);
        }
        if tracer.on() {
            layers.note_store(&before, &tenant.service.stats());
            layers.store_bytes = tenant.service.store().total_bytes() as f64;
            split(&mut served, &p, &base, &log, tracer, run, layers);
        }
        (wall, explore)
    });
    run.store_bytes = served.tenant().service.store().total_bytes() as f64;
    served.stop();
    run
}
