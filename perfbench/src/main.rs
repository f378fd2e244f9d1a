//! The repository benchmark: one command, three workloads, every
//! end-to-end metric with its unit, and a separate traced run that
//! splits the same work by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_zipf|explore_q1|ingest_recent> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed`, and `metrics`. The command exits
//! nonzero when an output check fails. See `perfbench/NOTES.md` for what
//! each metric means and which layer metric should move which
//! end-to-end metric.

mod check;
mod explore_q1;
mod ingest_recent;
mod metrics;
mod pipeline;
mod serve_zipf;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;

use metrics::{result_line, Metrics};
use stats::{median, percentile, samples_for, summarize};
use workload::{Config, Run};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [&str; 10] = [
    "query_p50_ms",
    "query_p99_ms",
    "answers_per_s",
    "explore_s",
    "ingest_p50_ms",
    "ingest_rows_per_s",
    "good_ratio",
    "group_rel_err_p50",
    "store_mb",
    "setup_s",
];

/// Wire-only layer metrics; zero on the in-process workloads.
const SERVER_LAYER: [&str; 9] = [
    "server.wire_ms",
    "server.ingest_rtt_ms",
    "server.encode_us",
    "server.decode_us",
    "server.req_kb",
    "server.resp_kb",
    "server.sheds",
    "server.degraded",
    "server.errors",
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [&str; 42] = [
    "server.wire_ms",
    "server.ingest_rtt_ms",
    "server.encode_us",
    "server.decode_us",
    "server.req_kb",
    "server.resp_kb",
    "server.sheds",
    "server.degraded",
    "server.errors",
    "sql.plan_us",
    "service.full_n",
    "service.partial_n",
    "service.online_n",
    "service.full_ms",
    "service.partial_ms",
    "service.online_ms",
    "store.plan_ms",
    "store.full_hit_ratio",
    "store.full_hit_base",
    "store.fragments_reused",
    "store.fragments_scanned",
    "store.lock_wait_ms",
    "store.merge_retries",
    "store.absorbed_rows",
    "store.absorbed_samples",
    "store.bytes",
    "sampling.build_ms",
    "sampling.input_rows",
    "sampling.merge_ms",
    "estimate.ms",
    "decode.ms",
    "engine.scan_ms",
    "engine.scanned_rows",
    "engine.morsels_scanned",
    "engine.morsels_skipped",
    "engine.append_ms",
    "ingest.ms",
    "ingest.other_ms",
    "failed_ratio",
    "degraded_ratio",
    "trace.overhead_ratio",
    "trace.unattributed_ms",
];

/// SSB scale factor: 300 000 `lineorder` rows.
const SCALE: f64 = 0.05;

/// Set-ups per run; `setup_s` is their median. An in-process set-up
/// takes tens of ms, and its first few run up to twice as slow as the
/// rest while the allocator settles, so the median is taken over enough
/// of them to fall well past that; the server's includes a warm-up of
/// seconds.
fn setups(workload: &str) -> usize {
    if workload == "serve_zipf" {
        3
    } else {
        25
    }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_zipf", "explore_q1", "ingest_recent"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    cfg: Config,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), |d| d.to_path_buf())
        .join("perfbench-out");
    Ok(Args {
        cfg: Config {
            setups: setups(&workload),
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: SCALE,
            min_queries: samples_for(99.0),
            min_passes: workload::MIN_PASSES,
            out_dir,
        },
        workload,
    })
}

/// Run one workload by name.
pub fn run_workload(name: &str, cfg: &Config) -> Run {
    match name {
        "serve_zipf" => serve_zipf::run(cfg),
        "explore_q1" => explore_q1::run(cfg),
        "ingest_recent" => ingest_recent::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The end-to-end metrics of an untraced run, with a printed line per
/// latency summary giving its sample count.
fn end_to_end(run: &mut Run) -> Metrics {
    let mut m = Metrics::default();
    let t = &run.tally;
    match summarize(&t.query_ms) {
        Some(s) => {
            println!(
                "queries: p50 {:.3} ms (pooled), p{} {:.3} ms over {} samples",
                s.p50, s.tail_level, s.tail, s.count
            );
            m.put("query_p50_ms", median(&run.pass_p50_ms), "ms");
            // Passes that each hold a p99 of their own report the median
            // of those, which rejects a pass slowed from outside.
            let per_pass: Option<Vec<f64>> = run.pass_p99_ms.iter().copied().collect();
            let p99 = match per_pass {
                Some(v) if !v.is_empty() => {
                    println!("p99 per pass: {v:.3?} ms");
                    median(&v)
                }
                _ => s.tail,
            };
            m.put("query_p99_ms", p99, "ms");
        }
        None => run
            .checks
            .fail(format!("only {} query samples", t.query_ms.len())),
    }
    let mut ingest = t.ingest_ms.clone();
    ingest.sort_by(f64::total_cmp);
    if ingest.is_empty() {
        run.checks.fail("no ingest was measured".to_string());
    } else {
        println!(
            "ingests: p50 {:.3} ms over {} samples",
            percentile(&ingest, 50.0),
            ingest.len()
        );
        m.put("ingest_p50_ms", percentile(&ingest, 50.0), "ms");
    }
    m.put("ingest_rows_per_s", t.ingest_rows_per_s(), "1/s");
    m.put("answers_per_s", median(&run.pass_answers_per_s), "1/s");
    m.put("explore_s", median(&run.explore_s), "s");
    m.put("good_ratio", t.good_ratio(), "ratio");
    let err = run.checks.finish_audit();
    let c = &run.checks;
    println!(
        "audit: {} answers, {} groups, median relative error {err:.5}, exact value inside the CI for {:.4} of groups",
        c.audited,
        c.rel_errs.len(),
        c.covered as f64 / c.rel_errs.len().max(1) as f64
    );
    m.put("group_rel_err_p50", err, "ratio");
    m.put("store_mb", run.store_bytes / 1e6, "MB");
    println!("set-ups: {:.4?} s", run.setup_s);
    m.put("setup_s", median(&run.setup_s), "s");
    println!(
        "ops: {} attempted, {} failed ({:.4}), {} answers, {} degraded ({:.4}); {} passes in {:.3} s",
        t.attempted,
        t.failed,
        t.failed_ratio(),
        t.answers,
        t.degraded,
        t.degraded_ratio(),
        run.explore_s.len(),
        run.measured.as_secs_f64()
    );
    m
}

/// The per-layer metrics of a traced run, with the self-time table
/// printed above them.
fn per_layer(run: &mut Run, wire: bool) -> Metrics {
    let spans = run.tracer.spans();
    let selfs = trace::self_times(&spans);
    println!("self time by span (ms per span, spans):");
    for (name, (total, n)) in &selfs {
        println!("  {name:<16} {:>10.4} {n:>8}", total / *n as f64);
    }
    let mut m = std::mem::take(&mut run.layers);
    if !wire {
        for n in SERVER_LAYER {
            m.put(
                n,
                0.0,
                if n.ends_with("_kb") {
                    "KB"
                } else if n.ends_with("_us") {
                    "us"
                } else if n.ends_with("_ms") {
                    "ms"
                } else {
                    "count"
                },
            );
        }
    }
    let (roots, root_ms) = ["op.query", "op.ingest"]
        .iter()
        .filter_map(|n| selfs.get(n))
        .fold((0u64, 0.0), |(n, ms), &(t, c)| (n + c, ms + t));
    m.put("trace.unattributed_ms", root_ms / roots.max(1) as f64, "ms");
    let t = &run.tally;
    m.put("failed_ratio", t.failed_ratio(), "ratio");
    m.put("degraded_ratio", t.degraded_ratio(), "ratio");
    m
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, cfg } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut run = run_workload(&workload, &cfg);
    let metrics = if cfg.trace {
        per_layer(&mut run, workload == "serve_zipf")
    } else {
        end_to_end(&mut run)
    };
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => run.checks.fail(format!("writing {}: {e}", path.display())),
        }
    }
    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let selected = match metrics.select(names) {
        Ok(m) => m,
        Err(e) => {
            run.checks.fail(e);
            metrics.select(&[]).expect("empty selection")
        }
    };
    for f in run.checks.failures().iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let correct = run.checks.ok();
    println!(
        "{}",
        result_line(
            correct,
            run.tally.attempted.max(1),
            run.tally.failed,
            &selected
        )
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Config {
        Config {
            seed: 7,
            seconds: 0.0,
            trace,
            scale: 0.002,
            setups: 1,
            min_queries: 20,
            min_passes: 2,
            out_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
        }
    }

    /// Every metric is declared in `BENCHMARK.json` with the unit the
    /// benchmark prints it in.
    fn assert_declared(m: &Metrics) {
        let json = include_str!("../../BENCHMARK.json");
        for (n, u) in m.units() {
            let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "{n} [{u}] is not declared");
        }
    }

    /// Every workload runs at a tiny scale, passes its checks, and
    /// reports every metric of both kinds, as declared.
    #[test]
    fn smoke_every_workload() {
        for w in WORKLOADS {
            let mut run = run_workload(w, &tiny(false));
            let m = end_to_end(&mut run);
            assert!(run.checks.ok(), "{w}: {:?}", run.checks.failures());
            assert!(run.tally.attempted > 0 && run.tally.failed == 0, "{w}");
            let e2e = m.select(&END_TO_END).expect("every end-to-end metric");
            for n in END_TO_END {
                let v = e2e.get(n).expect("selected");
                // At this scale every stratum fits in its reservoir, so
                // answers can be exact.
                let floor = if n == "group_rel_err_p50" {
                    0.0
                } else {
                    f64::MIN_POSITIVE
                };
                assert!(v.is_finite() && v >= floor, "{w}: {n} = {v}");
            }
            let mut traced = run_workload(w, &tiny(true));
            let layers = per_layer(&mut traced, w == "serve_zipf");
            assert!(traced.checks.ok(), "{w}: {:?}", traced.checks.failures());
            assert_declared(&e2e);
            assert_declared(&layers.select(&PER_LAYER).expect("every per-layer metric"));
            assert!(!traced.tracer.spans().is_empty(), "{w}: no spans");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(&args(
            "--workload explore_q1 --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert!(ok.cfg.trace && ok.cfg.seed == 3 && ok.cfg.min_queries == 1000);
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args(
            "--workload explore_q1 --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&args("--workload explore_q1 --seconds 10 --trace 0")).is_err());
    }
}
