//! `perfbench` — gaugeNN's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study --seed 1402 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` times the workload's operation with tracing off and
//! prints the end-to-end metrics; `--trace 1` runs the traced staged
//! composition and prints the per-layer metrics derived from its spans
//! (written to `.bench_out/`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! check makes the exit code 1. `README.md` documents the workloads.

mod loadgen;
mod spans;
mod stats;
mod workloads;

use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
use spans::Tracer;
use std::time::{Duration, Instant};
use workloads::{BenchResult, Variant, Workload};

/// Environment variables that would change what the program does
/// (crash points, persistent caches, journals, on-disk indexes). The
/// benchmark refuses to run under any of them rather than measure a
/// different program.
const REFUSED_ENV: [&str; 6] = [
    "GAUGENN_CRASH",
    "GAUGENN_CRASH_MODE",
    "GAUGENN_CACHE_DIR",
    "GAUGENN_CACHE_MAX_BYTES",
    "GAUGENN_JOURNAL_DIR",
    "GAUGENN_INDEX_DIR",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: CorpusScale,
}

const USAGE: &str = "usage: perfbench --workload study|chaos-crawl|reanalyse|query \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale tiny|small]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Study,
        seed: 1402,
        seconds: 15.0,
        trace: false,
        scale: CorpusScale::Small,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "tiny" => CorpusScale::Tiny,
                    "small" => CorpusScale::Small,
                    v => return Err(format!("--scale takes tiny or small, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output-check ledger: operations attempted, operations failed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-op measurements of one run.
struct Ops {
    /// Wall time of each op, seconds.
    wall: Vec<f64>,
    /// VmHWM after the first [`workloads::MIN_OPS`] ops: a fixed amount
    /// of work, so the figure does not grow with how many ops fit.
    peak_rss_mb: f64,
}

/// Run `op` until `seconds` are spent (never starting one predicted to
/// end past the deadline) and at least [`workloads::MIN_OPS`] times.
/// `op` is given its index.
fn timed_ops(seconds: f64, mut op: impl FnMut(usize) -> BenchResult<Duration>) -> BenchResult<Ops> {
    let start = Instant::now();
    let mut ops = Ops {
        wall: Vec::new(),
        peak_rss_mb: 0.0,
    };
    loop {
        let spent = start.elapsed().as_secs_f64();
        let next = ops.wall.last().copied().unwrap_or(0.0);
        if ops.wall.len() >= workloads::MIN_OPS && spent + next > seconds {
            return Ok(ops);
        }
        ops.wall.push(op(ops.wall.len())?.as_secs_f64());
        if ops.wall.len() == workloads::MIN_OPS {
            ops.peak_rss_mb = peak_rss_mb();
        }
    }
}

/// Run `setup` [`workloads::SETUPS`] times, keeping the last result;
/// returns it with the median set-up time in seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> BenchResult<T>) -> BenchResult<(T, f64)> {
    let mut walls = Vec::new();
    let mut kept = None;
    for _ in 0..workloads::SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup()?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS > 0"), stats::median(&walls)))
}

/// The untraced run: set up, then time the workload's operation.
fn end_to_end(args: &Args, ledger: &mut Ledger) -> BenchResult<Vec<Metric>> {
    let scale = args.scale;
    let (setup_s, ops) = match args.workload {
        Workload::Study => {
            // Nothing of the study happens before its timer starts; the
            // set-up is a Tiny-scale warm-up study, so lazy process state
            // (allocator arenas, first-touch page faults) is paid first.
            let (_, setup_s) = timed_setup(|| workloads::study_once(CorpusScale::Tiny))?;
            let mut first: Option<String> = None;
            let ops = timed_ops(args.seconds, |_| {
                let t0 = Instant::now();
                let tables = workloads::study_once(scale)?;
                let wall = t0.elapsed();
                let same = first.get_or_insert_with(|| tables.clone()) == &tables;
                ledger.check(same, "study tables differ between repetitions");
                Ok(wall)
            })?;
            eprintln!(
                "perfbench: study tables crc32 {:08x}",
                gaugenn_apk::crc32::crc32(first.unwrap_or_default().as_bytes())
            );
            (setup_s, ops)
        }
        Workload::ChaosCrawl => {
            let ((corpus, reference), setup_s) = timed_setup(|| {
                let corpus = generate(scale, Snapshot::Y2021, workloads::CORPUS_SEED);
                let clean = workloads::clean_crawl(scale, Snapshot::Y2021)?;
                Ok((corpus, workloads::corpus_digest(&clean.outcome.apps)))
            })?;
            let ops = timed_ops(args.seconds, |i| {
                let plan_seed = workloads::sweep_plan_seed(args.seed, i);
                let (pooled, wall) = workloads::chaos_sweep(&corpus, plan_seed)?;
                let s = &pooled.outcome.stats;
                ledger.check(
                    workloads::corpus_digest(&pooled.outcome.apps) == reference,
                    "chaos crawl bytes differ from the fault-free crawl",
                );
                ledger.check(
                    pooled.outcome.dropouts.is_empty(),
                    "chaos crawl dropped apps",
                );
                ledger.check(s.retries > 0, "the fault plan injected no faults");
                Ok(wall)
            })?;
            (setup_s, ops)
        }
        Workload::Reanalyse => {
            let (crawled, setup_s) =
                timed_setup(|| Ok(workloads::clean_crawl(scale, Snapshot::Y2021)?.outcome.apps))?;
            let mut first: Option<Vec<String>> = None;
            let ops = timed_ops(args.seconds, |_| {
                let t0 = Instant::now();
                let (out, index) = workloads::analyse_pass(&crawled)?;
                let wall = t0.elapsed();
                std::hint::black_box(index);
                let sums = workloads::checksums(&out);
                let same = first.get_or_insert_with(|| sums.clone()) == &sums;
                ledger.check(same, "model checksums differ between passes");
                Ok(wall)
            })?;
            // The first pass runs cold and is slower; report it beside
            // the median rather than let the median hide it.
            eprintln!(
                "perfbench: reanalyse first pass {:.1} ms, median {:.1} ms over {} passes",
                ops.wall[0] * 1e3,
                stats::median(&ops.wall) * 1e3,
                ops.wall.len()
            );
            (setup_s, ops)
        }
        Workload::Query => {
            let (mut store, setup_s) = timed_setup(|| workloads::query_store(scale))?;
            let queries = loadgen::stream(args.seed, workloads::QUERY_BATCH);
            let mut first: Option<u32> = None;
            let ops = timed_ops(args.seconds, |_| {
                let r = loadgen::lockstep(
                    &mut store,
                    &queries,
                    workloads::QUERY_CONNECTIONS,
                    args.seed,
                )?;
                ledger.attempted += queries.len() as u64;
                ledger.failed += r.failed as u64;
                let same = *first.get_or_insert(r.digest) == r.digest;
                ledger.check(same, "query response digest differs between batches");
                Ok(r.wall)
            })?;
            let qps = queries.len() as f64 / stats::median(&ops.wall);
            eprintln!(
                "perfbench: query digest {:08x}, closed-loop {qps:.0} qps over {} batches of {}",
                first.unwrap_or(0),
                ops.wall.len(),
                queries.len()
            );
            (setup_s, ops)
        }
    };
    ledger.attempted += ops.wall.len() as u64;
    // The fastest op is `op_s`: contention from other tenants of a
    // shared host only ever adds time, in phases that outlast single
    // ops (README.md, "Why the fastest op").
    let sorted = stats::sorted(&ops.wall);
    let op_s = sorted[0];
    let spread = stats::quartiles(&sorted).map_or(0.0, |q| (q[2] - q[0]) / q[1]);
    eprintln!(
        "perfbench: {} op_s (fastest) {:.4} s, median {:.4} s, over {} ops, quartile spread {:.1} % of the median: {:?}",
        args.workload.name(),
        op_s,
        stats::median(&sorted),
        ops.wall.len(),
        spread * 100.0,
        ops.wall
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("op_s", op_s, "s"),
        metric("peak_rss_mb", ops.peak_rss_mb, "MB"),
    ])
}

/// The traced run: the staged study with the workload's variant in
/// place, the corpus build, the leaf pass, the no-socket index replay
/// and the load generator, each call in its own span.
fn traced(args: &Args, ledger: &mut Ledger) -> BenchResult<Vec<Metric>> {
    let scale = args.scale;
    let variant = match args.workload {
        Workload::ChaosCrawl => Variant::Chaos(workloads::sweep_plan_seed(args.seed, 0)),
        Workload::Reanalyse => Variant::Reanalyse,
        Workload::Study | Workload::Query => Variant::Clean,
    };
    // The program's own path first: it is the reference the composition
    // must reproduce, and it warms the process for the two timed runs.
    let reference = workloads::study_once(scale)?;
    let (plain, _) = workloads::composed_study(&mut Tracer::new(false, 0), scale, variant)?;
    let mut tr = Tracer::new(true, u64::from(std::process::id()));
    let (composed, s2021) = workloads::composed_study(&mut tr, scale, variant)?;
    // A chaos crawl legitimately differs in its retry counters, which
    // the tables print on one `crawl:` line; everything else must match.
    let strip = |t: &str| -> String {
        t.lines()
            .filter(|l| !(matches!(variant, Variant::Chaos(_)) && l.starts_with("crawl: ")))
            .collect::<Vec<_>>()
            .join("\n")
    };
    ledger.check(
        strip(&composed.tables) == strip(&reference),
        "traced composition renders different tables from Pipeline::run",
    );
    ledger.check(
        plain.tables == composed.tables,
        "traced and untraced compositions render different tables",
    );
    ledger.check(
        s2021.report.dropouts.is_empty(),
        "the composed Apr 2021 crawl dropped apps",
    );

    let corpus = generate(scale, Snapshot::Y2021, workloads::CORPUS_SEED);
    workloads::build_bodies(&mut tr, &corpus);
    workloads::leaf_pass(&mut tr, &s2021.crawled)?;
    let index = s2021.report.corpus_index.clone();
    let queries = loadgen::stream(args.seed, workloads::INDEX_REPLAY);
    let direct = workloads::index_replay(&mut tr, &index, &queries);
    let (closed, open) =
        workloads::serve_queries(&mut tr, scale, index.clone(), &queries, args.seed)?;
    ledger.check(
        closed.digest == direct,
        "socket and no-socket query replays differ",
    );
    let mut store = workloads::lockstep_store(scale, index.clone());
    let stepped = tr.span("loadgen.lockstep", |_| {
        loadgen::lockstep(
            &mut store,
            &queries,
            workloads::QUERY_CONNECTIONS,
            args.seed,
        )
    })?;
    ledger.check(
        stepped.digest == direct,
        "lockstep and no-socket query replays differ",
    );
    ledger.attempted += queries.len() as u64;
    ledger.failed += stepped.failed as u64;
    for r in [&closed, &open] {
        ledger.attempted += r.latencies_us.len() as u64;
        ledger.failed += r.failed as u64;
    }

    let out_dir = std::path::Path::new(".bench_out");
    let path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tr.write_jsonl(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );

    let ms = |name: &str| tr.self_ms(name);
    let c = |name: &str| tr.counted(name);
    let p = |name: &str, pct: f64| stats::capped_percentile(&tr.durations_us(name), pct);
    const MIB: f64 = 1024.0 * 1024.0;
    let crawl_ms = ms("pool.crawl_at");
    let sweeps = c("pool.sweeps").max(1.0);
    let md5_ms = ms("md5.model");
    let open_p = |pct: f64| stats::capped_percentile(&open.latencies_us, pct);
    let late_p99 = stats::capped_percentile(&open.late_us, 99.0);
    for (what, n) in [
        ("extract.app", tr.durations_us("extract.app").len()),
        ("index.query", tr.durations_us("index.query").len()),
        ("loadgen.open", open.latencies_us.len()),
    ] {
        let used = stats::capped(n, 99.0);
        eprintln!("perfbench: {what}: {n} samples, p99 metrics reported at p{used}");
    }
    Ok(vec![
        metric("corpus.generate_ms", ms("corpus.generate"), "ms"),
        metric("corpus.build_ms", ms("corpus.build"), "ms"),
        metric("corpus.build_mib", c("corpus.build_bytes") / MIB, "MiB"),
        metric(
            "server.requests_served",
            c("server.requests_served"),
            "count",
        ),
        metric(
            "server.served_per_attempt",
            c("server.requests_served") / c("client.requests").max(1.0),
            "ratio",
        ),
        metric("pool.crawl_ms", crawl_ms, "ms"),
        metric("pool.requests", c("pool.requests"), "count"),
        metric("pool.mib", c("pool.bytes") / MIB, "MiB"),
        metric(
            "pool.mib_per_s",
            c("pool.bytes") / MIB / (crawl_ms / 1e3),
            "MiB/s",
        ),
        metric(
            "pool.apps_per_request",
            c("pool.apps") / c("pool.requests").max(1.0),
            "ratio",
        ),
        metric("pool.retries", c("pool.retries"), "count"),
        metric("pool.reconnects", c("pool.reconnects"), "count"),
        metric("pool.range_resumes", c("pool.range_resumes"), "count"),
        metric("pool.dropouts", c("pool.dropouts"), "count"),
        metric(
            "pool.worker_bytes_skew",
            c("pool.skew_sum") / sweeps,
            "ratio",
        ),
        metric("pool.peak_in_flight", c("pool.peak_sum") / sweeps, "count"),
        metric("admission.throttled", c("admission.throttled"), "count"),
        metric("admission.rejections", c("admission.rejections"), "count"),
        metric(
            "admission.breaker_opens",
            c("admission.breaker_opens"),
            "count",
        ),
        metric("analyze.wall_ms", ms("analyze.analyse"), "ms"),
        metric("analyze.first_pass_ms", c("analyze.first_pass_ms"), "ms"),
        metric("analyze.instances", c("analyze.instances"), "count"),
        metric(
            "analyze.cache_hit_ratio",
            c("analyze.cache_hits") / c("analyze.instances").max(1.0),
            "ratio",
        ),
        metric(
            "analyze.unique_analysed",
            c("analyze.unique_analysed"),
            "count",
        ),
        metric(
            "analyze.failed_candidates",
            c("analyze.failed_candidates"),
            "count",
        ),
        metric(
            "analyze.extract_busy_ms",
            c("analyze.extract_busy_ms"),
            "ms",
        ),
        metric(
            "analyze.checksum_busy_ms",
            c("analyze.checksum_busy_ms"),
            "ms",
        ),
        metric("analyze.decode_busy_ms", c("analyze.decode_busy_ms"), "ms"),
        metric("analyze.trace_busy_ms", c("analyze.trace_busy_ms"), "ms"),
        metric("extract.ms", ms("extract.app"), "ms"),
        metric("extract.app_p50_us", p("extract.app", 50.0), "us"),
        metric("extract.app_p99_us", p("extract.app", 99.0), "us"),
        metric("md5.ms", md5_ms, "ms"),
        metric(
            "md5.mib_per_s",
            c("md5.bytes") / MIB / (md5_ms / 1e3),
            "MiB/s",
        ),
        metric("decode.ms", ms("decode.model"), "ms"),
        metric("trace.ms", ms("trace.model"), "ms"),
        metric("indexer.ingest_ms", ms("indexer.ingest"), "ms"),
        metric("index.models", index.model_count() as f64, "count"),
        metric("index.apps", index.app_count() as f64, "count"),
        metric("index.query_p50_us", p("index.query", 50.0), "us"),
        metric("index.query_p99_us", p("index.query", 99.0), "us"),
        metric("wire.render_p50_us", p("wire.render", 50.0), "us"),
        metric("experiments.offline_ms", ms("experiments.offline"), "ms"),
        metric("experiments.runtime_ms", ms("experiments.runtime"), "ms"),
        metric("experiments.backends_ms", ms("experiments.backends"), "ms"),
        metric(
            "experiments.extension_ms",
            ms("experiments.extension"),
            "ms",
        ),
        metric("loadgen.closed_qps", closed.qps(), "1/s"),
        metric("loadgen.open_p50_us", open_p(50.0), "us"),
        metric("loadgen.open_p99_us", open_p(99.0), "us"),
        metric("loadgen.late_p99_us", late_p99, "us"),
        metric("loadgen.sent", open.latencies_us.len() as f64, "count"),
        metric(
            "tracing.overhead_ms",
            (composed.study.as_secs_f64() - plain.study.as_secs_f64()) * 1e3,
            "ms",
        ),
        metric("tracing.spans", tr.spans().len() as f64, "count"),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ambient: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !ambient.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", ambient.join(", "));
        std::process::exit(2);
    }

    let mut ledger = Ledger::default();
    let result = if args.trace {
        traced(&args, &mut ledger)
    } else {
        end_to_end(&args, &mut ledger)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let correct = ledger.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
