//! `analyzebench` — worker-count, scheduling-mode and cache scaling for
//! the offline analysis pool.
//!
//! ```sh
//! cargo run --release -p gaugenn-bench --bin analyzebench            # small corpus
//! cargo run --release -p gaugenn-bench --bin analyzebench -- --scale tiny
//! ```
//!
//! Crawls one snapshot once, then analyses it several ways: sequentially
//! with the content-addressed cache disabled (every instance pays the
//! full decode + trace — the pre-cache behaviour for duplicated and
//! undecodable models), through [`AnalysisPool`]s of 1/2/4/8 workers
//! with the cache on, across the three scheduling modes (static shards,
//! deterministic LPT, planned stealing) at a fixed worker count, and
//! finally cold vs warm against a persistent on-disk [`CacheStore`].
//! Every run must produce the identical model list; wall time, speedup
//! over the uncached baseline, cache hit rate, planned byte imbalance
//! and persistent hit rate are printed. EXPERIMENTS.md and
//! `results/BENCH_sched.json` record a captured run.
//!
//! [`CacheStore`]: gaugenn_core::cachestore::CacheStore

use gaugenn_bench::cli::{self, ArgSpec};
use gaugenn_core::analyze::{AnalysisConfig, AnalysisPool};
use gaugenn_playstore::corpus::{generate, Snapshot};
use gaugenn_playstore::crawler::Crawler;
use gaugenn_playstore::server::StoreServer;
use gaugenn_sched::{assign, imbalance, SchedMode, WorkUnit};
use gaugenn_bench::stats::Stopwatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::parse_or_exit(&ArgSpec::new(
        "analyzebench",
        "worker-count, scheduling-mode and cache scaling for the analysis pool",
    ));
    let (scale, seed) = (args.scale, args.seed);

    let server = StoreServer::start(generate(scale, Snapshot::Y2021, seed))?;
    let mut crawler = Crawler::builder_at(server.endpoint()).build()?;
    let crawled = crawler.crawl_all()?.apps;

    println!(
        "analysis pool scaling — scale {scale:?}, seed {seed}, {} apps, host cores: {}",
        crawled.len(),
        cores()
    );

    let t0 = Stopwatch::start();
    let baseline = AnalysisPool::new(AnalysisConfig {
        workers: 1,
        dedup_cache: false,
        ..AnalysisConfig::default()
    })
    .analyse(&crawled)?;
    let t_base = t0.elapsed();
    let sums: Vec<&str> = baseline.models.iter().map(|m| m.checksum.as_str()).collect();
    println!(
        "  sequential, no cache: {:>8.1} ms  ({} instances, {} unique models)",
        t_base.as_secs_f64() * 1e3,
        baseline.instances.len(),
        baseline.models.len()
    );

    for workers in [1usize, 2, 4, 8] {
        let t = Stopwatch::start();
        let out = AnalysisPool::new(AnalysisConfig::with_workers(workers)).analyse(&crawled)?;
        let dt = t.elapsed();
        let got: Vec<&str> = out.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(got, sums, "pool must merge to the sequential model list");
        println!(
            "  {workers} worker(s), cached:  {:>8.1} ms  (speedup {:.2}x, hit rate {:.1}%)",
            dt.as_secs_f64() * 1e3,
            t_base.as_secs_f64() / dt.as_secs_f64(),
            out.stats.cache_hit_rate() * 100.0
        );
    }

    // Scheduling-mode comparison at a fixed worker count. Wall time is
    // noisy on small/1-core hosts, so the planned byte imbalance over the
    // app containers (max shard bytes / mean shard bytes) is printed too
    // — that is the quantity LPT actually optimises.
    let sched_workers = 4usize;
    let app_units: Vec<WorkUnit> = crawled
        .iter()
        .enumerate()
        .map(|(i, a)| WorkUnit {
            index: i,
            size: a.apk.len() as u64
                + a.obbs.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
                + a.bundle.as_ref().map_or(0, |b| b.len() as u64),
        })
        .collect();
    println!("  scheduling modes at {sched_workers} workers:");
    for mode in [SchedMode::Static, SchedMode::Lpt, SchedMode::Stealing] {
        let plan = assign(&app_units, sched_workers, mode, seed);
        let t = Stopwatch::start();
        let out = AnalysisPool::new(AnalysisConfig {
            workers: sched_workers,
            sched: mode,
            sched_seed: seed,
            ..AnalysisConfig::default()
        })
        .analyse(&crawled)?;
        let dt = t.elapsed();
        let got: Vec<&str> = out.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(got, sums, "every mode must merge to the same model list");
        println!(
            "    {:<8}  {:>8.1} ms  (planned byte imbalance {:.2})",
            mode.name(),
            dt.as_secs_f64() * 1e3,
            imbalance(&app_units, &plan)
        );
    }

    // Cold vs warm persistent cache: the first run against an empty
    // directory persists every unique analysis; the second attaches to
    // them and skips the trace entirely.
    let dir = std::env::temp_dir().join(format!("gaugenn-analyzebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("  persistent cache at {sched_workers} workers:");
    for label in ["cold", "warm"] {
        let t = Stopwatch::start();
        let out = AnalysisPool::new(AnalysisConfig {
            workers: sched_workers,
            cache_dir: Some(dir.clone()),
            ..AnalysisConfig::default()
        })
        .analyse(&crawled)?;
        let dt = t.elapsed();
        let got: Vec<&str> = out.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(got, sums, "cache state must never change the model list");
        println!(
            "    {label:<5}  {:>8.1} ms  ({} disk hits / {} stored, {:.1}% of uniques warm)",
            dt.as_secs_f64() * 1e3,
            out.stats.persistent_hits,
            out.stats.persistent_stores,
            out.stats.persistent_hit_rate() * 100.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
