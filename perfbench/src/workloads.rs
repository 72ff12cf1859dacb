//! The four workloads: what each sets up, what one timed operation is,
//! and how each output is checked. `README.md` says why each exists.
//!
//! Every input that changes behaviour is pinned here, explicitly:
//! corpus scale and seed, worker and connection counts, the pool
//! scheduling mode and the reactor. None of them is left to a default
//! that reads the environment.

use crate::loadgen::{self, Pacing};
use crate::spans::Tracer;
use gaugenn_apk::crc32::crc32;
use gaugenn_core::analyze::{AnalysisConfig, AnalysisOutput, AnalysisPool};
use gaugenn_core::experiments::{ablations, backends, cohab, offline, offload, runtime, whatif};
use gaugenn_core::indexer;
use gaugenn_core::pipeline::{DatasetSummary, Pipeline, PipelineConfig, PipelineReport};
use gaugenn_index::CorpusIndex;
use gaugenn_playstore::chaos::{FaultKind, FaultPlan, FaultPlanConfig};
use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot, StoreCorpus};
use gaugenn_playstore::crawler::{CrawledApp, Crawler, CrawlerConfig, RetryPolicy};
use gaugenn_playstore::pool::{CrawlPool, CrawlPoolConfig, PoolOutcome};
use gaugenn_playstore::reactor::ReactorMode;
use gaugenn_playstore::route::Route;
use gaugenn_playstore::server::{LockstepServer, ServerOptions, StoreServer};
use gaugenn_sched::SchedMode;
use gaugenn_soc::spec::all_devices;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boxed error: the benchmark reports every failure the same way.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Corpus seed of every workload: the paper study's. `--seed` varies
/// the fault schedule and the query stream instead, because corpus
/// content alone moves op times by about 15 % from seed to seed at
/// Small scale, which would bury the bounds.
pub const CORPUS_SEED: u64 = 1402;
/// Crawl and analysis workers (= cores of the 2-core reference box).
pub const WORKERS: usize = 2;
/// Store connections per crawl worker.
pub const CONNECTIONS_PER_WORKER: usize = 1;
/// Serving loop and client transport.
pub const REACTOR: ReactorMode = ReactorMode::Epoll;
/// Work partitioning of both pools.
pub const SCHED: SchedMode = SchedMode::Lpt;
/// Query connections: lanes of the lockstep batches, and blocking
/// connections (one per core) of the traced run's load generator.
pub const QUERY_CONNECTIONS: usize = 2;
/// Queries in one timed closed-loop batch.
pub const QUERY_BATCH: usize = 8192;
/// Offered rate of the open loop, queries per second: about half the
/// closed-loop rate on the reference box (see README.md).
pub const OPEN_RATE: f64 = 4000.0;
/// Queries the open loop offers (two seconds at [`OPEN_RATE`]).
pub const OPEN_QUERIES: usize = 8_000;
/// Queries the no-socket index replay of the traced run issues.
pub const INDEX_REPLAY: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed operations per run, whatever `--seconds` says.
pub const MIN_OPS: usize = 3;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full two-snapshot study, clean store.
    Study,
    /// Apr 2021 crawl sweeps under a seeded fault plan.
    ChaosCrawl,
    /// Analysis + ingest passes over one crawled corpus.
    Reanalyse,
    /// Closed-loop `/query/*` batches against the corpus index.
    Query,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Study,
        Workload::ChaosCrawl,
        Workload::Reanalyse,
        Workload::Query,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::ChaosCrawl => "chaos-crawl",
            Workload::Reanalyse => "reanalyse",
            Workload::Query => "query",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fault-plan seed of sweep `i` of a run seeded `seed`. Each sweep draws
/// its own schedule: how much a fault costs depends on which request it
/// hits, so a median over many schedules is steadier than one schedule.
pub fn sweep_plan_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// The seeded fault plan of `chaos-crawl`: every transient kind at
/// 250 ‰, at most two faults per route. No stalls: a stall measures
/// sleeping, not serving.
pub fn fault_plan(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed: seed ^ 0xC4A05,
        fault_permille: 250,
        kinds: vec![
            FaultKind::Reset,
            FaultKind::Truncate,
            FaultKind::TransientStatus,
            FaultKind::Corrupt,
        ],
        max_faults_per_route: 2,
        stall_ms: 0,
        permanent_routes: Vec::new(),
    }
}

fn pipeline_config(scale: CorpusScale, snapshot: Snapshot) -> PipelineConfig {
    PipelineConfig::builder(scale, snapshot, CORPUS_SEED)
        .workers(WORKERS)
        .analysis_workers(WORKERS)
        .connections_per_worker(CONNECTIONS_PER_WORKER)
        .reactor(REACTOR)
        .sched(SCHED)
        .build()
}

fn pool_config() -> CrawlPoolConfig {
    CrawlPoolConfig {
        workers: WORKERS,
        crawler: CrawlerConfig::default(),
        retry: RetryPolicy::default(),
        admission: Default::default(),
        sched: SCHED,
        sched_seed: CORPUS_SEED,
        size_hints: None,
        resume: None,
        connections_per_worker: CONNECTIONS_PER_WORKER,
        reactor: Some(REACTOR),
    }
}

fn analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        workers: WORKERS,
        dedup_cache: true,
        sched: SCHED,
        sched_seed: CORPUS_SEED,
        cache_dir: None,
    }
}

fn start_server(
    corpus: StoreCorpus,
    chaos: Option<FaultPlanConfig>,
    index: Option<Arc<CorpusIndex>>,
) -> BenchResult<StoreServer> {
    Ok(StoreServer::start_with(
        corpus,
        ServerOptions {
            chaos: chaos.map(FaultPlan::new),
            index,
            reactor: Some(REACTOR),
            reactor_seed: CORPUS_SEED,
        },
    )?)
}

/// Order-sensitive digest of a crawled corpus: every app's metadata and
/// body bytes.
pub fn corpus_digest(apps: &[CrawledApp]) -> u32 {
    let mut all = Vec::new();
    for app in apps {
        all.extend_from_slice(format!("{:?}", app.meta).as_bytes());
        all.extend_from_slice(&crc32(&app.apk).to_be_bytes());
        for (name, bytes) in &app.obbs {
            all.extend_from_slice(name.as_bytes());
            all.extend_from_slice(&crc32(bytes).to_be_bytes());
        }
        if let Some(b) = &app.bundle {
            all.extend_from_slice(&crc32(b).to_be_bytes());
        }
    }
    crc32(&all)
}

/// Every table `repro` prints for the two reports, in its order and
/// byte for byte (header included), grouped into the four experiment
/// spans.
pub fn render_study(
    tr: &mut Tracer,
    scale: CorpusScale,
    r2020: &PipelineReport,
    r2021: &PipelineReport,
) -> BenchResult<String> {
    let mut out = String::new();
    tr.span("experiments.offline", |_| -> BenchResult<()> {
        writeln!(
            out,
            "gaugeNN reproduction — scale {scale:?}, seed {CORPUS_SEED}, \
             {WORKERS} crawl worker(s), {WORKERS} analysis worker(s)"
        )?;
        writeln!(out, "=================================================================")?;
        writeln!(out)?;
        writeln!(out, "{}", runtime::tab1())?;
        writeln!(out, "{}", offline::tab2(r2020, r2021).render())?;
        writeln!(out, "Crawl drop-out breakdown (Apr 2021 snapshot):")?;
        writeln!(out, "{}", r2021.dropout_breakdown().render())?;
        writeln!(out, "{}\n", r2021.crawl_summary())?;
        writeln!(
            out,
            "Offline analysis (Apr 2021 snapshot): {} instances, {} cache hits / {} misses, {} unique analysed\n",
            r2021.analysis.instances,
            r2021.analysis.cache_hits,
            r2021.analysis.cache_misses,
            r2021.analysis.unique_analysed
        )?;
        writeln!(
            out,
            "Sec 4.2: device-profile invariance probe: {:?} (paper: no device-specific distribution)\n",
            r2021.dataset.device_profile_invariant
        )?;
        writeln!(out, "{}", offline::tab3(r2021).render())?;
        writeln!(out, "{}", offline::fig4(r2021).render())?;
        writeln!(out, "{}", offline::fig5(r2020, r2021).render())?;
        writeln!(out, "{}", offline::render_sec45(&offline::sec45(r2021)))?;
        writeln!(out, "{}", offline::fig6(r2021).render())?;
        writeln!(out, "{}", offline::fig7(r2021).render())?;
        Ok(())
    })?;
    tr.span("experiments.runtime", |_| -> BenchResult<()> {
        let sweep = runtime::latency_sweep(r2021, &all_devices());
        writeln!(out, "{}", runtime::fig8(&sweep).render())?;
        writeln!(out, "{}", runtime::fig9(&sweep).render())?;
        writeln!(out, "{}", runtime::fig10(r2021)?.render())?;
        writeln!(out, "{}", runtime::tab4(r2021)?.render())?;
        Ok(())
    })?;
    tr.span("experiments.backends", |_| -> BenchResult<()> {
        writeln!(out, "{}", offline::render_sec61(&offline::sec61(r2021)))?;
        writeln!(out, "{}", backends::fig11(r2021).render())?;
        writeln!(out, "{}", backends::fig12(r2021).render())?;
        writeln!(
            out,
            "{}",
            backends::fig13(r2021)?.render("Fig 13: TFLite CPU runtimes (CPU vs XNNPACK vs NNAPI)")
        )?;
        writeln!(
            out,
            "{}",
            backends::fig14(r2021)?.render("Fig 14: SNPE hardware targets (TFLite + caffe)")
        )?;
        writeln!(out, "{}", offline::fig15(r2021).render())?;
        Ok(())
    })?;
    tr.span("experiments.extension", |_| -> BenchResult<()> {
        writeln!(out, "{}", whatif::whatif()?.render())?;
        writeln!(out, "{}", cohab::cohab_study(r2021, 6)?.render())?;
        writeln!(out, "{}", ablations::ablation_study(r2021).render())?;
        writeln!(out, "{}", offload::offload_study(r2021)?.render())?;
        Ok(())
    })?;
    Ok(out)
}

/// One untraced study the way `repro` runs it: `Pipeline::run` per
/// snapshot, then every table.
pub fn study_once(scale: CorpusScale) -> BenchResult<String> {
    let r2020 = Pipeline::new(pipeline_config(scale, Snapshot::Y2020)).run()?;
    let r2021 = Pipeline::new(pipeline_config(scale, Snapshot::Y2021)).run()?;
    render_study(&mut Tracer::new(false, 0), scale, &r2020, &r2021)
}

/// Crawl one clean snapshot with the pinned pool (set-up of
/// `chaos-crawl` and `reanalyse`).
pub fn clean_crawl(scale: CorpusScale, snapshot: Snapshot) -> BenchResult<PoolOutcome> {
    let server = start_server(generate(scale, snapshot, CORPUS_SEED), None, None)?;
    Ok(CrawlPool::new(pool_config()).crawl_at(&server.endpoint())?)
}

/// One `crawl_at` sweep of `corpus` under a fresh fault plan (the plan
/// counts attempts per connection and route, so a reused plan would
/// fault less on the second sweep). Only `crawl_at` is timed.
pub fn chaos_sweep(corpus: &StoreCorpus, seed: u64) -> BenchResult<(PoolOutcome, Duration)> {
    let server = start_server(corpus.clone(), Some(fault_plan(seed)), None)?;
    let t0 = Instant::now();
    let outcome = CrawlPool::new(pool_config()).crawl_at(&server.endpoint())?;
    Ok((outcome, t0.elapsed()))
}

/// One re-analysis pass: analyse the held corpus and fold it into a
/// fresh index.
pub fn analyse_pass(crawled: &[CrawledApp]) -> BenchResult<(AnalysisOutput, CorpusIndex)> {
    let out = AnalysisPool::new(analysis_config()).analyse(crawled)?;
    let mut index = CorpusIndex::new();
    indexer::ingest(&mut index, Snapshot::Y2021.label(), &out.models, &out.apps);
    Ok((out, index))
}

/// Model checksums of a pass, in merge order.
pub fn checksums(out: &AnalysisOutput) -> Vec<String> {
    out.models.iter().map(|m| m.checksum.clone()).collect()
}

/// An in-process store serving `/query/*` from `index`: a
/// [`LockstepServer`], stepped by the client's own loop (see
/// [`loadgen::lockstep`]).
pub fn lockstep_store(scale: CorpusScale, index: Arc<CorpusIndex>) -> LockstepServer {
    LockstepServer::start(
        generate(scale, Snapshot::Y2021, CORPUS_SEED),
        ServerOptions {
            chaos: None,
            index: Some(index),
            reactor: None,
            reactor_seed: CORPUS_SEED,
        },
    )
}

/// The `query` store: the Apr 2021 index built the way `querybench`
/// builds it (crawl, analyse and ingest via `Pipeline::run`), served by
/// a [`lockstep_store`].
pub fn query_store(scale: CorpusScale) -> BenchResult<LockstepServer> {
    let report = Pipeline::new(pipeline_config(scale, Snapshot::Y2021)).run()?;
    Ok(lockstep_store(scale, report.corpus_index.clone()))
}

/// The §4.2 device-profile probe exactly as `Pipeline::run` makes it;
/// returns the verdict and the requests the probe sent.
fn probe(server: &StoreServer, crawled: &[CrawledApp]) -> BenchResult<(bool, u64)> {
    let old_cfg = CrawlerConfig {
        device_profile: "SM-G935F".into(),
        user_agent: "gaugeNN/1.0 (Android 8; SM-G935F)".into(),
        ..CrawlerConfig::default()
    };
    let mut old = Crawler::builder_at(server.endpoint())
        .config(old_cfg)
        .retry(RetryPolicy::default())
        .connection_id(u64::MAX)
        .build()?;
    let mut invariant = true;
    for app in crawled.iter().take(20) {
        if old.download_apk(&app.meta.package)? != app.apk {
            invariant = false;
            break;
        }
    }
    Ok((invariant, old.stats().requests))
}

/// Which stage of the traced composition a workload replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The plain study.
    Clean,
    /// The Apr 2021 crawl runs under [`fault_plan`].
    Chaos(u64),
    /// The Apr 2021 analysis runs twice: the first pass and a repeat.
    Reanalyse,
}

/// One snapshot of the traced composition, plus the crawled apps the
/// leaf pass needs.
pub struct Staged {
    /// The assembled report (what `Pipeline::run` would have returned).
    pub report: PipelineReport,
    /// The crawled corpus.
    pub crawled: Vec<CrawledApp>,
}

/// `Pipeline::run` composed from its stages' public entry points, one
/// span around each call: generate → `StoreServer::start_with` →
/// `CrawlPool::crawl_at` (+ the probe) → `AnalysisPool::analyse` →
/// `indexer::ingest`.
pub fn staged_snapshot(
    tr: &mut Tracer,
    scale: CorpusScale,
    snapshot: Snapshot,
    variant: Variant,
) -> BenchResult<Staged> {
    let apr = snapshot == Snapshot::Y2021;
    let chaos = match variant {
        Variant::Chaos(seed) if apr => Some(fault_plan(seed)),
        _ => None,
    };
    let corpus = tr.span("corpus.generate", |_| {
        generate(scale, snapshot, CORPUS_SEED)
    });
    let server = tr.span("server.start", |_| start_server(corpus, chaos, None))?;
    let pooled = tr.span("pool.crawl_at", |_| {
        CrawlPool::new(pool_config()).crawl_at(&server.endpoint())
    })?;
    count_pool(tr, &pooled);
    let (invariant, probe_requests) =
        tr.span("crawler.probe", |_| probe(&server, &pooled.outcome.apps))?;
    tr.count(
        "client.requests",
        (pooled.outcome.stats.requests + probe_requests) as f64,
    );
    tr.count("server.requests_served", server.requests_served() as f64);
    let reactor_digest = server.reactor_digest();
    tr.span("server.stop", |_| drop(server));

    let crawled = pooled.outcome.apps;
    let passes = if variant == Variant::Reanalyse && apr {
        2
    } else {
        1
    };
    let mut analysed = None;
    for pass in 0..passes {
        let out = tr.span("analyze.analyse", |_| {
            AnalysisPool::new(analysis_config()).analyse(&crawled)
        })?;
        if pass == 0 && apr {
            let first = tr
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "analyze.analyse");
            let ms = first.map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
            tr.count("analyze.first_pass_ms", ms);
        }
        count_analysis(tr, &out);
        analysed = Some(out);
    }
    let a = analysed.expect("at least one analysis pass");
    let mut corpus_index = CorpusIndex::new();
    tr.span("indexer.ingest", |_| {
        indexer::ingest(&mut corpus_index, snapshot.label(), &a.models, &a.apps)
    });
    let apps = &a.apps;
    let dataset = DatasetSummary {
        snapshot: snapshot.label(),
        total_apps: apps.len(),
        ml_apps: apps.iter().filter(|x| x.is_ml_app()).count(),
        benchmarkable_apps: apps.iter().filter(|x| !x.models.is_empty()).count(),
        total_models: a.instances.len(),
        unique_models: a.models.len(),
        failed_candidates: a.failed_candidates,
        models_outside_apk: a.models_outside_apk,
        cloud_apps: apps.iter().filter(|x| !x.cloud.is_empty()).count(),
        nnapi_apps: apps.iter().filter(|x| x.uses_nnapi).count(),
        xnnpack_apps: apps.iter().filter(|x| x.uses_xnnpack).count(),
        snpe_apps: apps.iter().filter(|x| x.uses_snpe).count(),
        on_device_training_apps: apps.iter().filter(|x| x.uses_on_device_training).count(),
        download_dropouts: pooled.outcome.dropouts.len(),
        device_profile_invariant: Some(invariant),
    };
    let report = PipelineReport {
        snapshot,
        scale,
        seed: CORPUS_SEED,
        dataset,
        models: a.models,
        model_index: a.model_index,
        instances: a.instances,
        apps: a.apps,
        index: a.index,
        composition: a.composition,
        dropouts: pooled.outcome.dropouts,
        crawl_stats: pooled.outcome.stats,
        admission: Some(pooled.admission),
        workers: pooled.workers,
        crawl_replayed: false,
        analysis: a.stats,
        corpus_index: Arc::new(corpus_index),
        reactor_digest,
    };
    Ok(Staged { report, crawled })
}

fn count_pool(tr: &mut Tracer, p: &PoolOutcome) {
    let s = &p.outcome.stats;
    let bytes: Vec<f64> = p.per_worker.iter().map(|w| w.bytes as f64).collect();
    let mean = bytes.iter().sum::<f64>() / bytes.len().max(1) as f64;
    let max = bytes.iter().copied().fold(0.0, f64::max);
    tr.count("pool.requests", s.requests as f64);
    tr.count("pool.apps", p.outcome.apps.len() as f64);
    tr.count("pool.bytes", bytes.iter().sum());
    tr.count("pool.retries", s.retries as f64);
    tr.count("pool.reconnects", s.reconnects as f64);
    tr.count("pool.range_resumes", s.range_resumes as f64);
    tr.count("pool.dropouts", p.outcome.dropouts.len() as f64);
    tr.count("pool.skew_sum", if mean > 0.0 { max / mean } else { 1.0 });
    tr.count("pool.sweeps", 1.0);
    tr.count("pool.peak_sum", p.peak_in_flight as f64);
    tr.count("admission.throttled", p.admission.throttled as f64);
    tr.count("admission.rejections", p.admission.rejections as f64);
    tr.count("admission.breaker_opens", p.admission.breaker_opens as f64);
}

fn count_analysis(tr: &mut Tracer, out: &AnalysisOutput) {
    let s = &out.stats;
    tr.count("analyze.instances", s.instances as f64);
    tr.count("analyze.cache_hits", s.cache_hits as f64);
    tr.count("analyze.unique_analysed", s.unique_analysed as f64);
    tr.count("analyze.failed_candidates", out.failed_candidates as f64);
    tr.count("analyze.extract_busy_ms", s.extract_us as f64 / 1e3);
    tr.count("analyze.checksum_busy_ms", s.checksum_us as f64 / 1e3);
    tr.count("analyze.decode_busy_ms", s.decode_us as f64 / 1e3);
    tr.count("analyze.trace_busy_ms", s.trace_us as f64 / 1e3);
}

/// Build every app's APK once, outside the server, the way the server
/// builds it per request.
pub fn build_bodies(tr: &mut Tracer, corpus: &StoreCorpus) {
    let bytes = tr.span("corpus.build", |_| {
        let mut memo: std::collections::HashMap<usize, gaugenn_modelfmt::ModelArtifact> =
            std::collections::HashMap::new();
        let mut bytes = 0usize;
        for app in &corpus.apps {
            let apk = corpus.build_apk(app, &mut |id| {
                memo.entry(id)
                    .or_insert_with(|| corpus.pool[id].artifact(&corpus.pool))
                    .clone()
            });
            bytes += std::hint::black_box(apk).len();
        }
        bytes
    });
    tr.count("corpus.build_bytes", bytes as f64);
}

/// Single-threaded leaf pass: every app through `extract_app`, every
/// model through the md5 checksum, every unique checksum through decode
/// and trace + classify — one span per call.
pub fn leaf_pass(tr: &mut Tracer, crawled: &[CrawledApp]) -> BenchResult<()> {
    use gaugenn_analysis::classify::classify_graph;
    use gaugenn_analysis::dedup::model_checksum;
    use gaugenn_dnn::trace::trace_graph;
    let mut seen = std::collections::BTreeSet::new();
    for app in crawled {
        let ext = tr.span("extract.app", |_| gaugenn_core::extract::extract_app(app))?;
        for found in &ext.models {
            let sum = tr.span("md5.model", |_| model_checksum(&found.files));
            let bytes: usize = found.files.iter().map(|(_, b)| b.len()).sum();
            tr.count("md5.bytes", bytes as f64);
            if !seen.insert(sum) {
                continue;
            }
            let graph = tr.span("decode.model", |_| {
                gaugenn_modelfmt::decode(found.framework, &found.files)
            });
            if let Ok(graph) = graph {
                tr.span("trace.model", |_| -> BenchResult<()> {
                    std::hint::black_box(trace_graph(&graph)?);
                    std::hint::black_box(classify_graph(&graph));
                    Ok(())
                })?;
            }
        }
    }
    Ok(())
}

/// The query stream replayed straight against the index, no socket:
/// index lookup and wire render each in their own span. Returns the
/// digest the same stream must produce over the wire.
pub fn index_replay(tr: &mut Tracer, index: &CorpusIndex, queries: &[Route]) -> u32 {
    use gaugenn_index::wire;
    let mut all = Vec::new();
    for route in queries {
        let body = match route {
            Route::QueryModels(q) => {
                let docs = tr.span("index.query", |_| index.query_models(q));
                tr.span("wire.render", |_| {
                    wire::render_models(&docs, q.snapshot.as_deref())
                })
            }
            Route::QueryApps(q) => {
                let docs = tr.span("index.query", |_| index.query_apps(q));
                tr.span("wire.render", |_| {
                    wire::render_apps(&docs, q.snapshot.as_deref())
                })
            }
            _ => tr.span("index.query", |_| index.stats_text()),
        };
        all.extend_from_slice(&200u16.to_be_bytes());
        all.extend_from_slice(body.as_bytes());
    }
    crc32(&all)
}

/// What the traced composition produced, for the output checks.
pub struct Composed {
    /// Rendered tables.
    pub tables: String,
    /// Wall time of the composed study (generation to last table).
    pub study: Duration,
}

/// The staged study with `variant` in place: both snapshots, then every
/// table.
pub fn composed_study(
    tr: &mut Tracer,
    scale: CorpusScale,
    variant: Variant,
) -> BenchResult<(Composed, Staged)> {
    let t0 = Instant::now();
    let (tables, s2021) = tr.span("study", |tr| -> BenchResult<(String, Staged)> {
        let s2020 = staged_snapshot(tr, scale, Snapshot::Y2020, variant)?;
        let s2021 = staged_snapshot(tr, scale, Snapshot::Y2021, variant)?;
        let tables = render_study(tr, scale, &s2020.report, &s2021.report)?;
        Ok((tables, s2021))
    })?;
    Ok((
        Composed {
            tables,
            study: t0.elapsed(),
        },
        s2021,
    ))
}

/// Open-loop and closed-loop load against a store serving `index`.
pub fn serve_queries(
    tr: &mut Tracer,
    scale: CorpusScale,
    index: Arc<CorpusIndex>,
    queries: &[Route],
    seed: u64,
) -> BenchResult<(loadgen::Replay, loadgen::Replay)> {
    let corpus = generate(scale, Snapshot::Y2021, CORPUS_SEED);
    let server = tr.span("server.start", |_| start_server(corpus, None, Some(index)))?;
    let closed = tr.span("loadgen.closed", |_| {
        loadgen::replay(
            &server.endpoint(),
            queries,
            QUERY_CONNECTIONS,
            Pacing::Closed,
            seed,
        )
    });
    let open_stream = loadgen::stream(seed ^ 0x0be7, OPEN_QUERIES);
    let open = tr.span("loadgen.open", |_| {
        loadgen::replay(
            &server.endpoint(),
            &open_stream,
            QUERY_CONNECTIONS,
            Pacing::Open { rate: OPEN_RATE },
            seed,
        )
    });
    tr.count("server.requests_served", server.requests_served() as f64);
    tr.count("client.requests", (closed.requests + open.requests) as f64);
    Ok((closed, open))
}
