//! Parallel offline analysis with a content-addressed model cache.
//!
//! The paper's offline stage (§4–§6: extraction, DAG decode, FLOPs/params
//! tracing, md5 + per-layer checksumming) used to run as one sequential
//! loop over the crawled corpus. [`AnalysisPool`] fans it out over N
//! worker threads in two scheduled phases sharing the
//! size-aware-assignment + ordered-merge discipline of
//! [`gaugenn_playstore::pool::CrawlPool`]:
//!
//! 1. **Extraction** — work units are apps, sized by container bytes
//!    (APK + OBBs + bundle), partitioned by the [`gaugenn_sched`]
//!    scheduler ([`SchedMode::Lpt`] by default; `GAUGENN_SCHED`
//!    overrides).
//! 2. **Model analysis** — work units are the *individual model files*
//!    found in phase 1, sized by their file bytes, scheduled the same
//!    way. One model-dense app no longer straggles its shard: its models
//!    spread across the fleet. With the cache on, byte-identical files
//!    are first grouped and only one unit per group is scheduled (see
//!    below).
//!
//! The merge walks apps (and their models) in corpus-index order, so the
//! produced models, instances, index docs and counters are
//! **byte-identical to the sequential run at any worker count and under
//! any scheduling mode** — assignment moves wall-clock between workers,
//! never content.
//!
//! # The content-addressed cache
//!
//! The paper's dataset is heavily duplicated — most model instances are
//! byte-identical copies shipped by many apps — so the expensive work
//! (graph decode, [`trace_graph`], [`classify_graph`], [`inspect`],
//! [`layer_checksums`]) is keyed by the [`model_checksum`] md5 over the
//! raw bytes. The [`ModelCache`] is a sharded map (per-shard mutex, so
//! workers hashing different models never contend on one lock) of
//! compute-once slots: the first worker to claim a checksum computes the
//! full analysis under the slot's own lock while later instances block on
//! that slot and then attach to the finished result. Failed decodes are
//! cached too — an obfuscated model shipped by 40 apps is probed once,
//! not 40 times — while still charging one `failed_candidates` count per
//! instance, exactly as the sequential loop did.
//!
//! # Content grouping
//!
//! The md5 key is not cheap: hashed once per instance it was the largest
//! analysis stage, larger than extraction. So between the two phases the
//! model units are grouped by exact content — the path-sorted sequence of
//! file byte strings that [`model_checksum`] streams. Units are bucketed
//! by each file's `(length, crc32)`, the crc the ZIP parser already
//! verified ([`FoundModel::crcs`]), and a unit joins a group only when
//! its bytes equal the representative's, so a crc collision costs one
//! comparison and never merges two contents. Only each group's
//! representative (its first unit in corpus order) is scheduled, hashed
//! and looked up; afterwards every other member takes the
//! representative's checksum and attaches through
//! [`ModelCache::get_or_compute`], counting a cache hit exactly as it
//! would had it hashed its own copy. Grouping is on exactly when
//! [`AnalysisConfig::dedup_cache`] is.
//!
//! With [`AnalysisConfig::cache_dir`] set the cache is additionally
//! backed by a persistent [`CacheStore`]: the first claimant of a
//! checksum consults the on-disk store before computing, so the second
//! snapshot of a two-snapshot `repro` run (or a whole later invocation
//! pointed at the same directory) attaches to the first snapshot's
//! finished analyses. Persistent hits are tracked separately
//! ([`AnalysisStats::persistent_hits`]) and deliberately do **not**
//! perturb `cache_hits`/`cache_misses` — those appear in the
//! deterministic report render, which must stay byte-identical between
//! cold and warm runs.
//!
//! # Determinism
//!
//! * which worker analyses which unit is a pure function of `(unit
//!   sizes, workers, mode, seed)`, all fixed before any thread starts —
//!   no runtime work stealing, no shared queues;
//! * the cache only memoises a pure function of the model bytes, so the
//!   race for who computes a checksum first never changes *what* is
//!   computed;
//! * content groups are exact (equal bytes, hence an equal checksum), so
//!   every instance carries the checksum it would have hashed itself;
//! * cache hit/miss totals are interleaving-independent (misses = unique
//!   checksums, hits = instances − misses) because slots are claimed
//!   exactly once under the shard lock, every checksum has a
//!   representative that claims it, and every other instance attaches
//!   to a claimed slot;
//! * the merge assembles everything in corpus order, so first-sighting
//!   order — and with it model numbering, Table 2 counts and the Fig. 6
//!   composition — matches the sequential loop bit for bit.
//!
//! Only the wall-clock stage timings in [`AnalysisStats`] vary run to
//! run; they are reported for the `repro`/`analyzebench` breakdowns and
//! deliberately excluded from [`crate::pipeline::PipelineReport`]'s
//! deterministic text render.

use crate::cachestore::CacheStore;
use crate::crashpoint::{self, CrashPoint};
use crate::extract::{extract_app, AppExtraction, FoundModel};
use crate::{CoreError, Result};
use gaugenn_analysis::classify::{classify_graph, Classification, LayerComposition};
use gaugenn_analysis::dedup::{layer_checksums, model_checksum};
use gaugenn_analysis::etl::{doc, Index};
use gaugenn_analysis::optim::{inspect, ModelOptim};
use gaugenn_dnn::graph::LayerKind;
use gaugenn_dnn::trace::{trace_graph, TraceReport};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::crawler::CrawledApp;
use gaugenn_sched::{assign, SchedMode, WorkUnit};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for an [`AnalysisPool`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Worker threads. Clamped to a minimum of 1; 1 reproduces the old
    /// sequential loop through the same code path.
    pub workers: usize,
    /// Content-addressed dedup cache in front of decode/trace, and
    /// content grouping in front of the md5 that keys it: byte-identical
    /// model files are hashed and analysed once. On by default;
    /// `analyzebench` switches it off to measure what the cache buys
    /// (every instance then pays the full md5 + decode + trace).
    pub dedup_cache: bool,
    /// How work units (apps in the extraction phase, model files in the
    /// analysis phase) are partitioned across workers. Defaults to the
    /// `GAUGENN_SCHED` environment variable (falling back to LPT).
    pub sched: SchedMode,
    /// Seed for the planned-steal sequence ([`SchedMode::Stealing`]).
    pub sched_seed: u64,
    /// Directory backing the [`ModelCache`] persistently across runs
    /// (see [`CacheStore`]). `None` keeps the cache in-memory only.
    /// Ignored when `dedup_cache` is off.
    pub cache_dir: Option<PathBuf>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            workers: 1,
            dedup_cache: true,
            sched: SchedMode::from_env(),
            sched_seed: 0,
            cache_dir: None,
        }
    }
}

impl AnalysisConfig {
    /// Config with `workers` threads and the cache enabled.
    pub fn with_workers(workers: usize) -> AnalysisConfig {
        AnalysisConfig {
            workers,
            ..AnalysisConfig::default()
        }
    }
}

/// Everything computed once per unique model checksum.
#[derive(Debug)]
pub struct ModelAnalysis {
    /// Model name from the decoded graph.
    pub name: String,
    /// FLOPs/params trace.
    pub trace: TraceReport,
    /// Task classification.
    pub classification: Option<Classification>,
    /// §6.1 optimisation inspection.
    pub optim: ModelOptim,
    /// Per-layer weight checksums.
    pub layers: Vec<(String, u64)>,
    /// Layer-family histogram (Input layers excluded) — also the Fig. 6
    /// composition contribution, so the merge never needs the graph.
    pub layer_families: BTreeMap<String, u64>,
}

/// Why a cached model analysis failed.
#[derive(Debug, Clone)]
pub enum AnalyzeFailure {
    /// The file passed the cheap signature probe but would not decode
    /// (truncated/corrupted/obfuscated body) — the instance drops out of
    /// the benchmarkable set, charging one failed candidate.
    Undecodable,
    /// The decoded graph would not trace — fatal, aborts the pipeline
    /// like the sequential loop's `?` did.
    Trace(String),
}

/// A cache lookup result: the shared analysis, or the memoised failure.
pub type ModelOutcome = std::result::Result<Arc<ModelAnalysis>, AnalyzeFailure>;

/// Number of independently locked cache shards.
const CACHE_SHARDS: usize = 16;

/// One compute-once slot: the first claimant computes under the slot
/// lock; later claimants block on it and read the finished outcome.
struct Slot(Mutex<Option<ModelOutcome>>);

/// Sharded, content-addressed, compute-once cache over model checksums,
/// optionally backed by a persistent [`CacheStore`].
///
/// Counter atomics use `SeqCst`: the totals feed the rendered report,
/// and gaugelint's `relaxed-ordering-in-report` rule bans `Relaxed`
/// near report state so a future refactor cannot quietly weaken them.
pub struct ModelCache {
    shards: Vec<Mutex<BTreeMap<String, Arc<Slot>>>>,
    store: Option<Arc<CacheStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    persistent_hits: AtomicU64,
    persistent_stores: AtomicU64,
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelCache {
    /// Empty in-memory cache.
    pub fn new() -> ModelCache {
        Self::with_store(None)
    }

    /// Empty cache, consulting (and writing back to) `store` when set.
    pub fn with_store(store: Option<Arc<CacheStore>>) -> ModelCache {
        ModelCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persistent_hits: AtomicU64::new(0),
            persistent_stores: AtomicU64::new(0),
        }
    }

    /// Shard index for a checksum (FNV-1a over the hex string).
    fn shard_of(checksum: &str) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in checksum.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % CACHE_SHARDS as u64) as usize
    }

    /// Return the cached outcome for `checksum`, or run `compute` exactly
    /// once across all workers and cache its result. Counts a miss for
    /// the claimant and a hit for everyone else, so the totals are a pure
    /// function of the corpus, not of thread interleaving.
    pub fn get_or_compute(
        &self,
        checksum: &str,
        compute: impl FnOnce() -> ModelOutcome,
    ) -> ModelOutcome {
        let slot = {
            let mut map = self.shards[Self::shard_of(checksum)]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match map.get(checksum) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    slot.clone()
                }
                None => {
                    self.misses.fetch_add(1, Ordering::SeqCst);
                    let slot = Arc::new(Slot(Mutex::new(None)));
                    map.insert(checksum.to_string(), slot.clone());
                    slot
                }
            }
        };
        let mut guard = slot.0.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            // First claimant: try the persistent store before paying the
            // full compute. A persistent hit still counted as an
            // in-memory *miss* above — disk state must never change the
            // hit/miss totals that reach the deterministic report.
            let outcome = match self.store.as_ref().and_then(|s| s.load(checksum)) {
                Some(found) => {
                    self.persistent_hits.fetch_add(1, Ordering::SeqCst);
                    found
                }
                None => {
                    let computed = compute();
                    if let Some(store) = &self.store {
                        store.save(checksum, &computed);
                        self.persistent_stores.fetch_add(1, Ordering::SeqCst);
                    }
                    computed
                }
            };
            *guard = Some(outcome);
        }
        guard.as_ref().expect("slot filled above").clone()
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::SeqCst),
            self.misses.load(Ordering::SeqCst),
        )
    }

    /// `(persistent hits, persistent write-backs)` so far. Zero unless
    /// the cache was built over a [`CacheStore`].
    pub fn persistent_counters(&self) -> (u64, u64) {
        (
            self.persistent_hits.load(Ordering::SeqCst),
            self.persistent_stores.load(Ordering::SeqCst),
        )
    }
}

/// Merged counters and wall-clock stage timings for one analysis run.
///
/// The counter fields are deterministic (pure functions of the corpus);
/// the `*_us` timings are wall-clock sums across workers and vary run to
/// run — keep them out of anything that must be byte-stable.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Worker threads used.
    pub workers: usize,
    /// Apps analysed.
    pub apps: usize,
    /// Model instances that went through the checksum funnel.
    pub instances: u64,
    /// Cache hits (instances that attached to an already-claimed slot).
    pub cache_hits: u64,
    /// Cache misses (unique checksums, decodable or not).
    pub cache_misses: u64,
    /// Unique models that decoded and traced successfully.
    pub unique_analysed: u64,
    /// Unique checksums whose analysis was loaded from the persistent
    /// [`CacheStore`] instead of recomputed. These are a subset of
    /// `cache_misses` by design: disk state must not perturb the hit/miss
    /// totals that reach the deterministic report.
    pub persistent_hits: u64,
    /// Outcomes offered to the persistent store for write-back.
    pub persistent_stores: u64,
    /// Wall-clock in app extraction across all workers, microseconds.
    pub extract_us: u64,
    /// Wall-clock identifying model contents, microseconds: content
    /// grouping plus the whole-model checksums of the representatives.
    pub checksum_us: u64,
    /// Wall-clock in graph decode, microseconds.
    pub decode_us: u64,
    /// Wall-clock in trace/classify/inspect/layer-checksums, microseconds.
    pub trace_us: u64,
}

impl AnalysisStats {
    /// Fraction of instances served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.instances as f64
        }
    }

    /// Fraction of unique checksums served from the persistent store —
    /// the cross-snapshot attach rate of a warm `repro` run.
    pub fn persistent_hit_rate(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.persistent_hits as f64 / self.cache_misses as f64
        }
    }

    /// Total analysis wall-clock across all stages, milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.extract_us + self.checksum_us + self.decode_us + self.trace_us) as f64 / 1e3
    }
}

/// One unique (by checksum) model with every offline analysis attached.
#[derive(Debug, Clone)]
pub struct ModelRecord {
    /// md5 over all model files.
    pub checksum: String,
    /// Model name from the graph.
    pub name: String,
    /// Container framework.
    pub framework: Framework,
    /// Serialized size in bytes (all files).
    pub size_bytes: usize,
    /// FLOPs/params trace.
    pub trace: TraceReport,
    /// Task classification (None for the unidentifiable tail).
    pub classification: Option<Classification>,
    /// §6.1 optimisation inspection.
    pub optim: ModelOptim,
    /// Per-layer weight checksums for the §4.5 lineage analysis.
    pub layers: Vec<(String, u64)>,
    /// Layer-family histogram for Fig. 6.
    pub layer_families: BTreeMap<String, u64>,
    /// Number of apps carrying this model.
    pub app_count: usize,
}

/// One model instance (a file in an app).
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    /// App package.
    pub app: String,
    /// Store category.
    pub category: String,
    /// Primary file path inside the app.
    pub path: String,
    /// Checksum linking to the [`ModelRecord`].
    pub checksum: String,
}

/// Everything the offline stage produced, merged in corpus order.
#[derive(Debug)]
pub struct AnalysisOutput {
    /// Per-app extraction facts, in corpus order.
    pub apps: Vec<AppExtraction>,
    /// Unique models in first-sighting order.
    pub models: Vec<ModelRecord>,
    /// Checksum → index into `models`.
    pub model_index: BTreeMap<String, usize>,
    /// All decodable model instances, in corpus order.
    pub instances: Vec<InstanceRecord>,
    /// Metadata index (the ElasticSearch stand-in).
    pub index: Index,
    /// Fig. 6 layer composition.
    pub composition: LayerComposition,
    /// Candidate files that failed signature validation or decode.
    pub failed_candidates: usize,
    /// Models found outside the base APK (§4.2: expected 0).
    pub models_outside_apk: usize,
    /// Merged counters + stage timings.
    pub stats: AnalysisStats,
}

/// Per-worker wall-clock accumulators.
#[derive(Debug, Clone, Copy, Default)]
struct StageTimers {
    extract: Duration,
    checksum: Duration,
    decode: Duration,
    trace: Duration,
}

/// Size estimate for one crawled app: every container byte the
/// extraction phase will walk.
fn container_bytes(app: &CrawledApp) -> u64 {
    app.apk.len() as u64
        + app.obbs.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
        + app.bundle.as_ref().map_or(0, |b| b.len() as u64)
}

/// The scheduled analysis pool. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct AnalysisPool {
    config: AnalysisConfig,
}

impl AnalysisPool {
    /// Build a pool.
    pub fn new(config: AnalysisConfig) -> AnalysisPool {
        AnalysisPool { config }
    }

    /// Analyse a crawled corpus with the configured worker fleet.
    ///
    /// Work is partitioned by the deterministic scheduler in two phases
    /// (apps for extraction, model files for decode/trace); results merge
    /// in corpus-index order, byte-identical at any worker count and
    /// under any [`SchedMode`].
    pub fn analyse(&self, crawled: &[CrawledApp]) -> Result<AnalysisOutput> {
        self.run(crawled, self.config.dedup_cache)
    }

    /// [`AnalysisPool::analyse`], with content grouping of the model
    /// units on or off. Grouping needs the cache (members attach to their
    /// representative's slot), so `analyse` groups exactly when the cache
    /// is on; the tests also run the cache without it, to pin that
    /// grouping changes nothing but the work done.
    fn run(&self, crawled: &[CrawledApp], group: bool) -> Result<AnalysisOutput> {
        let workers = self.config.workers.max(1);
        let mode = self.config.sched;
        let seed = self.config.sched_seed;
        let use_cache = self.config.dedup_cache;
        let store = if use_cache {
            self.config.cache_dir.as_deref().map(CacheStore::open)
        } else {
            None
        };
        let store_handle = store.clone();
        let cache = ModelCache::with_store(store);
        let mut timers = StageTimers::default();

        // Phase 1 — extraction. Units are apps, sized by container bytes.
        let app_units: Vec<WorkUnit> = crawled
            .iter()
            .enumerate()
            .map(|(index, app)| WorkUnit {
                index,
                size: container_bytes(app),
            })
            .collect();
        let app_plan = assign(&app_units, workers, mode, seed);
        let mut extractions: Vec<Option<Result<AppExtraction>>> =
            (0..crawled.len()).map(|_| None).collect();
        // Per-worker output: (corpus index, extraction) pairs plus the
        // worker's extraction timer.
        type ExtractShard = (Vec<(usize, Result<AppExtraction>)>, Duration);
        let phase1: Vec<ExtractShard> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = app_plan
                    .iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut spent = Duration::default();
                            let mut out = Vec::new();
                            // Shards are ascending, so everything this
                            // worker extracts before its own first error
                            // is below any corpus index it skips — the
                            // merge aborts at the lowest-index error and
                            // never reads a skipped slot.
                            for &i in shard {
                                let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
                                let ext = extract_app(&crawled[i]).map_err(CoreError::from);
                                spent += t0.elapsed();
                                crashpoint::hit(CrashPoint::AppExtract);
                                let failed = ext.is_err();
                                out.push((i, ext));
                                if failed {
                                    break;
                                }
                            }
                            (out, spent)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("extraction worker panicked"))
                    .collect()
            });
        for (worker_out, spent) in phase1 {
            timers.extract += spent;
            for (i, ext) in worker_out {
                extractions[i] = Some(ext);
            }
        }

        // Phase 2 — model analysis. Units are the individual model files
        // of every successfully extracted app, enumerated app-major in
        // corpus order (the merge below walks the same sequence).
        let mut found: Vec<&FoundModel> = Vec::new();
        for ext in extractions.iter().flatten().flatten() {
            found.extend(&ext.models);
        }
        // Units with byte-identical content form one group, represented by
        // its first unit in corpus order. Only representatives are
        // scheduled, sized by their file bytes; the rest attach to their
        // representative's outcome after the phase.
        let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
        let rep_of = if group && use_cache {
            content_groups(&found)
        } else {
            (0..found.len()).collect()
        };
        timers.checksum += t0.elapsed();
        let reps: Vec<usize> = (0..found.len()).filter(|&u| rep_of[u] == u).collect();
        let model_units: Vec<WorkUnit> = reps
            .iter()
            .enumerate()
            .map(|(index, &u)| WorkUnit {
                index,
                size: found[u].files.iter().map(|(_, b)| b.len() as u64).sum(),
            })
            .collect();
        let model_plan = assign(&model_units, workers, mode, seed);
        let mut outcomes: Vec<Option<(String, ModelOutcome)>> =
            (0..found.len()).map(|_| None).collect();
        // Per-worker output: (unit sequence number, (checksum, outcome))
        // pairs plus the worker's stage timers.
        type AnalyseShard = (Vec<(usize, (String, ModelOutcome))>, StageTimers);
        let phase2: Vec<AnalyseShard> = {
            let cache = &cache;
            let reps = &reps;
            let found = &found;
            std::thread::scope(|scope| {
                let handles: Vec<_> = model_plan
                    .iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut t = StageTimers::default();
                            let mut out = Vec::new();
                            for &k in shard {
                                let u = reps[k];
                                let found = found[u];
                                let t1 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
                                let checksum = model_checksum(&found.files);
                                t.checksum += t1.elapsed();
                                let outcome = if use_cache {
                                    cache.get_or_compute(&checksum, || {
                                        analyse_model(found.framework, &found.files, &mut t)
                                    })
                                } else {
                                    analyse_model(found.framework, &found.files, &mut t)
                                };
                                crashpoint::hit(CrashPoint::ModelAnalysis);
                                out.push((u, (checksum, outcome)));
                            }
                            (out, t)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("analysis worker panicked"))
                    .collect()
            })
        };
        for (worker_out, t) in phase2 {
            timers.checksum += t.checksum;
            timers.decode += t.decode;
            timers.trace += t.trace;
            for (u, pair) in worker_out {
                outcomes[u] = Some(pair);
            }
        }
        // Fan-out: every other member takes its representative's checksum
        // and attaches through the cache, counting a hit exactly as it
        // would had it hashed its own copy.
        for u in 0..found.len() {
            let r = rep_of[u];
            if r != u {
                let (checksum, _) = outcomes[r]
                    .as_ref()
                    .expect("a representative precedes its members");
                let checksum = checksum.clone();
                let outcome = cache.get_or_compute(&checksum, || {
                    unreachable!("the representative filled this slot in phase 2")
                });
                outcomes[u] = Some((checksum, outcome));
            }
        }

        // Merge in corpus-index order, replicating the sequential loop.
        let mut apps: Vec<AppExtraction> = Vec::with_capacity(crawled.len());
        let mut models: Vec<ModelRecord> = Vec::new();
        let mut model_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut model_apps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut instances = Vec::new();
        let mut index = Index::new();
        let mut composition = LayerComposition::default();
        let mut failed_candidates = 0usize;
        let mut models_outside_apk = 0usize;

        let mut seq = 0usize;
        for (i, app) in crawled.iter().enumerate() {
            let extraction = extractions[i]
                .take()
                .expect("every app before the first error is extracted")?;
            failed_candidates += extraction.failed_candidates;
            models_outside_apk += extraction.models_outside_apk();
            index.insert(doc([
                ("package", app.meta.package.as_str().into()),
                ("category", app.meta.category.as_str().into()),
                ("downloads", app.meta.downloads.into()),
                ("rating", (app.meta.rating as f64).into()),
                ("is_ml", extraction.is_ml_app().into()),
                ("has_models", (!extraction.models.is_empty()).into()),
                ("uses_cloud", (!extraction.cloud.is_empty()).into()),
                ("uses_nnapi", extraction.uses_nnapi.into()),
            ]));
            for found in &extraction.models {
                let (checksum, outcome) = outcomes[seq]
                    .take()
                    .expect("one phase-2 unit per model of an extracted app");
                seq += 1;
                let analysis = match outcome {
                    Ok(a) => a,
                    Err(AnalyzeFailure::Undecodable) => {
                        // A file can pass the cheap signature probe yet
                        // still be undecodable (truncated or corrupted
                        // body); such instances drop out of the
                        // benchmarkable set like the paper's obfuscated
                        // tail, they do not abort the run.
                        failed_candidates += 1;
                        continue;
                    }
                    Err(AnalyzeFailure::Trace(e)) => {
                        return Err(CoreError::Other(format!("trace: {e}")));
                    }
                };
                instances.push(InstanceRecord {
                    app: extraction.package.clone(),
                    category: extraction.category.clone(),
                    path: found.files[0].0.clone(),
                    checksum: checksum.clone(),
                });
                model_apps
                    .entry(checksum.clone())
                    .or_default()
                    .insert(extraction.package.clone());
                if model_index.contains_key(&checksum) {
                    continue;
                }
                // First sighting in corpus order: materialise the record.
                if let Some(c) = &analysis.classification {
                    let modality = c.task.modality();
                    for (family, count) in &analysis.layer_families {
                        *composition
                            .counts
                            .entry((modality, family.clone()))
                            .or_default() += count;
                    }
                }
                model_index.insert(checksum.clone(), models.len());
                models.push(ModelRecord {
                    checksum,
                    name: analysis.name.clone(),
                    framework: found.framework,
                    size_bytes: found.files.iter().map(|(_, b)| b.len()).sum(),
                    trace: analysis.trace.clone(),
                    classification: analysis.classification,
                    optim: analysis.optim,
                    layers: analysis.layers.clone(),
                    layer_families: analysis.layer_families.clone(),
                    app_count: 0,
                });
            }
            apps.push(extraction);
        }
        for m in &mut models {
            m.app_count = model_apps.get(&m.checksum).map_or(0, |s| s.len());
        }

        let (cache_hits, cache_misses) = cache.counters();
        let (persistent_hits, persistent_stores) = cache.persistent_counters();
        let stats = AnalysisStats {
            workers,
            apps: apps.len(),
            instances: cache_hits + cache_misses,
            cache_hits,
            cache_misses,
            unique_analysed: models.len() as u64,
            persistent_hits,
            persistent_stores,
            extract_us: timers.extract.as_micros() as u64,
            checksum_us: timers.checksum.as_micros() as u64,
            decode_us: timers.decode.as_micros() as u64,
            trace_us: timers.trace.as_micros() as u64,
        };

        // End-of-run compaction sweep: with `GAUGENN_CACHE_MAX_BYTES`
        // set, the cache directory is back under budget before the run
        // reports success (DESIGN.md §12).
        if let Some(store) = &store_handle {
            store.compact_if_over();
        }

        Ok(AnalysisOutput {
            apps,
            models,
            model_index,
            instances,
            index,
            composition,
            failed_candidates,
            models_outside_apk,
            stats,
        })
    }
}

/// Group model units by exact content: the path-sorted sequence of file
/// byte strings that [`model_checksum`] streams. Returns, per unit, the
/// index of its group's representative, the group's first unit.
///
/// Units are bucketed by the per-file `(length, crc32)` the container
/// parser already verified, and a unit joins a group only when its bytes
/// equal the representative's (`==` on the slices), so a crc collision
/// costs one comparison and never merges two contents. Equal content
/// implies an equal checksum; two groups may still share one (the same
/// bytes split differently across files), and then their
/// representatives meet in the cache as two instances of one checksum
/// always did.
fn content_groups(found: &[&FoundModel]) -> Vec<usize> {
    let mut buckets: BTreeMap<Vec<(usize, u32)>, Vec<usize>> = BTreeMap::new();
    let mut rep_of = Vec::with_capacity(found.len());
    for (u, m) in found.iter().enumerate() {
        let files = path_sorted(m);
        let key = files.iter().map(|&(b, crc)| (b.len(), crc)).collect();
        let reps = buckets.entry(key).or_default();
        // Tuple `==` compares the byte slices themselves.
        let rep = reps
            .iter()
            .copied()
            .find(|&r| path_sorted(found[r]) == files);
        rep_of.push(rep.unwrap_or_else(|| {
            reps.push(u);
            u
        }));
    }
    rep_of
}

/// `(bytes, crc32)` of a unit's files in the order [`model_checksum`]
/// streams them: a stable sort by path.
fn path_sorted(m: &FoundModel) -> Vec<(&[u8], u32)> {
    let mut files: Vec<(&str, &[u8], u32)> = m
        .files
        .iter()
        .zip(&m.crcs)
        .map(|((path, bytes), &crc)| (path.as_str(), bytes.as_slice(), crc))
        .collect();
    files.sort_by(|a, b| a.0.cmp(b.0));
    files
        .into_iter()
        .map(|(_, bytes, crc)| (bytes, crc))
        .collect()
}

/// The expensive once-per-unique-checksum work: decode, trace, classify,
/// inspect, layer-checksum.
fn analyse_model(
    framework: Framework,
    files: &[(String, Vec<u8>)],
    timers: &mut StageTimers,
) -> ModelOutcome {
    let t0 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
    let graph = match gaugenn_modelfmt::decode(framework, files) {
        Ok(g) => g,
        Err(_) => {
            timers.decode += t0.elapsed();
            return Err(AnalyzeFailure::Undecodable);
        }
    };
    timers.decode += t0.elapsed();

    let t1 = Instant::now(); // gaugelint: deterministic-via(clock) — stage timers are diagnostics, never rendered into the deterministic report
    let trace = match trace_graph(&graph) {
        Ok(t) => t,
        Err(e) => {
            timers.trace += t1.elapsed();
            return Err(AnalyzeFailure::Trace(e.to_string()));
        }
    };
    let classification = classify_graph(&graph);
    let mut layer_families = BTreeMap::new();
    for n in &graph.nodes {
        if !matches!(n.kind, LayerKind::Input { .. }) {
            *layer_families
                .entry(n.kind.family().to_string())
                .or_default() += 1;
        }
    }
    let analysis = ModelAnalysis {
        name: graph.name.clone(),
        classification,
        optim: inspect(&graph),
        layers: layer_checksums(&graph),
        trace,
        layer_families,
    };
    timers.trace += t1.elapsed();
    Ok(Arc::new(analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_playstore::corpus::{generate, CorpusScale, Snapshot};
    use gaugenn_playstore::crawler::Crawler;
    use gaugenn_playstore::server::StoreServer;

    fn crawl_tiny() -> Vec<CrawledApp> {
        let server = StoreServer::start(generate(CorpusScale::Tiny, Snapshot::Y2021, 7)).unwrap();
        let mut c = Crawler::builder_at(server.endpoint()).build().unwrap();
        c.crawl_all().unwrap().apps
    }

    fn checksums(out: &AnalysisOutput) -> Vec<&str> {
        out.models.iter().map(|m| m.checksum.as_str()).collect()
    }

    /// A hand-built app whose APK ships `assets` (path, bytes) pairs.
    fn app_with(package: &str, assets: &[(&str, &[u8])]) -> CrawledApp {
        let mut b = gaugenn_apk::ApkBuilder::new(package, 1);
        for (path, bytes) in assets {
            b.add_asset(path, bytes.to_vec()).unwrap();
        }
        CrawledApp {
            meta: gaugenn_playstore::crawler::AppMeta {
                package: package.to_string(),
                title: package.to_string(),
                category: "TOOLS".to_string(),
                downloads: 1000,
                rating: 4.0,
                version_code: 1,
                has_obb: false,
                has_bundle: false,
            },
            apk: b.finish().unwrap(),
            obbs: vec![],
            bundle: None,
        }
    }

    /// A decodable single-file TFLite model.
    fn tflite_model(seed: u64) -> Vec<u8> {
        use gaugenn_dnn::zoo::{build_for_task, SizeClass};
        let model = build_for_task(
            gaugenn_dnn::task::Task::MovementTracking,
            seed,
            SizeClass::Small,
            true,
        );
        let artifact = gaugenn_modelfmt::encode(&model.graph, Framework::TfLite).unwrap();
        artifact.files[0].1.clone()
    }

    /// Rewrite `data[at..at + 4]` so that `crc32(data) == target`. CRC-32
    /// is affine over GF(2) for a fixed length, and any 32 consecutive
    /// bits span its whole range, so one 4-byte window always suffices.
    fn forge_crc(data: &mut [u8], at: usize, target: u32) {
        use gaugenn_apk::crc32::crc32;
        data[at..at + 4].fill(0);
        let base = crc32(data);
        // basis[b]: a crc change whose top bit is b, and the window bits
        // that produce it.
        let mut basis = [(0u32, 0u32); 32];
        for i in 0..32 {
            data[at + i / 8] ^= 1 << (i % 8);
            let (mut v, mut w) = (crc32(data) ^ base, 1u32 << i);
            data[at + i / 8] ^= 1 << (i % 8);
            for b in (0..32).rev() {
                if v >> b & 1 == 0 {
                    continue;
                }
                if basis[b].0 == 0 {
                    basis[b] = (v, w);
                    break;
                }
                v ^= basis[b].0;
                w ^= basis[b].1;
            }
        }
        let (mut v, mut w) = (target ^ base, 0u32);
        for b in (0..32).rev() {
            if v >> b & 1 == 1 {
                v ^= basis[b].0;
                w ^= basis[b].1;
            }
        }
        assert_eq!(v, 0, "a 4-byte window spans every crc");
        data[at..at + 4].copy_from_slice(&w.to_le_bytes());
        assert_eq!(crc32(data), target);
    }

    /// Everything the merge produces that a caller can observe, minus
    /// wall-clock timings and the persistent-store counters.
    fn assert_same_output(a: &AnalysisOutput, b: &AnalysisOutput, what: &str) {
        assert_eq!(checksums(a), checksums(b), "{what}");
        let models = |o: &AnalysisOutput| -> Vec<(String, String, usize, usize)> {
            o.models
                .iter()
                .map(|m| {
                    (
                        m.checksum.clone(),
                        m.name.clone(),
                        m.size_bytes,
                        m.app_count,
                    )
                })
                .collect()
        };
        assert_eq!(models(a), models(b), "{what}");
        let instances = |o: &AnalysisOutput| -> Vec<(String, String, String)> {
            o.instances
                .iter()
                .map(|i| (i.app.clone(), i.path.clone(), i.checksum.clone()))
                .collect()
        };
        assert_eq!(instances(a), instances(b), "{what}");
        assert_eq!(a.model_index, b.model_index, "{what}");
        assert_eq!(a.composition.counts, b.composition.counts, "{what}");
        assert_eq!(a.failed_candidates, b.failed_candidates, "{what}");
        let stats = |o: &AnalysisOutput| {
            let s = &o.stats;
            (s.instances, s.cache_hits, s.cache_misses, s.unique_analysed)
        };
        assert_eq!(stats(a), stats(b), "{what}");
    }

    #[test]
    fn content_grouping_never_changes_the_output() {
        let apps = crawl_tiny();
        // The Tiny corpus plants cross-app copies, so grouping has work:
        // fewer distinct contents than instances, and one per checksum.
        let extractions: Vec<AppExtraction> =
            apps.iter().map(|a| extract_app(a).unwrap()).collect();
        let found: Vec<&FoundModel> = extractions.iter().flat_map(|e| &e.models).collect();
        let rep_of = content_groups(&found);
        let groups = (0..found.len()).filter(|&u| rep_of[u] == u).count();
        let distinct: BTreeSet<String> = found.iter().map(|m| model_checksum(&m.files)).collect();
        assert!(
            groups < found.len(),
            "{groups} groups of {} units",
            found.len()
        );
        assert_eq!(groups, distinct.len());
        for workers in [1usize, 2, 4] {
            let pool = AnalysisPool::new(AnalysisConfig::with_workers(workers));
            let grouped = pool.run(&apps, true).unwrap();
            let per_instance = pool.run(&apps, false).unwrap();
            assert_same_output(&grouped, &per_instance, &format!("{workers} workers"));
            assert_eq!(grouped.stats.cache_misses as usize, distinct.len());
        }
    }

    #[test]
    fn crc_collision_is_not_a_content_match() {
        let a = tflite_model(11);
        // Flip one weight byte, then patch four more weight bytes so the
        // crc32 matches `a`'s again: same length, same crc, other bytes.
        let graph =
            gaugenn_modelfmt::decode(Framework::TfLite, &[("m.tflite".into(), a.clone())]).unwrap();
        let weights = graph
            .nodes
            .iter()
            .find_map(|n| n.weights.as_ref())
            .unwrap()
            .to_bytes();
        assert!(weights.len() >= 64);
        let at = a.windows(64).position(|w| w == &weights[..64]).unwrap();
        let mut b = a.clone();
        b[at + 20] ^= 0x01;
        forge_crc(&mut b, at + 40, gaugenn_apk::crc32::crc32(&a));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        for bytes in [&a, &b] {
            gaugenn_modelfmt::decode(Framework::TfLite, &[("m.tflite".into(), bytes.clone())])
                .expect("both variants decode");
        }
        let apps = vec![
            app_with("com.t.a", &[("m.tflite", &a)]),
            app_with("com.t.b", &[("m.tflite", &b)]),
            app_with("com.t.a2", &[("copy.tflite", &a)]),
        ];
        // The extracted units really do share a bucket key.
        let ext: Vec<AppExtraction> = apps.iter().map(|x| extract_app(x).unwrap()).collect();
        assert_eq!(ext[0].models[0].crcs, ext[1].models[0].crcs);
        let found: Vec<&FoundModel> = ext.iter().map(|e| &e.models[0]).collect();
        assert_eq!(content_groups(&found), vec![0, 1, 0]);
        for workers in [1usize, 2] {
            let out = AnalysisPool::new(AnalysisConfig::with_workers(workers))
                .analyse(&apps)
                .unwrap();
            assert_eq!(out.models.len(), 2, "{workers} workers");
            assert_eq!(
                out.models[0].checksum,
                model_checksum(&ext[0].models[0].files)
            );
            assert_eq!(
                out.models[1].checksum,
                model_checksum(&ext[1].models[0].files)
            );
            assert_ne!(out.models[0].checksum, out.models[1].checksum);
            assert_eq!(out.models[0].app_count, 2);
            assert_eq!(out.instances[2].checksum, out.models[0].checksum);
            assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (1, 2));
        }
    }

    #[test]
    fn undecodable_copies_charge_one_failure_per_instance() {
        // A valid TFLite signature over a garbage body: the probe keeps
        // it, decode rejects it.
        let mut fake = Vec::new();
        fake.extend_from_slice(&8u32.to_le_bytes());
        fake.extend_from_slice(b"TFL3");
        fake.extend_from_slice(&3u32.to_le_bytes());
        fake.extend_from_slice(&[0xFF; 64]);
        let good = tflite_model(5);
        let apps = vec![
            app_with("com.t.one", &[("bad.tflite", &fake), ("ok.tflite", &good)]),
            app_with("com.t.two", &[("bad.tflite", &fake)]),
            app_with("com.t.three", &[("renamed.tflite", &fake)]),
        ];
        for workers in [1usize, 3] {
            let pool = AnalysisPool::new(AnalysisConfig::with_workers(workers));
            let grouped = pool.run(&apps, true).unwrap();
            assert_eq!(grouped.failed_candidates, 3, "{workers} workers");
            assert_eq!(grouped.instances.len(), 1);
            assert_eq!(grouped.models.len(), 1);
            assert_eq!(
                (grouped.stats.cache_hits, grouped.stats.cache_misses),
                (2, 2)
            );
            assert_same_output(&grouped, &pool.run(&apps, false).unwrap(), "ungrouped");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_output() {
        let apps = crawl_tiny();
        let one = AnalysisPool::new(AnalysisConfig::with_workers(1))
            .analyse(&apps)
            .unwrap();
        for workers in [2usize, 4, 8] {
            let n = AnalysisPool::new(AnalysisConfig::with_workers(workers))
                .analyse(&apps)
                .unwrap();
            assert_eq!(checksums(&n), checksums(&one), "{workers} workers");
            assert_eq!(n.instances.len(), one.instances.len());
            assert_eq!(n.failed_candidates, one.failed_candidates);
            assert_eq!(n.composition.counts, one.composition.counts);
            assert_eq!(n.index.len(), one.index.len());
            assert_eq!(
                n.stats.cache_hits, one.stats.cache_hits,
                "{workers} workers"
            );
            assert_eq!(n.stats.cache_misses, one.stats.cache_misses);
        }
    }

    #[test]
    fn cache_dedups_duplicate_models() {
        let apps = crawl_tiny();
        let out = AnalysisPool::new(AnalysisConfig::with_workers(4))
            .analyse(&apps)
            .unwrap();
        // The corpus plants cross-app duplicates, so some instances must
        // attach to an already-analysed checksum.
        assert!(out.stats.cache_hits > 0, "{:?}", out.stats);
        assert_eq!(
            out.stats.cache_hits + out.stats.cache_misses,
            out.stats.instances
        );
        // Decodable uniques are a subset of the misses (undecodable
        // candidates also claim a slot, once each).
        assert!(out.stats.unique_analysed <= out.stats.cache_misses);
        assert_eq!(out.stats.unique_analysed as usize, out.models.len());
    }

    #[test]
    fn cache_disabled_matches_cached_output() {
        let apps = crawl_tiny();
        let cached = AnalysisPool::new(AnalysisConfig::with_workers(2))
            .analyse(&apps)
            .unwrap();
        let uncached = AnalysisPool::new(AnalysisConfig {
            workers: 2,
            dedup_cache: false,
            ..AnalysisConfig::default()
        })
        .analyse(&apps)
        .unwrap();
        assert_eq!(checksums(&uncached), checksums(&cached));
        assert_eq!(uncached.failed_candidates, cached.failed_candidates);
        assert_eq!(uncached.stats.cache_hits, 0, "no cache, no hits");
    }

    #[test]
    fn model_index_points_at_models() {
        let apps = crawl_tiny();
        let out = AnalysisPool::new(AnalysisConfig::default())
            .analyse(&apps)
            .unwrap();
        assert_eq!(out.model_index.len(), out.models.len());
        for (sum, &i) in &out.model_index {
            assert_eq!(&out.models[i].checksum, sum);
        }
    }

    #[test]
    fn compute_once_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let cache = ModelCache::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100 {
                        let key = format!("checksum-{}", i % 10);
                        let _ = cache.get_or_compute(&key, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            Err(AnalyzeFailure::Undecodable)
                        });
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 10, "one compute per key");
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 10);
        assert_eq!(hits, 800 - 10);
    }

    #[test]
    fn sched_mode_does_not_change_the_output() {
        let apps = crawl_tiny();
        let base = AnalysisPool::new(AnalysisConfig {
            workers: 3,
            sched: SchedMode::Static,
            ..AnalysisConfig::default()
        })
        .analyse(&apps)
        .unwrap();
        for mode in [SchedMode::Lpt, SchedMode::Stealing] {
            let out = AnalysisPool::new(AnalysisConfig {
                workers: 3,
                sched: mode,
                sched_seed: 0xBEEF,
                ..AnalysisConfig::default()
            })
            .analyse(&apps)
            .unwrap();
            assert_eq!(checksums(&out), checksums(&base), "{mode:?}");
            assert_eq!(out.instances.len(), base.instances.len());
            assert_eq!(out.stats.cache_hits, base.stats.cache_hits, "{mode:?}");
            assert_eq!(out.stats.cache_misses, base.stats.cache_misses);
            assert_eq!(out.composition.counts, base.composition.counts);
            assert_eq!(out.failed_candidates, base.failed_candidates);
        }
    }

    #[test]
    fn persistent_cache_attaches_second_run() {
        let apps = crawl_tiny();
        let dir = std::env::temp_dir().join(format!("gaugenn-warm-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |workers| AnalysisConfig {
            workers,
            cache_dir: Some(dir.clone()),
            ..AnalysisConfig::default()
        };
        let cold = AnalysisPool::new(cfg(2)).analyse(&apps).unwrap();
        assert_eq!(cold.stats.persistent_hits, 0, "{:?}", cold.stats);
        assert!(cold.stats.persistent_stores > 0, "{:?}", cold.stats);
        // A second pool over the same directory attaches to the first
        // run's analyses, even at a different worker count.
        let warm = AnalysisPool::new(cfg(4)).analyse(&apps).unwrap();
        assert!(warm.stats.persistent_hits > 0, "{:?}", warm.stats);
        assert!(warm.stats.persistent_hit_rate() > 0.0);
        // Disk state must not leak into the deterministic counters or
        // the merged content.
        assert_eq!(warm.stats.cache_hits, cold.stats.cache_hits);
        assert_eq!(warm.stats.cache_misses, cold.stats.cache_misses);
        assert_eq!(checksums(&warm), checksums(&cold));
        assert_eq!(warm.instances.len(), cold.instances.len());
        assert_eq!(warm.failed_candidates, cold.failed_candidates);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
