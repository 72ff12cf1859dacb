//! End-to-end integration: the full pipeline (TCP store → crawler →
//! extraction → validation → offline analyses) with cross-crate
//! assertions that the *measured* corpus statistics reproduce the planted
//! structure.

use gaugenn::core::experiments::{backends, offline, runtime};
use gaugenn::core::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use gaugenn::playstore::corpus::{CorpusScale, Snapshot};
use gaugenn::soc::spec::all_devices;
use std::sync::OnceLock;

fn r2021() -> &'static PipelineReport {
    static CELL: OnceLock<PipelineReport> = OnceLock::new();
    CELL.get_or_init(|| {
        Pipeline::new(PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2021, 99).build())
            .run()
            .expect("pipeline")
    })
}

fn r2020() -> &'static PipelineReport {
    static CELL: OnceLock<PipelineReport> = OnceLock::new();
    CELL.get_or_init(|| {
        Pipeline::new(PipelineConfig::builder(CorpusScale::Tiny, Snapshot::Y2020, 99).build())
            .run()
            .expect("pipeline")
    })
}

#[test]
fn dataset_summary_matches_targets() {
    let r = r2021();
    let t = gaugenn::playstore::corpus::Targets::for_scale(
        gaugenn::playstore::corpus::CorpusScale::Tiny,
        Snapshot::Y2021,
    );
    assert_eq!(r.dataset.total_apps, t.total_apps as usize);
    assert_eq!(r.dataset.ml_apps, t.ml_lib_apps as usize);
    assert_eq!(
        r.dataset.benchmarkable_apps,
        (t.ml_lib_apps - t.obfuscated_apps) as usize
    );
    assert_eq!(r.dataset.cloud_apps, t.cloud_apps as usize);
    assert_eq!(r.dataset.nnapi_apps, t.nnapi_apps as usize);
    assert_eq!(r.dataset.snpe_apps, t.snpe_apps as usize);
}

#[test]
fn every_experiment_runs_on_the_same_report() {
    let r21 = r2021();
    let r20 = r2020();
    // Offline.
    assert!(!offline::tab2(r20, r21).render().is_empty());
    assert!(offline::tab3(r21).identified_fraction() > 0.5);
    assert!(!offline::fig4(r21).per_framework.is_empty());
    assert!(!offline::fig5(r20, r21).rows.is_empty());
    assert!(!offline::fig6(r21).rows.is_empty());
    assert!(!offline::fig7(r21).rows.is_empty());
    assert!(offline::sec45(r21).unique_models > 0);
    assert!(offline::sec61(r21).models > 0);
    assert!(offline::fig15(r21).total > 0);
    // Runtime.
    let sweep = runtime::latency_sweep(r21, &all_devices());
    assert_eq!(sweep.rows.len(), r21.models.len() * 6);
    assert!(!runtime::fig8(&sweep).fits.is_empty());
    assert!(!runtime::fig9(&sweep).ecdfs.is_empty());
    assert!(!runtime::fig10(r21).unwrap().rows.is_empty());
    assert!(!runtime::tab4(r21).unwrap().rows.is_empty());
    // Backends.
    assert!(backends::fig11(r21).common_models > 0);
    assert!(!backends::fig12(r21).rows.is_empty());
    assert!(!backends::fig13(r21).unwrap().rows.is_empty());
    assert!(!backends::fig14(r21).unwrap().rows.is_empty());
}

#[test]
fn snapshots_share_model_identities() {
    // Models present in both snapshots must have identical checksums —
    // otherwise Fig. 5's add/remove diff would be meaningless.
    let sums20: std::collections::BTreeSet<&str> = r2020()
        .models
        .iter()
        .map(|m| m.checksum.as_str())
        .collect();
    let sums21: std::collections::BTreeSet<&str> = r2021()
        .models
        .iter()
        .map(|m| m.checksum.as_str())
        .collect();
    let shared = sums20.intersection(&sums21).count();
    assert!(shared > 0, "snapshots must overlap in surviving models");
    assert!(
        sums21.len() > sums20.len(),
        "the 2021 snapshot must carry more unique models"
    );
}

#[test]
fn duplication_structure_survives_the_wire() {
    // §4.5: some models appear in multiple apps, byte-identical.
    let r = r2021();
    assert!(
        r.models.iter().any(|m| m.app_count >= 2),
        "at least one model must be shared across apps"
    );
    let d = offline::sec45(r);
    assert!(d.shared_instance_fraction > 0.0);
    assert_eq!(d.unique_models, r.models.len());
}

#[test]
fn snpe_apps_ship_dual_formats() {
    // §6.3: SNPE apps deploy both TFLite and dlc variants of one model.
    let r = r2021();
    let snpe_app = r
        .apps
        .iter()
        .find(|a| a.uses_snpe)
        .expect("tiny corpus has an SNPE app");
    let has_tflite = snpe_app
        .models
        .iter()
        .any(|m| m.framework == gaugenn::modelfmt::Framework::TfLite);
    let has_dlc = snpe_app
        .models
        .iter()
        .any(|m| m.framework == gaugenn::modelfmt::Framework::Snpe);
    assert!(has_tflite && has_dlc, "SNPE app must ship both variants");
}

#[test]
fn query_routes_serve_the_pipelines_index_under_chaos() {
    use gaugenn::index::{AppQuery, ModelQuery};
    use gaugenn::modelfmt::Framework;
    use gaugenn::playstore::corpus::generate;
    use gaugenn::playstore::{
        FaultKind, FaultPlan, FaultPlanConfig, QueryClient, ServerOptions, StoreServer,
    };

    let r = r2021();
    let index = r.corpus_index.clone();
    // The store injects resets and throttling statuses; two faults per
    // route stays inside the client's retry budget, so every query must
    // still succeed — through typed retries, never a panic.
    let chaos = FaultPlan::new(FaultPlanConfig {
        seed: 5,
        fault_permille: 350,
        kinds: vec![FaultKind::Reset, FaultKind::TransientStatus],
        max_faults_per_route: 2,
        ..FaultPlanConfig::default()
    });
    let server = StoreServer::start_with(
        generate(CorpusScale::Tiny, Snapshot::Y2021, 99),
        ServerOptions {
            chaos: Some(chaos),
            index: Some(index.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("server");
    let mut client = QueryClient::builder_at(server.endpoint()).build().expect("client");

    // Wire answers must agree with the in-process index and the analysed
    // corpus, ranked FLOPs-descending (the determinism contract).
    let all = client.models(&ModelQuery::default()).expect("model query");
    assert_eq!(all.len(), index.model_count());
    assert_eq!(all.len(), r.models.len());
    assert!(all.windows(2).all(|w| w[0].flops >= w[1].flops));

    // Per-framework slices partition consistently with the records.
    for fw in Framework::ALL {
        let slice = client
            .models(&ModelQuery {
                frameworks: vec![fw.name().to_string()],
                ..ModelQuery::default()
            })
            .expect("framework query");
        let expect = r.models.iter().filter(|m| m.framework == fw).count();
        assert_eq!(slice.len(), expect, "framework {}", fw.name());
    }

    let ml_apps = client
        .apps(&AppQuery {
            ml_only: true,
            ..AppQuery::default()
        })
        .expect("app query");
    assert_eq!(
        ml_apps.len(),
        r.apps.iter().filter(|a| a.is_ml_app()).count()
    );

    let stats = client.stats().expect("stats");
    assert!(stats.iter().any(|(k, _)| k == "models"));

    let st = client.transport_stats();
    assert!(
        st.retries + st.reconnects > 0,
        "chaos must have cost at least one retry across {} requests",
        st.requests
    );
}

#[test]
fn etl_index_answers_store_queries() {
    use gaugenn::analysis::etl::Filter;
    let r = r2021();
    let ml = r.index.count(&Filter::EqBool("is_ml".into(), true));
    assert_eq!(ml, r.dataset.ml_apps);
    let cats = r.index.terms("category", None);
    assert!(cats.len() >= 30, "category aggregation works");
    let popular = r
        .index
        .count(&Filter::Range("downloads".into(), 1e8, f64::INFINITY));
    assert!(popular < r.dataset.total_apps);
}
