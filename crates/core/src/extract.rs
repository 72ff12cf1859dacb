//! Per-app model extraction and code analysis (§3.1–§3.2).
//!
//! Given one downloaded app (APK + optional OBBs/bundle), this module:
//!
//! * walks candidate files, applies the extension pre-filter and binary
//!   signature validation, and pairs split-format parts (caffe's
//!   `.prototxt`+`.caffemodel`, ncnn's `.param`+`.bin`);
//! * detects ML frameworks via native-library and dex string inclusion
//!   (catching obfuscated-model apps — §3.1);
//! * scans smali for cloud ML API call sites and hardware-acceleration
//!   markers (NNAPI / XNNPACK / SNPE — §6.3);
//! * scans expansion files and asset packs for models distributed outside
//!   the base APK (the §4.2 measurement).

use gaugenn_analysis::cloudapi::{self, Provider};
use gaugenn_apk::bundle::Bundle;
use gaugenn_apk::obb::Obb;
use gaugenn_apk::zip::ZipEntry;
use gaugenn_apk::{nativelib, Apk};
use gaugenn_modelfmt::validate::FileRole;
use gaugenn_modelfmt::{validate, Framework};
use gaugenn_playstore::crawler::CrawledApp;

/// A validated model found in an app: one or more files forming one model.
#[derive(Debug, Clone)]
pub struct FoundModel {
    /// Framework.
    pub framework: Framework,
    /// `(entry_path, bytes)` of every file of the model, primary first.
    pub files: Vec<(String, Vec<u8>)>,
    /// CRC-32 of each of `files`, in the same order: for APK and OBB
    /// entries the value the zip parser already verified, so keying a
    /// model by content costs no further pass over its bytes (asset-pack
    /// files, whose parsed form drops it, are crc'd on extraction).
    pub crcs: Vec<u32>,
    /// Where it was found.
    pub source: ModelSource,
}

impl FoundModel {
    fn new(framework: Framework, entries: Vec<ZipEntry>, source: ModelSource) -> FoundModel {
        let crcs = entries.iter().map(|e| e.crc32).collect();
        FoundModel {
            framework,
            files: entries.into_iter().map(|e| (e.name, e.data)).collect(),
            crcs,
            source,
        }
    }
}

/// Where in the app distribution a model was located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// Inside the base APK.
    BaseApk,
    /// Inside an OBB expansion file.
    Obb,
    /// Inside a bundle asset pack.
    AssetPack,
}

/// Result of extracting one app.
#[derive(Debug, Clone)]
pub struct AppExtraction {
    /// Package name.
    pub package: String,
    /// Store category.
    pub category: String,
    /// Validated models, ready to decode.
    pub models: Vec<FoundModel>,
    /// Candidate files that matched an extension but failed signature
    /// validation (encrypted/obfuscated/decoys).
    pub failed_candidates: usize,
    /// ML frameworks detected via library inclusion (independent of model
    /// extraction).
    pub frameworks_by_libs: Vec<Framework>,
    /// Cloud ML API providers invoked from code.
    pub cloud: Vec<Provider>,
    /// NNAPI delegate usage detected.
    pub uses_nnapi: bool,
    /// XNNPACK usage detected.
    pub uses_xnnpack: bool,
    /// SNPE usage detected.
    pub uses_snpe: bool,
    /// On-device training / transfer-learning markers detected (§4.5:
    /// "we checked for traces of online fine-tuning done on device (e.g.
    /// through TFLiteTransferConverter) and found none").
    pub uses_on_device_training: bool,
}

impl AppExtraction {
    /// An app counts as ML-powered when it has models or ships framework
    /// libraries (§3.1: obfuscated models are "tracked … indirectly by
    /// means of library inclusion").
    pub fn is_ml_app(&self) -> bool {
        !self.models.is_empty() || !self.frameworks_by_libs.is_empty()
    }

    /// Models found outside the base APK (the §4.2 headline is zero).
    pub fn models_outside_apk(&self) -> usize {
        self.models
            .iter()
            .filter(|m| m.source != ModelSource::BaseApk)
            .count()
    }
}

/// Extract one crawled app.
pub fn extract_app(app: &CrawledApp) -> Result<AppExtraction, gaugenn_apk::ApkError> {
    let apk = Apk::parse(&app.apk)?;
    let package = apk.package().to_string();

    // Library-inclusion analysis (native libs + dex strings).
    let mut frameworks = Vec::new();
    let mut lib_strings: Vec<String> = Vec::new();
    for (soname, bytes) in apk.native_libs() {
        lib_strings.push(soname.to_string());
        if let Ok(strings) = nativelib::extract_strings(bytes) {
            lib_strings.extend(strings);
        }
    }
    let smali = apk.dex().map(|d| d.to_smali()).unwrap_or_default();
    let haystack = format!("{smali}\n{}", lib_strings.join("\n"));
    for (fw, markers) in FRAMEWORK_MARKERS {
        if markers.iter().any(|m| haystack.contains(m)) {
            frameworks.push(*fw);
        }
    }

    // The model funnel consumes the parsed containers: candidate entries
    // move out with their payloads, and only validated ones are kept.
    let mut models = Vec::new();
    let mut failed = 0usize;
    collect_models(
        apk.into_candidate_files(),
        ModelSource::BaseApk,
        &mut models,
        &mut failed,
    );
    // Expansion files and asset packs (§4.2): same funnel, different source.
    for (name, bytes) in &app.obbs {
        if let Ok(obb) = Obb::parse(name, bytes) {
            collect_models(
                obb.archive.into_entries().into_iter(),
                ModelSource::Obb,
                &mut models,
                &mut failed,
            );
        }
    }
    if let Some(bundle_bytes) = &app.bundle {
        if let Ok(bundle) = Bundle::parse(bundle_bytes) {
            for pack in bundle.packs {
                collect_models(
                    pack.files
                        .into_iter()
                        .map(|(path, bytes)| ZipEntry::new(path, bytes)),
                    ModelSource::AssetPack,
                    &mut models,
                    &mut failed,
                );
            }
        }
    }

    Ok(AppExtraction {
        package,
        category: app.meta.category.clone(),
        models,
        failed_candidates: failed,
        frameworks_by_libs: frameworks,
        cloud: cloudapi::scan_smali(&smali),
        uses_nnapi: haystack.contains("org/tensorflow/lite/nnapi/NnApiDelegate"),
        uses_xnnpack: haystack.contains("TFLITE_ENABLE_XNNPACK")
            || haystack.contains("libxnnpack.so"),
        uses_snpe: haystack.contains("com/qualcomm/qti/snpe") || haystack.contains("libSNPE.so"),
        uses_on_device_training: haystack.contains("TFLiteTransferConverter")
            || haystack.contains("org/tensorflow/lite/transfer"),
    })
}

/// Library-inclusion markers per framework (Xu et al. [70] methodology).
const FRAMEWORK_MARKERS: &[(Framework, &[&str])] = &[
    (
        Framework::TfLite,
        &["libtensorflowlite_jni.so", "org/tensorflow/lite/Interpreter"],
    ),
    (Framework::Caffe, &["libcaffe_jni.so", "caffe::Net"]),
    (Framework::Ncnn, &["libncnn.so", "com/tencent/ncnn"]),
    (
        Framework::TensorFlow,
        &["libtensorflow_inference.so", "org/tensorflow/TensorFlowInferenceInterface"],
    ),
    (Framework::Snpe, &["libSNPE.so", "com/qualcomm/qti/snpe"]),
];

/// Run the validation funnel over an entry iterator and assemble models,
/// pairing split formats by file stem. Validation reads each entry by
/// reference; entries that fail it are dropped without being copied.
fn collect_models(
    entries: impl Iterator<Item = ZipEntry>,
    source: ModelSource,
    models: &mut Vec<FoundModel>,
    failed: &mut usize,
) {
    // First pass: validate everything, remembering split-format parts.
    let mut complete: Vec<(Framework, ZipEntry)> = Vec::new();
    let mut graph_parts: Vec<(Framework, ZipEntry)> = Vec::new();
    let mut weight_parts: Vec<(Framework, ZipEntry)> = Vec::new();
    for entry in entries {
        let file_name = entry.name.rsplit('/').next().unwrap_or(&entry.name);
        match validate(file_name, &entry.data) {
            Some(v) => match v.role {
                FileRole::Complete => complete.push((v.framework, entry)),
                FileRole::GraphPart => graph_parts.push((v.framework, entry)),
                FileRole::WeightsPart => weight_parts.push((v.framework, entry)),
            },
            None => {
                if !gaugenn_modelfmt::formats::candidates_for(file_name).is_empty() {
                    *failed += 1;
                }
            }
        }
    }
    for (fw, entry) in complete {
        models.push(FoundModel::new(fw, vec![entry], source));
    }
    // Pair split formats by stem; a weights part without its graph part is
    // still a model (the codecs treat the binary part as authoritative).
    let stem = |p: &str| -> String {
        let name = p.rsplit('/').next().unwrap_or(p);
        name.split('.').next().unwrap_or(name).to_string()
    };
    for (fw, weights) in weight_parts {
        let wstem = stem(&weights.name);
        let mate = graph_parts
            .iter()
            .position(|(gfw, g)| *gfw == fw && stem(&g.name) == wstem);
        let mut files = vec![weights];
        if let Some(idx) = mate {
            files.push(graph_parts.remove(idx).1);
        }
        models.push(FoundModel::new(fw, files, source));
    }
    // Orphaned graph parts (a prototxt without weights) are not models.
    *failed += graph_parts.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_playstore::corpus::{generate, CorpusScale, ModelMemo, Snapshot};
    use gaugenn_playstore::crawler::AppMeta;

    fn crawl_tiny() -> Vec<CrawledApp> {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let memo = ModelMemo::new(&corpus.pool);
        corpus
            .apps
            .iter()
            .map(|a| {
                let apk = corpus.build_apk(a, &mut |id| memo.get(&corpus.pool, id));
                CrawledApp {
                    meta: AppMeta {
                        package: a.package.clone(),
                        title: a.title.clone(),
                        category: gaugenn_playstore::categories::CATEGORIES[a.category]
                            .name
                            .to_string(),
                        downloads: a.downloads,
                        rating: a.rating,
                        version_code: a.version_code,
                        has_obb: a.has_obb,
                        has_bundle: a.has_bundle,
                    },
                    apk,
                    obbs: vec![],
                    bundle: None,
                }
            })
            .collect()
    }

    #[test]
    fn extraction_finds_planted_structure() {
        let corpus = generate(CorpusScale::Tiny, Snapshot::Y2021, 7);
        let apps = crawl_tiny();
        let extractions: Vec<AppExtraction> =
            apps.iter().map(|a| extract_app(a).unwrap()).collect();
        let ml_apps = extractions.iter().filter(|e| e.is_ml_app()).count();
        assert_eq!(ml_apps, corpus.targets.ml_lib_apps as usize);
        let with_models = extractions.iter().filter(|e| !e.models.is_empty()).count();
        assert_eq!(
            with_models,
            (corpus.targets.ml_lib_apps - corpus.targets.obfuscated_apps) as usize
        );
        // Obfuscated apps: ML by libs, zero validated models, failed
        // candidates observed.
        let obf: Vec<&AppExtraction> = extractions
            .iter()
            .filter(|e| e.is_ml_app() && e.models.is_empty())
            .collect();
        assert_eq!(obf.len(), corpus.targets.obfuscated_apps as usize);
        assert!(obf.iter().all(|e| e.failed_candidates > 0));
        // Cloud APIs.
        let cloud = extractions.iter().filter(|e| !e.cloud.is_empty()).count();
        assert_eq!(cloud, corpus.targets.cloud_apps as usize);
        // Acceleration markers.
        let nnapi = extractions.iter().filter(|e| e.uses_nnapi).count();
        assert_eq!(nnapi, corpus.targets.nnapi_apps as usize);
        let snpe = extractions.iter().filter(|e| e.uses_snpe).count();
        assert_eq!(snpe, corpus.targets.snpe_apps as usize);
    }

    #[test]
    fn extracted_models_decode() {
        let apps = crawl_tiny();
        let mut decoded = 0;
        for app in &apps {
            let e = extract_app(app).unwrap();
            for m in &e.models {
                let g = gaugenn_modelfmt::decode(m.framework, &m.files)
                    .unwrap_or_else(|err| panic!("{}: {err}", app.meta.package));
                assert!(g.layer_count() > 0);
                decoded += 1;
            }
        }
        assert!(decoded > 0);
    }

    #[test]
    fn no_models_outside_base_apk_in_corpus() {
        // §4.2: the crawler checks OBBs and bundles and finds nothing.
        let apps = crawl_tiny();
        for app in &apps {
            let e = extract_app(app).unwrap();
            assert_eq!(e.models_outside_apk(), 0);
        }
    }
}
