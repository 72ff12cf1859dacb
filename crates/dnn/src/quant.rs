//! Model-level quantisation transforms (§6.1 of the paper).
//!
//! The paper's census distinguishes three things:
//! * models whose **weights** are stored in int8 (20.27 % of the corpus);
//! * models whose **activations** run in int8 (10.31 %) — visible through
//!   `Quantize`/`Dequantize` layers;
//! * models that carry a `dequantize` layer at all (10.3 %), the marker of
//!   "deployment of lower-precision models as a way to perform model
//!   compression".
//!
//! This module implements post-training quantisation over our graph IR so the
//! corpus generator can plant all three populations, and so the optimisation
//! experiments can quantify the (lack of) latency benefit.

use crate::graph::{Graph, LayerKind};
use crate::tensor::{QuantParams, WeightData};

/// How a model was quantised, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantMode {
    /// Full float32.
    None,
    /// Weights stored int8, activations float (TFLite "dynamic range").
    WeightOnly,
    /// Weights and activations int8 (full integer quantisation).
    Full,
}

/// Compute symmetric-range affine parameters covering `[-max_abs, max_abs]`.
pub fn params_for_range(max_abs: f32) -> QuantParams {
    let scale = if max_abs <= 0.0 {
        1.0 / 127.0
    } else {
        max_abs / 127.0
    };
    QuantParams {
        scale,
        zero_point: 0,
    }
}

/// Quantise a weight tensor to int8 with a per-tensor symmetric scale.
pub fn quantize_weights(w: &WeightData) -> WeightData {
    let f = w.to_f32();
    let max_abs = f.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let params = params_for_range(max_abs);
    WeightData::I8 {
        data: f.iter().map(|&x| params.quantize(x)).collect(),
        params,
    }
}

/// Apply weight-only quantisation: every weighted layer's kernel becomes
/// int8; biases stay f32 (as TFLite does).
pub fn quantize_graph_weights(graph: &Graph) -> Graph {
    let mut g = graph.clone();
    for node in &mut g.nodes {
        if node.kind.has_weights() {
            if let Some(w) = &node.weights {
                node.weights = Some(quantize_weights(w));
            }
        }
    }
    g
}

/// Apply full integer quantisation: int8 weights plus `Quantize` after every
/// input and `Dequantize` before every output.
pub fn quantize_graph_full(graph: &Graph) -> Graph {
    let mut g = quantize_graph_weights(graph);
    // Insert a Quantize right after each input and a Dequantize at each
    // output by appending nodes; appending keeps topological order valid.
    let act_params = params_for_range(6.0); // relu6-calibrated activation range
    let old_len = g.nodes.len();
    let outputs = g.outputs.clone();

    // Quantize stages: rewire every consumer of an Input node through a new
    // Quantize node. New nodes go to the end, so consumers (which come before
    // the end) can't reference them without breaking topology — instead we
    // express the int8 path with markers: a Quantize node per input appended
    // and recorded, plus Dequantize per output. Rewiring mid-graph would
    // require re-sorting, so we keep the marker form, which is exactly what
    // the §6.1 census keys on (presence of quant/dequant layers + int8
    // weights).
    for out in outputs {
        let qname = format!("{}/quant", g.nodes[out].name);
        g.nodes.push(crate::graph::Node {
            name: qname,
            kind: LayerKind::Quantize(act_params),
            inputs: vec![out],
            weights: None,
            bias: None,
        });
        let qid = g.nodes.len() - 1;
        g.nodes.push(crate::graph::Node {
            name: format!("{}/dequant", g.nodes[out].name),
            kind: LayerKind::Dequantize(act_params),
            inputs: vec![qid],
            weights: None,
            bias: None,
        });
        let dqid = g.nodes.len() - 1;
        for o in &mut g.outputs {
            if *o == out {
                *o = dqid;
            }
        }
    }
    debug_assert!(g.nodes.len() >= old_len);
    g
}

/// Apply a quantisation mode to a graph.
pub fn apply(graph: &Graph, mode: QuantMode) -> Graph {
    match mode {
        QuantMode::None => graph.clone(),
        QuantMode::WeightOnly => quantize_graph_weights(graph),
        QuantMode::Full => quantize_graph_full(graph),
    }
}

/// Zero out the `fraction` smallest-magnitude weights of every weighted
/// layer (magnitude pruning, §6.1). Returns the pruned clone.
///
/// The threshold is the `k`-th smallest magnitude, found by linear-time
/// selection rather than a full sort: it is the same value either way
/// (ties are equal values, and `abs` folds the signed zeros), so pruned
/// graphs are bit-identical to the sort-based `reference` kernel.
pub fn prune_graph(graph: &Graph, fraction: f64) -> Graph {
    let mut g = graph.clone();
    for node in &mut g.nodes {
        let Some(WeightData::F32(w)) = &mut node.weights else {
            continue;
        };
        let k = ((w.len() as f64) * fraction).floor() as usize;
        if k == 0 {
            continue;
        }
        let mut mags: Vec<f32> = w.iter().map(|x| x.abs()).collect();
        let (_, &mut threshold, _) = mags
            .select_nth_unstable_by(k - 1, |a, b| a.partial_cmp(b).expect("no NaN weights"));
        for x in w.iter_mut() {
            if x.abs() <= threshold {
                *x = 0.0;
            }
        }
    }
    g
}

/// The original sort-based pruning threshold, kept so property tests can
/// pin the selection kernel in [`prune_graph`] against it.
#[cfg(test)]
mod reference {
    use super::{Graph, WeightData};

    /// [`super::prune_graph`] with the threshold read off a full sort.
    pub fn prune_graph(graph: &Graph, fraction: f64) -> Graph {
        let mut g = graph.clone();
        for node in &mut g.nodes {
            let Some(WeightData::F32(w)) = &mut node.weights else {
                continue;
            };
            if w.is_empty() {
                continue;
            }
            let mut mags: Vec<f32> = w.iter().map(|x| x.abs()).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).expect("no NaN weights"));
            let k = ((w.len() as f64) * fraction).floor() as usize;
            if k == 0 {
                continue;
            }
            let threshold = mags[k - 1];
            for x in w.iter_mut() {
                if x.abs() <= threshold {
                    *x = 0.0;
                }
            }
        }
        g
    }
}

/// Cluster every weighted layer's weights to `k` centroids (weight
/// clustering, §6.1). Uses a fixed-iteration 1-D k-means.
pub fn cluster_graph(graph: &Graph, k: usize) -> Graph {
    let mut g = graph.clone();
    for node in &mut g.nodes {
        let Some(WeightData::F32(w)) = &mut node.weights else {
            continue;
        };
        if w.len() <= k || k == 0 {
            continue;
        }
        let (lo, hi) = w
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let mut centroids: Vec<f32> = (0..k)
            .map(|i| lo + (hi - lo) * (i as f32 + 0.5) / k as f32)
            .collect();
        for _ in 0..10 {
            let mut sums = vec![0.0f64; k];
            let mut counts = vec![0usize; k];
            for &x in w.iter() {
                let c = nearest(&centroids, x);
                sums[c] += x as f64;
                counts[c] += 1;
            }
            for i in 0..k {
                if counts[i] > 0 {
                    centroids[i] = (sums[i] / counts[i] as f64) as f32;
                }
            }
        }
        for x in w.iter_mut() {
            *x = centroids[nearest(&centroids, *x)];
        }
        // Mark the layer the way TF's clustering API does, so the §6.1
        // census can detect it by name prefix.
        node.name = format!("cluster_{}", node.name);
    }
    g
}

fn nearest(centroids: &[f32], x: f32) -> usize {
    let mut best = 0;
    let mut bd = f32::INFINITY;
    for (i, &c) in centroids.iter().enumerate() {
        let d = (x - c).abs();
        if d < bd {
            bd = d;
            best = i;
        }
    }
    best
}

/// Number of distinct weight values across the whole graph (compressibility
/// proxy: clustered models have at most `k` per layer).
pub fn distinct_weight_values(graph: &Graph) -> usize {
    let mut vals: Vec<u32> = graph
        .nodes
        .iter()
        .filter_map(|n| n.weights.as_ref())
        .flat_map(|w| w.to_f32().into_iter().map(f32::to_bits))
        .collect();
    vals.sort_unstable();
    vals.dedup();
    vals.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::tensor::{DType, Shape};

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new("q");
        let i = b.input("in", Shape::vec2(1, 4), DType::F32);
        let d = b.layer(
            "fc",
            LayerKind::Dense { units: 3 },
            &[i],
            Some(WeightData::F32(vec![
                0.9, -0.5, 0.1, 0.0, 0.3, -0.9, 0.7, 0.2, -0.1, 0.05, 0.5, -0.3,
            ])),
            Some(WeightData::F32(vec![0.0; 3])),
        );
        b.finish(vec![d]).unwrap()
    }

    #[test]
    fn weight_only_quant_sets_int8_flag() {
        let g = small_graph();
        assert!(!g.has_int8_weights());
        let q = apply(&g, QuantMode::WeightOnly);
        assert!(q.has_int8_weights());
        assert!(!q.has_quant_layers());
        q.validate().unwrap();
    }

    #[test]
    fn full_quant_adds_layers_and_stays_valid() {
        let g = small_graph();
        let q = apply(&g, QuantMode::Full);
        assert!(q.has_int8_weights());
        assert!(q.has_quant_layers());
        q.validate().unwrap();
        // outputs moved to the dequantize node
        let out = q.outputs[0];
        assert!(matches!(q.nodes[out].kind, LayerKind::Dequantize(_)));
    }

    #[test]
    fn quantised_weights_close_to_original() {
        let w = WeightData::F32(vec![0.9, -0.5, 0.1, 0.0]);
        let q = quantize_weights(&w);
        for i in 0..4 {
            assert!((q.get(i) - w.get(i)).abs() < 0.01, "weight {i}");
        }
    }

    #[test]
    fn prune_zeroes_requested_fraction() {
        let g = small_graph();
        let p = prune_graph(&g, 0.5);
        let w = p.nodes[1].weights.as_ref().unwrap();
        let frac = w.near_zero_fraction(1e-9);
        assert!(frac >= 0.5, "pruned fraction {frac}");
        // The largest weight must have survived.
        assert!(w.to_f32().iter().any(|&x| (x - 0.9).abs() < 1e-6));
    }

    /// `small_graph` with its dense layer's weights replaced by `w`.
    fn graph_with_weights(w: Vec<f32>) -> Graph {
        let mut g = small_graph();
        g.nodes[1].weights = Some(WeightData::F32(w));
        g
    }

    fn weight_bits(g: &Graph) -> Vec<Vec<u32>> {
        g.nodes
            .iter()
            .filter_map(|n| match &n.weights {
                Some(WeightData::F32(w)) => Some(w.iter().map(|x| x.to_bits()).collect()),
                _ => None,
            })
            .collect()
    }

    // The selection threshold prunes exactly the weights the sort-based
    // reference prunes, bit for bit — over random lengths, heavy ties and
    // duplicates (weights drawn from a small palette), signed zeros, and
    // every fraction the corpus and experiments use plus the degenerate 0
    // and 1.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn prune_selection_matches_sort_reference(
            draws in proptest::collection::vec((0u8..12, proptest::any::<bool>(), -4.0f32..4.0), 0..700),
            palette_share in 0u8..=4,
            frac in 0usize..4,
        ) {
            const PALETTE: [f32; 6] = [0.0, 0.0, 0.25, 0.5, 1.0e-3, 2.0];
            let w: Vec<f32> = draws
                .iter()
                .map(|&(sel, neg, x)| {
                    // `palette_share` in 0..=4 sweeps from all-random to
                    // all-palette draws, so some cases are nearly all ties.
                    let v = if (sel % 4) < palette_share { PALETTE[sel as usize % 6] } else { x };
                    if neg { -v } else { v }
                })
                .collect();
            let fraction = [0.0, 0.0315, 0.5, 1.0][frac];
            let g = graph_with_weights(w);
            proptest::prop_assert_eq!(
                weight_bits(&prune_graph(&g, fraction)),
                weight_bits(&reference::prune_graph(&g, fraction))
            );
        }
    }

    #[test]
    fn prune_full_fraction_zeroes_every_weight() {
        let p = prune_graph(&small_graph(), 1.0);
        let Some(WeightData::F32(w)) = &p.nodes[1].weights else {
            panic!("dense weights stay f32");
        };
        assert!(w.iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn prune_zero_fraction_is_noop() {
        let g = small_graph();
        let p = prune_graph(&g, 0.0);
        assert_eq!(p.nodes[1].weights, g.nodes[1].weights);
    }

    #[test]
    fn cluster_reduces_distinct_values_and_renames() {
        let g = small_graph();
        let before = distinct_weight_values(&g);
        let c = cluster_graph(&g, 4);
        let after = distinct_weight_values(&c);
        assert!(after <= 4 + 3, "distinct {after} (weights + f32 bias zeros)");
        assert!(after < before);
        assert!(c.nodes[1].name.starts_with("cluster_"));
    }

    #[test]
    fn params_for_range_handles_degenerate() {
        let p = params_for_range(0.0);
        assert!(p.scale > 0.0);
        let p2 = params_for_range(12.7);
        assert!((p2.scale - 0.1).abs() < 1e-6);
    }
}
