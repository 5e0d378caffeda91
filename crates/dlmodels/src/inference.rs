//! Forward-only inference cost profiles, derived from the same layer
//! stacks as the training models.
//!
//! Serving a benchmark differs from training it in three ways the profile
//! captures: only the forward pass runs (no backward, no optimizer), no
//! activation is *stored* for autograd (the calibrated
//! [`ModelDesc::activation_overhead`] does not apply — activations are
//! streamed through HBM once), and the weights are read once per batch
//! rather than updated. The profile is pure arithmetic — FLOPs and bytes
//! per batch — so the crate stays simulator-free; `scheduler::serve`
//! converts it to latency against a concrete GPU roofline.

use crate::model::{Benchmark, ModelDesc};
use crate::paper_model;
use crate::precision::Precision;

/// The aggregate forward-pass cost of one benchmark, per sample and per
/// batch. Batch-size-parameterized: fixed terms (weight streaming, kernel
/// launches) amortize over the batch, per-sample terms scale linearly.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceProfile {
    pub benchmark: Benchmark,
    /// Forward FLOPs per sample (2 FLOPs per MAC, as everywhere).
    pub flops_per_sample: f64,
    /// Activation bytes streamed through HBM per sample — raw layer
    /// outputs, without the training-time autograd overhead multiplier.
    pub act_bytes_per_sample: f64,
    /// Weight bytes read once per batch.
    pub weight_bytes: f64,
    /// Host→device input bytes per sample.
    pub h2d_bytes_per_sample: f64,
    /// Weighted-layer depth: one kernel launch per counted layer.
    pub weighted_layers: u32,
}

impl InferenceProfile {
    /// Derive the profile from a model's layer stack at the given serving
    /// precision.
    pub fn of(model: &ModelDesc, precision: Precision) -> InferenceProfile {
        let elems: u64 = model.layers.iter().map(|l| l.out_elems).sum();
        InferenceProfile {
            benchmark: model.benchmark,
            flops_per_sample: model.flops_fwd_per_sample(),
            act_bytes_per_sample: elems as f64 * precision.bytes_per_element(),
            weight_bytes: model.param_bytes(precision),
            h2d_bytes_per_sample: model.h2d_bytes_per_sample(precision),
            weighted_layers: model.derived_depth(),
        }
    }

    /// The fp16 serving profile of one paper benchmark (the precision
    /// every deployed V100 service would use: tensor cores, half the
    /// weight traffic).
    pub fn for_benchmark(benchmark: Benchmark) -> InferenceProfile {
        InferenceProfile::of(paper_model(benchmark), Precision::Fp16)
    }

    /// Forward FLOPs for a batch.
    pub fn flops(&self, batch: u32) -> f64 {
        f64::from(batch) * self.flops_per_sample
    }

    /// HBM bytes for a batch: weights once, activations per sample.
    pub fn bytes(&self, batch: u32) -> f64 {
        self.weight_bytes + f64::from(batch) * self.act_bytes_per_sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_exist_for_all_benchmarks_and_are_positive() {
        for b in Benchmark::all() {
            let p = InferenceProfile::for_benchmark(b);
            assert_eq!(p.benchmark, b);
            assert!(p.flops_per_sample > 0.0, "{b:?}");
            assert!(p.act_bytes_per_sample > 0.0, "{b:?}");
            assert!(p.weight_bytes > 0.0, "{b:?}");
            assert!(p.h2d_bytes_per_sample > 0.0, "{b:?}");
            assert!(p.weighted_layers > 0, "{b:?}");
        }
    }

    #[test]
    fn forward_flops_match_the_training_model() {
        for m in Benchmark::all().map(paper_model) {
            let p = InferenceProfile::of(m, Precision::Fp16);
            assert_eq!(p.flops_per_sample, m.flops_fwd_per_sample());
            // Forward-only is a third of a training step.
            assert_eq!(3.0 * p.flops(1), m.flops_step_per_sample());
        }
    }

    #[test]
    fn inference_skips_the_autograd_overhead() {
        for m in Benchmark::all().map(paper_model) {
            let p = InferenceProfile::of(m, Precision::Fp16);
            let training = m.activation_bytes_per_sample(Precision::Fp16);
            assert!(
                p.act_bytes_per_sample <= training,
                "{:?}: serving activations must not exceed training's stored set",
                m.benchmark
            );
        }
    }

    #[test]
    fn batch_cost_is_affine_in_batch_size() {
        let p = InferenceProfile::for_benchmark(Benchmark::ResNet50);
        assert_eq!(p.flops(8), 8.0 * p.flops(1));
        let fixed = p.bytes(0);
        assert_eq!(fixed, p.weight_bytes);
        assert_eq!(p.bytes(8) - fixed, 8.0 * (p.bytes(1) - fixed));
    }

    #[test]
    fn heavier_models_cost_more() {
        let mobile = InferenceProfile::for_benchmark(Benchmark::MobileNetV2);
        let bert_l = InferenceProfile::for_benchmark(Benchmark::BertLarge);
        assert!(bert_l.flops_per_sample > 10.0 * mobile.flops_per_sample);
        assert!(bert_l.weight_bytes > 10.0 * mobile.weight_bytes);
    }
}
