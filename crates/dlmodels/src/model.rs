//! The model descriptor: a named stack of layers plus the aggregate
//! quantities a training simulation needs.

use crate::data::DatasetSpec;
use crate::layer::Layer;
use crate::precision::{optimizer_bytes_per_param, Precision};
use desim::json::{FromJson, JsonError, ToJson, Value};

/// Application domain (Table II column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    ComputerVision,
    Nlp,
}

/// Which paper benchmark a model descriptor instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    MobileNetV2,
    ResNet50,
    YoloV5L,
    BertBase,
    BertLarge,
}

impl Benchmark {
    pub fn all() -> [Benchmark; 5] {
        [
            Benchmark::MobileNetV2,
            Benchmark::ResNet50,
            Benchmark::YoloV5L,
            Benchmark::BertBase,
            Benchmark::BertLarge,
        ]
    }

    pub fn label(self) -> &'static str {
        match self {
            Benchmark::MobileNetV2 => "MobileNetV2",
            Benchmark::ResNet50 => "ResNet-50",
            Benchmark::YoloV5L => "YOLOv5-L",
            Benchmark::BertBase => "BERT",
            Benchmark::BertLarge => "BERT-L",
        }
    }
}

/// Look a benchmark up by its paper label (the form traces serialize).
///
/// Matching is case-insensitive and ignores `-`/`_`, so the aliases that
/// show up in hand-written traces and goldens (`"resnet50"`,
/// `"resnet-50"`, `"bert_large"`, `"yolov5l"`, …) all resolve.
pub fn benchmark_from_label(label: &str) -> Option<Benchmark> {
    fn norm(s: &str) -> String {
        s.chars()
            .filter(|c| *c != '-' && *c != '_')
            .flat_map(char::to_lowercase)
            .collect()
    }
    let wanted = norm(label);
    Benchmark::all()
        .into_iter()
        .find(|b| norm(b.label()) == wanted)
        .or(match wanted.as_str() {
            "bertbase" => Some(Benchmark::BertBase),
            "bertlarge" => Some(Benchmark::BertLarge),
            _ => None,
        })
}

/// Benchmarks serialize as their paper label and parse any alias of [`benchmark_from_label`].
impl ToJson for Benchmark {
    fn to_json(&self) -> Value {
        Value::str(self.label())
    }
}

impl FromJson for Benchmark {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let label = v.as_str()?;
        benchmark_from_label(label)
            .ok_or_else(|| JsonError::decode(format!("unknown benchmark \"{label}\"")))
    }
}

/// An analytic model of one benchmark network.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDesc {
    pub benchmark: Benchmark,
    pub name: String,
    pub domain: Domain,
    pub dataset: DatasetSpec,
    pub layers: Vec<Layer>,
    /// The architectural depth as reported in Table II (e.g. encoder blocks
    /// for BERT, module count for YOLOv5).
    pub reported_depth: u32,
    /// Multiplier on the theoretical stored-activation footprint to account
    /// for framework bookkeeping (autograd graph, dropout masks, workspace)
    /// — calibrated so published maximum batch sizes reproduce.
    pub activation_overhead: f64,
    /// Per-sample H2D input elements (e.g. 3·224·224 for ImageNet crops).
    pub input_elems_per_sample: u64,
}

impl ModelDesc {
    /// Total learnable parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Weighted-layer depth derived from the layer stack.
    pub fn derived_depth(&self) -> u32 {
        self.layers
            .iter()
            .filter(|l| l.kind.counts_as_depth())
            .count() as u32
    }

    /// Forward FLOPs per sample.
    pub fn flops_fwd_per_sample(&self) -> f64 {
        self.layers.iter().map(|l| l.flops_fwd).sum()
    }

    /// Training-step FLOPs per sample (forward + backward ≈ 3× forward).
    pub fn flops_step_per_sample(&self) -> f64 {
        3.0 * self.flops_fwd_per_sample()
    }

    /// Bytes of gradients exchanged by data-parallel training per step.
    pub fn gradient_bytes(&self, precision: Precision) -> f64 {
        self.param_count() as f64 * precision.gradient_bytes_per_param()
    }

    /// Bytes of parameters as stored on each GPU.
    pub fn param_bytes(&self, precision: Precision) -> f64 {
        self.param_count() as f64 * precision.bytes_per_element()
    }

    /// Optimizer-state bytes (Adam) per full replica.
    pub fn optimizer_bytes(&self, precision: Precision) -> f64 {
        self.param_count() as f64 * optimizer_bytes_per_param(precision)
    }

    /// Stored-activation bytes per sample (for the backward pass),
    /// including the calibrated framework overhead.
    pub fn activation_bytes_per_sample(&self, precision: Precision) -> f64 {
        let elems: u64 = self.layers.iter().map(|l| l.out_elems).sum();
        elems as f64 * precision.bytes_per_element() * self.activation_overhead
    }

    /// Bytes a checkpoint writes to storage (FP32 weights + optimizer
    /// moments, PyTorch convention).
    pub fn checkpoint_bytes(&self) -> f64 {
        self.param_count() as f64 * (4.0 + 8.0)
    }

    /// Per-sample bytes copied host→device per step.
    pub fn h2d_bytes_per_sample(&self, precision: Precision) -> f64 {
        self.input_elems_per_sample as f64 * precision.bytes_per_element()
    }

    /// Table II row: `(label, domain, dataset, params, depth)`.
    pub fn table2_row(&self) -> (String, &'static str, String, u64, u32) {
        let domain = match self.domain {
            Domain::ComputerVision => "Computer Vision",
            Domain::Nlp => "NLP (Q&A)",
        };
        (
            self.benchmark.label().to_string(),
            domain,
            self.dataset.name.clone(),
            self.param_count(),
            self.reported_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn tiny_model() -> ModelDesc {
        ModelDesc {
            benchmark: Benchmark::ResNet50,
            name: "tiny".into(),
            domain: Domain::ComputerVision,
            dataset: crate::data::imagenet(),
            layers: vec![
                Layer::conv2d("c1", 3, 8, 3, 1, 8, 8, 1, false),
                Layer::linear("fc", 8 * 8 * 8, 10, 1, true),
            ],
            reported_depth: 2,
            activation_overhead: 1.0,
            input_elems_per_sample: 3 * 8 * 8,
        }
    }

    #[test]
    fn aggregates_sum_layers() {
        let m = tiny_model();
        assert_eq!(m.param_count(), 3 * 3 * 3 * 8 + 512 * 10 + 10);
        assert_eq!(m.derived_depth(), 2);
        assert!(m.flops_fwd_per_sample() > 0.0);
        assert_eq!(m.flops_step_per_sample(), 3.0 * m.flops_fwd_per_sample());
    }

    #[test]
    fn gradient_bytes_follow_precision() {
        let m = tiny_model();
        assert_eq!(
            m.gradient_bytes(Precision::Fp32),
            2.0 * m.gradient_bytes(Precision::Fp16)
        );
    }

    #[test]
    fn checkpoint_is_fp32_weights_plus_moments() {
        let m = tiny_model();
        assert_eq!(m.checkpoint_bytes(), m.param_count() as f64 * 12.0);
    }

    #[test]
    fn activation_overhead_multiplies() {
        let mut m = tiny_model();
        let base = m.activation_bytes_per_sample(Precision::Fp16);
        m.activation_overhead = 2.0;
        assert_eq!(m.activation_bytes_per_sample(Precision::Fp16), 2.0 * base);
    }

    #[test]
    fn benchmark_labels() {
        assert_eq!(Benchmark::BertLarge.label(), "BERT-L");
        assert_eq!(Benchmark::all().len(), 5);
    }
}
