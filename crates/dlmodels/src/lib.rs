//! `dlmodels` — analytic models of the paper's five DL benchmarks.
//!
//! Each benchmark (Table II) is built layer-by-layer from a small layer IR
//! ([`layer::Layer`]) with closed-form parameter / FLOP / memory-traffic /
//! activation formulas:
//!
//! | Benchmark | Domain | Dataset | Params | Depth |
//! |---|---|---|---|---|
//! | MobileNetV2 | vision | ImageNet | 3.4 M | 53 |
//! | ResNet-50 | vision | ImageNet | 25.6 M | 50 |
//! | YOLOv5-L | vision | COCO | 47 M | 392 |
//! | BERT-base | NLP (Q&A) | SQuAD v1.1 | 110 M | 12 |
//! | BERT-large | NLP (Q&A) | SQuAD v1.1 | 340 M | 24 |
//!
//! Unit tests pin the generated totals to the published values, so the
//! model definitions are verifiable rather than asserted.
//!
//! FLOP convention: one multiply-accumulate counts as **2 FLOPs**
//! (so ResNet-50 forward ≈ 8.2 GFLOPs ≡ the usually quoted 4.1 GMACs).
//!
//! The crate is pure (no simulator dependencies): it reports *what* a
//! training step must do; `devices` + `training` decide how long it takes.

pub mod data;
pub mod inference;
pub mod layer;
pub mod model;
pub mod nlp;
pub mod precision;
pub mod vision;

pub use data::DatasetSpec;
pub use inference::InferenceProfile;
pub use layer::{Layer, LayerKind};
pub use model::{benchmark_from_label, Benchmark, Domain, ModelDesc};
pub use precision::{Precision, OPTIMIZER_BYTES_PER_PARAM_AMP, OPTIMIZER_BYTES_PER_PARAM_FP32};

use std::sync::OnceLock;

/// The analytic model of one paper benchmark, at the paper's settings
/// (BERT at sequence length 384). The five models are built once per
/// process, on first use, and shared: every training run and placement
/// probe reads the same instance.
pub fn paper_model(benchmark: Benchmark) -> &'static ModelDesc {
    static ZOO: OnceLock<[ModelDesc; 5]> = OnceLock::new();
    let zoo = ZOO.get_or_init(|| {
        Benchmark::all().map(|b| match b {
            Benchmark::MobileNetV2 => vision::mobilenet_v2(),
            Benchmark::ResNet50 => vision::resnet50(),
            Benchmark::YoloV5L => vision::yolov5l(),
            Benchmark::BertBase => nlp::bert_base(384),
            Benchmark::BertLarge => nlp::bert_large(384),
        })
    });
    // `Benchmark::all()` lists the variants in declaration order, so a
    // benchmark's discriminant is its index in the zoo.
    &zoo[benchmark as usize]
}
