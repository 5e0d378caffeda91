//! Property tests on the layer IR and model aggregates.
//!
//! Invariants covered (testkit, 256 cases for the layer-formula block —
//! they are cheap — and 64 for BERT aggregates, raised from 32 under
//! proptest):
//! * conv parameter/FLOP scaling laws (channels double => params double);
//! * depthwise conv is strictly cheaper than dense at equal shape;
//! * linear FLOPs scale with tokens, params do not;
//! * memory traffic is monotone in batch and precision width;
//! * BERT params grow superquadratically in hidden size, FLOPs
//!   superlinearly in sequence length.

use dlmodels::layer::Layer;
use dlmodels::{nlp, paper_model, vision, Benchmark, Precision};
use testkit::{prop_assert, prop_assert_eq, property, u32_in, u64_in};

property! {
    /// Conv parameter/FLOP formulas: doubling output channels doubles
    /// weights and MACs; stride reduces output elements, never FLOPs per
    /// output element.
    #[cases(256)]
    fn conv_scaling_laws(cin in u64_in(1..64), cout in u64_in(1..64), k in u64_in(1..6),
                         h in u64_in(8..64), stride in u64_in(1..3)) {
        let base = Layer::conv2d("c", cin, cout, k, stride, h, h, 1, false);
        let double = Layer::conv2d("c", cin, 2 * cout, k, stride, h, h, 1, false);
        prop_assert_eq!(double.params, 2 * base.params);
        prop_assert!((double.flops_fwd - 2.0 * base.flops_fwd).abs() < 1.0);
        prop_assert_eq!(double.out_elems, 2 * base.out_elems);
        // Output shrinks with stride.
        let strided = Layer::conv2d("c", cin, cout, k, 2, h, h, 1, false);
        prop_assert!(strided.out_elems <= base.out_elems);
    }

    /// Depthwise conv always costs fewer FLOPs and params than the dense
    /// conv of the same shape (the MobileNet design premise).
    #[cases(256)]
    fn depthwise_cheaper_than_dense(c in u64_in(2..128), h in u64_in(8..64)) {
        let dw = Layer::dwconv("dw", c, 3, 1, h, h);
        let dense = Layer::conv2d("d", c, c, 3, 1, h, h, 1, false);
        prop_assert!(dw.params < dense.params);
        prop_assert!(dw.flops_fwd < dense.flops_fwd);
    }

    /// Linear layers: FLOPs scale with tokens, params do not.
    #[cases(256)]
    fn linear_token_scaling(din in u64_in(1..512), dout in u64_in(1..512), t in u64_in(1..64)) {
        let one = Layer::linear("l", din, dout, 1, true);
        let many = Layer::linear("l", din, dout, t, true);
        prop_assert_eq!(one.params, many.params);
        prop_assert!((many.flops_fwd - one.flops_fwd * t as f64).abs() < 1.0);
    }

    /// Memory traffic is monotone in batch and halves from fp32 to fp16
    /// asymptotically (weights are batch-independent).
    #[cases(256)]
    fn mem_traffic_monotone(cin in u64_in(1..32), cout in u64_in(1..32),
                            b1 in u64_in(1..16), extra in u64_in(1..16)) {
        let l = Layer::conv2d("c", cin, cout, 3, 1, 16, 16, 1, false);
        let small = l.mem_bytes_fwd(b1, Precision::Fp16);
        let big = l.mem_bytes_fwd(b1 + extra, Precision::Fp16);
        prop_assert!(big > small);
        prop_assert!(l.mem_bytes_fwd(b1, Precision::Fp32) > small);
    }

    /// BERT aggregates behave across arbitrary widths: params grow ~
    /// quadratically in hidden size, FLOPs superlinearly in sequence.
    #[cases(64)]
    fn bert_scaling(layers in u64_in(1..6), heads_pow in u32_in(0..3), seq in u64_in(64..256)) {
        let heads = 1u64 << heads_pow;
        let hidden = heads * 64;
        let m = dlmodels::nlp::bert(dlmodels::Benchmark::BertBase, "t", layers, hidden, heads, seq);
        let m2 = dlmodels::nlp::bert(dlmodels::Benchmark::BertBase, "t", layers, hidden * 2, heads * 2, seq);
        prop_assert!(m2.param_count() > 2 * m.param_count());
        let short = dlmodels::nlp::bert(dlmodels::Benchmark::BertBase, "t", layers, hidden, heads, seq / 2);
        prop_assert!(m.flops_fwd_per_sample() > 2.0 * short.flops_fwd_per_sample());
    }
}

/// The zoo is `paper_model` over `Benchmark::all`, in that order. Each
/// model instantiates the benchmark it was built for, prints as a fresh
/// build by its constructor, and is one instance per process: the same
/// across calls and across parsweep workers.
#[test]
fn zoo_is_one_model_per_benchmark_in_order() {
    let jobs = Benchmark::all()
        .into_iter()
        .flat_map(|b| [b, b])
        .map(|b| parsweep::Job::new(b.label(), move || paper_model(b)))
        .collect();
    let from_workers = parsweep::run(4, jobs);
    let fresh = [
        vision::mobilenet_v2(),
        vision::resnet50(),
        vision::yolov5l(),
        nlp::bert_base(384),
        nlp::bert_large(384),
    ];
    for ((b, built), workers) in Benchmark::all().into_iter().zip(fresh).zip(from_workers.chunks(2)) {
        let m = paper_model(b);
        assert_eq!(m.benchmark, b);
        assert!(std::ptr::eq(m, paper_model(b)), "{b:?}: a second call built another model");
        for &w in workers {
            assert!(std::ptr::eq(m, w), "{b:?}: a parsweep worker saw another model");
        }
        assert_eq!(format!("{m:?}"), format!("{built:?}"), "{b:?}: the zoo differs from its constructor");
    }
}

/// Cross-model invariants over the real zoo.
#[test]
fn zoo_invariants() {
    for m in Benchmark::all().map(paper_model) {
        // Gradients are exactly param_count x element size.
        assert_eq!(
            m.gradient_bytes(Precision::Fp16),
            m.param_count() as f64 * 2.0
        );
        // Checkpoints are larger than the fp16 weights (fp32 + moments).
        assert!(m.checkpoint_bytes() > m.param_bytes(Precision::Fp16));
        // A training step is 3x forward.
        assert_eq!(m.flops_step_per_sample(), 3.0 * m.flops_fwd_per_sample());
        // Every layer has coherent shapes.
        for l in &m.layers {
            assert!(l.flops_fwd >= 0.0);
            assert!(l.out_elems > 0 || l.flops_fwd == 0.0 || l.params > 0);
        }
        // For the classification CNNs the derived weighted-layer count
        // tracks the reported depth (BERT reports encoder blocks and YOLO
        // reports fused modules, so only the CNNs are comparable).
        if matches!(
            m.benchmark,
            dlmodels::Benchmark::MobileNetV2 | dlmodels::Benchmark::ResNet50
        ) {
            let d = m.derived_depth() as f64;
            let r = m.reported_depth as f64;
            assert!(
                (d - r).abs() / r < 0.15,
                "{}: derived {d} vs reported {r}",
                m.name
            );
        }
    }
}
