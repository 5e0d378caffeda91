//! Placement pricing: cached micro-probes of job performance on candidate
//! slot *shapes*.
//!
//! A placement's quality on the Falcon test bed depends on how many
//! drawers it spans — GPU pairs inside one drawer peer over the drawer's
//! PCIe switch ASIC, while a split placement routes allreduce traffic
//! through the host root complex (the paper's §V-B cost). The scheduler
//! prices a candidate placement by *running* a short probe job on a
//! canonical composition of that shape via [`composable_core::system::
//! build_falcon_slots`] and caching the measured mean iteration time.
//! Slots within a drawer are symmetric, so the cache key is just
//! `(benchmark, per-drawer slot counts, per-drawer link health)` — a
//! handful of probes price an entire trace replay, including replays under
//! injected PCIe link degradation (see [`crate::fault`]).
//!
//! The composition itself depends only on `(shape, health)`, so a cache
//! plans each such bed once ([`training::Bed`]: topology, cluster view,
//! planned ring) and prices every benchmark on it with
//! [`training::run_timing`], which builds no report.

use crate::trace::{benchmark_from_label, Trace};
use composable_core::recommend::Objective;
use composable_core::system::build_falcon_slots;
use desim::json::{FromJson, ToJson, Value};
use desim::Dur;
use devices::gpu::GpuSpec;
use dlmodels::Benchmark;
use falcon::SlotAddr;
use rack::RackTopology;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use training::{max_feasible_batch, run_timing, Bed, JobConfig};

/// Version stamp of the persisted cache: bump it on a layout change and
/// on any change to what `run_probe` measures, including how a
/// [`LinkHealth`] maps to link capacity. Version 2 added the per-drawer
/// link-health key dimension, so version-1 caches load empty. Pricing on
/// a bed planned once per `(Shape, LinkHealth)` without building a report
/// left every price bit-identical, so the version stayed 2.
pub const CACHE_FORMAT_VERSION: u64 = 2;

/// Per-drawer slot counts of a placement, normalized so `d0 >= d1`
/// (drawers are symmetric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Shape {
    pub d0: u8,
    pub d1: u8,
}

impl Shape {
    pub fn new(a: u8, b: u8) -> Shape {
        Shape {
            d0: a.max(b),
            d1: a.min(b),
        }
    }

    pub fn of(slots: &[SlotAddr]) -> Shape {
        let in_d0 = slots.iter().filter(|s| s.drawer.0 == 0).count() as u8;
        Shape::new(in_d0, slots.len() as u8 - in_d0)
    }

    pub fn n_gpus(&self) -> usize {
        usize::from(self.d0) + usize::from(self.d1)
    }

    /// Does the placement span both drawers (pay the root-complex cost)?
    pub fn spans(&self) -> bool {
        self.d1 > 0
    }

    /// A canonical slot list with this shape (lowest slots per drawer).
    pub fn canonical_slots(&self) -> Vec<SlotAddr> {
        let mut slots = Vec::with_capacity(self.n_gpus());
        for s in 0..self.d0 {
            slots.push(SlotAddr::new(0, s));
        }
        for s in 0..self.d1 {
            slots.push(SlotAddr::new(1, s));
        }
        slots
    }
}

/// Effective PCIe bandwidth of each drawer's switch fabric, in percent,
/// aligned with [`Shape`]'s drawer order (`h0` is the health of the drawer
/// holding `d0` slots). Only values a fault plan can produce occur here —
/// 100 or one of [`crate::fault::DEGRADE_LEVELS`] — which bounds the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkHealth {
    pub h0: u8,
    pub h1: u8,
}

impl LinkHealth {
    /// Both drawers at full bandwidth — the fault-free key.
    pub const FULL: LinkHealth = LinkHealth { h0: 100, h1: 100 };
}

/// The canonical `(Shape, LinkHealth)` cache key for a placement on
/// drawers with health `h0`/`h1` percent. Drawers are symmetric, so the
/// pair is normalized jointly: the fuller drawer leads (health breaking
/// count ties), and a drawer the placement doesn't touch contributes
/// `100` — its links carry none of this job's traffic.
pub fn degraded_key(slots: &[SlotAddr], health0: u8, health1: u8) -> (Shape, LinkHealth) {
    let c0 = slots.iter().filter(|s| s.drawer.0 == 0).count() as u8;
    let c1 = slots.len() as u8 - c0;
    let ((c0, h0), (c1, h1)) = if c1 > c0 || (c1 == c0 && health1 > health0) {
        ((c1, health1), (c0, health0))
    } else {
        ((c0, health0), (c1, health1))
    };
    let h0 = if c0 == 0 { 100 } else { h0 };
    let h1 = if c1 == 0 { 100 } else { h1 };
    (Shape { d0: c0, d1: c1 }, LinkHealth { h0, h1 })
}

/// The priced outcome of one probe run.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Mean time per training iteration with the job alone on the bed.
    pub mean_iter: Dur,
    /// [`Objective::TrainingTime`] score (higher is better).
    pub score: f64,
}

/// Memoized probe runner. Probes are deterministic (fixed seed), so the
/// cache never changes an answer — it only avoids re-simulating. Counting
/// actual simulations separately from entries makes "the second run probed
/// nothing" an assertable property.
///
/// A probe composes one chassis and the rack tier is an analytic stretch
/// applied outside the cache, so every price is per-chassis-pure: one
/// cache (in memory or persisted) serves replays on any rack shape.
pub struct ProbeCache {
    probe_iters: u64,
    map: BTreeMap<ProbeKey, Probe>,
    probes_run: u64,
    /// Keys inserted since this cache was created or
    /// [`split`](Self::split) off, so [`absorb`](Self::absorb) visits just
    /// the additions, never the shared baseline.
    added: Vec<ProbeKey>,
    /// The bed of every composition priced here, planned on first use and
    /// shared with splits. Beds change no price, so absorb, persistence
    /// and `probes_run` ignore them.
    beds: BTreeMap<(Shape, LinkHealth), Arc<Bed>>,
    /// Beds this cache planned itself, not those a split inherited.
    pub(crate) beds_planned: u64,
}

/// The canonical cache key: benchmark label × placement shape × per-drawer
/// link health.
type ProbeKey = (&'static str, Shape, LinkHealth);

impl ProbeCache {
    /// An empty cache pricing at `probe_iters` iterations per probe.
    pub fn new(probe_iters: u64) -> ProbeCache {
        ProbeCache {
            probe_iters: probe_iters.max(1),
            map: BTreeMap::new(),
            probes_run: 0,
            added: Vec::new(),
            beds: BTreeMap::new(),
            beds_planned: 0,
        }
    }

    /// [`new`](Self::new), kept for API compatibility: prices do not
    /// depend on the rack shape, so `_topo` is ignored. Callers should
    /// call `new`; this will be removed once none remain.
    pub fn new_for(probe_iters: u64, _topo: RackTopology) -> ProbeCache {
        ProbeCache::new(probe_iters)
    }

    fn insert(&mut self, key: ProbeKey, p: Probe) {
        self.map.insert(key, p);
        self.added.push(key);
    }

    /// The bed of `shape` at `health`, planned on first use.
    fn bed(&mut self, shape: Shape, health: LinkHealth) -> Arc<Bed> {
        let planned = &mut self.beds_planned;
        let bed = self.beds.entry((shape, health)).or_insert_with(|| {
            *planned += 1;
            Arc::new(plan_bed(shape, health))
        });
        Arc::clone(bed)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The iteration count this cache's prices were measured at. Prices
    /// are only comparable between caches built at the same count.
    pub fn probe_iters(&self) -> u64 {
        self.probe_iters
    }

    /// Probe simulations actually executed through this cache (misses in
    /// [`price`](Self::price) plus keys warmed by [`warm`](Self::warm)).
    /// Loaded entries never count.
    pub fn probes_run(&self) -> u64 {
        self.probes_run
    }

    /// Price `benchmark` on a placement of `shape` at full link health.
    /// Panics only if the model cannot fit the bed at batch size 1 — none
    /// of the paper's five benchmarks hits that on 16 GB V100s.
    pub fn price(&mut self, benchmark: Benchmark, shape: Shape) -> Probe {
        self.price_degraded(benchmark, shape, LinkHealth::FULL)
    }

    /// Price `benchmark` on `shape` with each drawer's switch fabric at
    /// `health` percent bandwidth. The `(shape, health)` pair must be
    /// canonical (see [`degraded_key`]); shapes from [`Shape::new`]/
    /// [`Shape::of`] with [`LinkHealth::FULL`] always are.
    pub fn price_degraded(&mut self, benchmark: Benchmark, shape: Shape, health: LinkHealth) -> Probe {
        if let Some(&p) = self.map.get(&(benchmark.label(), shape, health)) {
            return p;
        }
        let p = run_probe(benchmark, shape, &self.bed(shape, health), self.probe_iters);
        self.probes_run += 1;
        self.insert((benchmark.label(), shape, health), p);
        p
    }

    /// Price every not-yet-cached key across `jobs` parsweep workers.
    /// Probes are pure functions of `(benchmark, shape, probe_iters)` and
    /// results are inserted in canonical key order, so the resulting cache
    /// is byte-identical whatever `jobs` is.
    pub fn warm(&mut self, keys: &[(Benchmark, Shape)], jobs: usize) {
        let mut missing: Vec<(Benchmark, Shape)> = Vec::new();
        let mut seen: BTreeSet<(&'static str, Shape)> = BTreeSet::new();
        for &(b, s) in keys {
            if !self.map.contains_key(&(b.label(), s, LinkHealth::FULL)) && seen.insert((b.label(), s))
            {
                missing.push((b, s));
            }
        }
        let iters = self.probe_iters;
        let beds: Vec<Arc<Bed>> = missing
            .iter()
            .map(|&(_, s)| self.bed(s, LinkHealth::FULL))
            .collect();
        let priced = parsweep::run(
            jobs,
            missing
                .iter()
                .zip(beds)
                .map(|(&(b, s), bed)| {
                    parsweep::Job::new(format!("probe {} {}x{}", b.label(), s.d0, s.d1), move || {
                        run_probe(b, s, &bed, iters)
                    })
                })
                .collect(),
        );
        for ((b, s), p) in missing.into_iter().zip(priced) {
            self.insert((b.label(), s, LinkHealth::FULL), p);
            self.probes_run += 1;
        }
    }

    /// A clone for one parallel replay: same entries, beds and
    /// `probe_iters`, but a zeroed probe counter so
    /// [`absorb`](Self::absorb) can account exactly the simulations that
    /// replay added.
    pub fn split(&self) -> ProbeCache {
        ProbeCache {
            probe_iters: self.probe_iters,
            map: self.map.clone(),
            probes_run: 0,
            added: Vec::new(),
            beds: self.beds.clone(),
            beds_planned: 0,
        }
    }

    /// Merge a [`split`](Self::split) back: union the entries (probes are
    /// deterministic, so colliding keys hold equal values — first write
    /// wins) and add the split's probe count to ours. The merge is
    /// **append-only**: only the keys the split added are visited, never
    /// the shared baseline (which is already ours).
    pub fn absorb(&mut self, other: ProbeCache) {
        self.probes_run += other.probes_run;
        for k in other.added {
            if !self.map.contains_key(&k) {
                self.insert(k, other.map[&k]);
            }
        }
    }

    /// Serialize to the versioned JSON persistence format (see DESIGN §9):
    /// entries in canonical key order under a `(version, probe_iters,
    /// model_hash)` stamp, so a cache from different model definitions or
    /// probe settings is rejected at load instead of silently reused.
    pub fn save_json(&self) -> String {
        CacheFile {
            version: CACHE_FORMAT_VERSION,
            probe_iters: self.probe_iters,
            model_hash: model_hash(),
            entries: self
                .map
                .iter()
                .map(|(&(label, shape, health), probe)| CacheEntry {
                    benchmark: label.to_string(),
                    d0: shape.d0,
                    d1: shape.d1,
                    h0: health.h0,
                    h1: health.h1,
                    mean_iter: probe.mean_iter,
                    score: probe.score,
                })
                .collect(),
        }
        .to_json()
        .emit_pretty()
    }

    /// Parse a persisted cache. Any mismatch — version, `probe_iters`,
    /// model hash, unknown benchmark, malformed JSON — yields an **empty**
    /// cache: persistence is an accelerator, never a correctness input, so
    /// stale files degrade to re-probing rather than to wrong prices.
    pub fn load_str(s: &str, probe_iters: u64) -> ProbeCache {
        let mut cache = ProbeCache::new(probe_iters);
        let Ok(file) = Value::parse(s).and_then(|v| CacheFile::from_json(&v)) else {
            return cache;
        };
        if file.version != CACHE_FORMAT_VERSION
            || file.probe_iters != probe_iters
            || file.model_hash != model_hash()
        {
            return cache;
        }
        for e in file.entries {
            let Some(b) = benchmark_from_label(&e.benchmark) else {
                return ProbeCache::new(probe_iters);
            };
            let key = (b.label(), Shape::new(e.d0, e.d1), LinkHealth { h0: e.h0, h1: e.h1 });
            cache.map.insert(key, Probe { mean_iter: e.mean_iter, score: e.score });
        }
        cache
    }

    pub fn save_file(&self, path: &Path) -> std::io::Result<()> {
        let mut text = self.save_json();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Load from `path`; a missing or stale file yields an empty cache.
    pub fn load_file(path: &Path, probe_iters: u64) -> ProbeCache {
        match std::fs::read_to_string(path) {
            Ok(s) => ProbeCache::load_str(&s, probe_iters),
            Err(_) => ProbeCache::new(probe_iters),
        }
    }
}

/// The persisted cache file ([`ProbeCache::save_json`]).
struct CacheFile {
    version: u64,
    probe_iters: u64,
    model_hash: String,
    entries: Vec<CacheEntry>,
}

desim::json_record! {
    CacheFile;
    version: "version",
    probe_iters: "probe_iters",
    model_hash: "model_hash",
    entries: "entries",
}

/// One persisted probe price, keyed by benchmark label, shape and health.
struct CacheEntry {
    benchmark: String,
    d0: u8,
    d1: u8,
    h0: u8,
    h1: u8,
    mean_iter: Dur,
    score: f64,
}

desim::json_record! {
    CacheEntry;
    benchmark: "benchmark",
    d0: "d0",
    d1: "d1",
    h0: "h0",
    h1: "h1",
    mean_iter: "mean_iter_ns",
    score: "score",
}

/// Fingerprint of the model inputs a probe reads besides its key: the
/// benchmark roster, each model's parameter count and the probe GPU's
/// memory (which gates batch clamping). What the probe itself measures is
/// versioned by [`CACHE_FORMAT_VERSION`]. FNV-1a, hex.
pub fn model_hash() -> String {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for b in Benchmark::all() {
        eat(b.label().as_bytes());
        eat(&dlmodels::paper_model(b).param_count().to_le_bytes());
    }
    eat(&GpuSpec::v100_pcie_16gb().memory_bytes.to_le_bytes());
    format!("{h:016x}")
}

/// The placement shapes a trace replay plausibly prices, derived from each
/// job's requested size and its elastic shrink chain (`g -> max(min_gpus,
/// g/2)`): the whole-drawer shape, the balanced split, and the one-drawer-
/// full spill. A heuristic, not a contract — shapes a policy picks that
/// are missing here are still priced lazily by [`ProbeCache::price`]; the
/// warm set only moves probing to the parallel phase.
pub fn warm_set_for_trace(trace: &Trace) -> Vec<(Benchmark, Shape)> {
    let mut keys: BTreeSet<(&'static str, Shape)> = BTreeSet::new();
    let mut out: Vec<(Benchmark, Shape)> = Vec::new();
    let mut add = |b: Benchmark, s: Shape| {
        if keys.insert((b.label(), s)) {
            out.push((b, s));
        }
    };
    for j in &trace.jobs {
        let mut n = usize::from(j.gpus).clamp(1, 16);
        loop {
            let n8 = n as u8;
            if n <= 8 {
                add(j.benchmark, Shape::new(n8, 0));
            } else {
                add(j.benchmark, Shape::new(8, n8 - 8));
            }
            if n > 1 {
                let hi = (n8 + 1) / 2;
                add(j.benchmark, Shape::new(hi, n8 - hi));
            }
            let next = usize::from(j.min_gpus).max(n / 2);
            if next >= n {
                break;
            }
            n = next;
        }
    }
    out.sort_by_key(|&(b, s)| (b.label(), s));
    out
}

/// The canonical composition of `shape` at `health`, with its ring planned.
fn plan_bed(shape: Shape, health: LinkHealth) -> Bed {
    let mut composed = build_falcon_slots(&GpuSpec::v100_pcie_16gb(), &shape.canonical_slots());
    // Injected link degradation: scale every link on the affected drawer's
    // switch ASIC. The flow allocator reads capacities live, so degraded
    // bandwidth shows up in the probe's allreduce time directly.
    for (drawer, pct) in [(0u8, health.h0), (1u8, health.h1)] {
        if pct >= 100 {
            continue;
        }
        let switch = composed
            .topology
            .find_node(&format!("falcon0.drawer{drawer}.switch"))
            .expect("canonical composition names its drawer switches");
        let mut seen = BTreeSet::new();
        let links: Vec<_> = composed
            .topology
            .links_of(switch)
            .iter()
            .map(|dl| dl.link)
            .filter(|&l| seen.insert(l))
            .collect();
        for l in links {
            composed.topology.scale_link_capacity(l, f64::from(pct) / 100.0);
        }
    }
    Bed::plan(composed.topology, composed.cluster).expect("a shape has at least one GPU")
}

/// Price `benchmark` on `bed`, the planned composition of `shape`.
fn run_probe(benchmark: Benchmark, shape: Shape, bed: &Bed, iters: u64) -> Probe {
    let n = shape.n_gpus();
    let mut cfg = JobConfig::paper_scaled(benchmark, n, iters);
    cfg.epochs = 1;
    cfg.checkpoint_each_epoch = false;
    cfg.seed = 0x5EED;
    // Clamp the paper batch to what fits: the global-batch benchmarks
    // (YOLO, BERT) divide across GPUs, so small placements would OOM a
    // 16 GB card without this (same gate as `runner::run`'s auto-batch).
    let model = dlmodels::paper_model(benchmark);
    let memory = GpuSpec::v100_pcie_16gb().memory_bytes;
    let fit = max_feasible_batch(model, memory, cfg.precision, cfg.strategy, n);
    cfg.per_gpu_batch = cfg.per_gpu_batch.min(fit).max(1);
    let (mean_iter, total_time) = run_timing(bed, cfg).expect("probe fits after batch clamping");
    Probe {
        mean_iter,
        score: Objective::training_time_score(total_time),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_normalizes_and_classifies() {
        assert_eq!(Shape::new(1, 3), Shape::new(3, 1));
        assert!(Shape::new(2, 2).spans());
        assert!(!Shape::new(4, 0).spans());
        let s = Shape::of(&[SlotAddr::new(0, 5), SlotAddr::new(1, 0), SlotAddr::new(1, 2)]);
        assert_eq!(s, Shape { d0: 2, d1: 1 });
        assert_eq!(Shape::new(3, 1).canonical_slots().len(), 4);
    }

    #[test]
    fn split_placement_prices_slower_for_comm_bound_jobs() {
        let mut cache = ProbeCache::new(3);
        let whole = cache.price(Benchmark::BertLarge, Shape::new(4, 0));
        let split = cache.price(Benchmark::BertLarge, Shape::new(2, 2));
        assert!(
            split.mean_iter > whole.mean_iter,
            "cross-drawer allreduce must cost: whole={:?} split={:?}",
            whole.mean_iter,
            split.mean_iter
        );
        assert!(whole.score > split.score);
    }

    #[test]
    fn cache_memoizes_and_stays_deterministic() {
        let mut a = ProbeCache::new(3);
        let p1 = a.price(Benchmark::MobileNetV2, Shape::new(2, 0));
        let p2 = a.price(Benchmark::MobileNetV2, Shape::new(2, 0));
        assert_eq!(a.len(), 1);
        assert_eq!(a.probes_run(), 1, "the second price must be a cache hit");
        assert_eq!(p1.mean_iter, p2.mean_iter);
        let mut b = ProbeCache::new(3);
        assert_eq!(
            b.price(Benchmark::MobileNetV2, Shape::new(2, 0)).mean_iter,
            p1.mean_iter
        );
    }

    #[test]
    fn parallel_warm_matches_serial_and_counts_probes() {
        let keys = [
            (Benchmark::MobileNetV2, Shape::new(2, 0)),
            (Benchmark::MobileNetV2, Shape::new(1, 1)),
            (Benchmark::MobileNetV2, Shape::new(2, 0)), // duplicate: priced once
            (Benchmark::ResNet50, Shape::new(1, 0)),
        ];
        let mut serial = ProbeCache::new(2);
        serial.warm(&keys, 1);
        let mut parallel = ProbeCache::new(2);
        parallel.warm(&keys, 4);
        assert_eq!(serial.save_json(), parallel.save_json());
        assert_eq!(parallel.len(), 3);
        assert_eq!(parallel.probes_run(), 3);
        // Warmed keys are hits now; a new shape still probes lazily.
        parallel.price(Benchmark::MobileNetV2, Shape::new(1, 1));
        assert_eq!(parallel.probes_run(), 3);
        parallel.price(Benchmark::MobileNetV2, Shape::new(3, 0));
        assert_eq!(parallel.probes_run(), 4);
    }

    #[test]
    fn persistence_round_trips_with_zero_probes() {
        let mut cache = ProbeCache::new(2);
        cache.warm(
            &[
                (Benchmark::MobileNetV2, Shape::new(2, 0)),
                (Benchmark::BertBase, Shape::new(1, 1)),
            ],
            2,
        );
        let text = cache.save_json();
        let mut loaded = ProbeCache::load_str(&text, 2);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.probes_run(), 0, "loading must not count as probing");
        assert_eq!(loaded.save_json(), text, "save/load/save is a fixpoint");
        // Pricing a persisted key runs zero new simulations and returns
        // exactly the persisted value.
        let p = loaded.price(Benchmark::MobileNetV2, Shape::new(2, 0));
        assert_eq!(loaded.probes_run(), 0);
        assert_eq!(p.mean_iter, cache.price(Benchmark::MobileNetV2, Shape::new(2, 0)).mean_iter);
    }

    #[test]
    fn stale_or_malformed_cache_loads_empty() {
        let mut cache = ProbeCache::new(2);
        cache.warm(&[(Benchmark::MobileNetV2, Shape::new(1, 0))], 1);
        let good = cache.save_json();
        assert!(ProbeCache::load_str("not json", 2).is_empty());
        assert!(ProbeCache::load_str(&good, 3).is_empty(), "probe_iters mismatch");
        let bad_version = good.replace("\"version\": 2", "\"version\": 1");
        assert!(
            ProbeCache::load_str(&bad_version, 2).is_empty(),
            "pre-fault-model caches are stale"
        );
        let bad_hash = good.replace(&model_hash(), "0000000000000000");
        assert!(ProbeCache::load_str(&bad_hash, 2).is_empty(), "model hash mismatch");
    }

    #[test]
    fn degraded_key_normalizes_jointly() {
        let d0 = falcon::SlotAddr::new(0, 0);
        let d1 = falcon::SlotAddr::new(1, 0);
        // Larger drawer leads, carrying its own health with it.
        assert_eq!(
            degraded_key(&[d1, SlotAddr::new(1, 1)], 50, 75),
            (Shape { d0: 2, d1: 0 }, LinkHealth { h0: 75, h1: 100 })
        );
        // Count ties break toward the healthier drawer.
        assert_eq!(
            degraded_key(&[d0, d1], 25, 75),
            (Shape { d0: 1, d1: 1 }, LinkHealth { h0: 75, h1: 25 })
        );
        // Untouched drawers always read full health.
        assert_eq!(
            degraded_key(&[d0], 50, 25),
            (Shape { d0: 1, d1: 0 }, LinkHealth { h0: 50, h1: 100 })
        );
        // Fault-free keys coincide with the plain price() key.
        assert_eq!(degraded_key(&[d0, d1], 100, 100).1, LinkHealth::FULL);
    }

    #[test]
    fn degraded_links_price_slower_for_comm_bound_jobs() {
        let mut cache = ProbeCache::new(3);
        let full = cache.price(Benchmark::BertLarge, Shape::new(2, 0));
        let degraded = cache.price_degraded(
            Benchmark::BertLarge,
            Shape::new(2, 0),
            LinkHealth { h0: 50, h1: 100 },
        );
        assert!(
            degraded.mean_iter > full.mean_iter,
            "half-bandwidth switch must slow allreduce: full={:?} degraded={:?}",
            full.mean_iter,
            degraded.mean_iter
        );
        // Distinct keys: both entries coexist and the degraded one persists.
        assert_eq!(cache.len(), 2);
        let loaded = ProbeCache::load_str(&cache.save_json(), 3);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.save_json(), cache.save_json());
    }

    /// A cache plans each composition's bed once and its splits price on
    /// it: five benchmarks on one `(Shape, LinkHealth)` plan one bed, a
    /// split's miss on its parent's composition plans none, and beds
    /// change neither the saved bytes nor the probe count.
    #[test]
    fn one_bed_per_composition_shared_with_splits() {
        let (shape, degraded) = (Shape::new(2, 1), LinkHealth { h0: 50, h1: 100 });
        let mut cache = ProbeCache::new(2);
        cache.warm(&[(Benchmark::MobileNetV2, Shape::new(2, 0))], 1);
        for b in Benchmark::all() {
            cache.price_degraded(b, shape, degraded);
        }
        assert_eq!(
            cache.beds_planned, 2,
            "one bed per composition, not per benchmark"
        );

        let mut split = cache.split();
        split.price(Benchmark::ResNet50, Shape::new(2, 0)); // a miss on the parent's bed
        assert_eq!((split.probes_run(), split.beds_planned), (1, 0));
        cache.absorb(split);
        assert_eq!(cache.probes_run(), 7);

        // The same prices and count as pricing every key on its own bed.
        let mut direct = ProbeCache::new(2);
        let keys = [Benchmark::MobileNetV2, Benchmark::ResNet50]
            .map(|b| (b, Shape::new(2, 0), LinkHealth::FULL))
            .into_iter()
            .chain(Benchmark::all().map(|b| (b, shape, degraded)));
        for (b, s, h) in keys {
            let mut alone = ProbeCache::new(2);
            alone.price_degraded(b, s, h);
            assert_eq!(alone.beds_planned, 1);
            direct.absorb(alone);
        }
        assert_eq!(direct.probes_run(), cache.probes_run());
        assert_eq!(direct.save_json(), cache.save_json());
    }

    #[test]
    fn split_and_absorb_account_probes_exactly() {
        let mut shared = ProbeCache::new(2);
        shared.warm(&[(Benchmark::MobileNetV2, Shape::new(1, 0))], 1);
        assert_eq!(shared.probes_run(), 1);
        let mut replay = shared.split();
        assert_eq!(replay.probes_run(), 0);
        replay.price(Benchmark::MobileNetV2, Shape::new(1, 0)); // hit
        replay.price(Benchmark::MobileNetV2, Shape::new(2, 0)); // miss
        assert_eq!(replay.probes_run(), 1);
        shared.absorb(replay);
        assert_eq!(shared.probes_run(), 2);
        assert_eq!(shared.len(), 2);
    }

    /// The append-only absorb path: merging split caches with disjoint
    /// additions yields exactly the union of entries and the sum of probe
    /// counters, byte-identical to a cache that probed every key itself —
    /// and additions keep propagating through chained split/absorb.
    #[test]
    fn absorb_is_append_only_with_exact_merged_counters() {
        let base = (Benchmark::MobileNetV2, Shape::new(1, 0));
        let add_a = (Benchmark::MobileNetV2, Shape::new(2, 0));
        let add_b = (Benchmark::ResNet50, Shape::new(1, 0));
        let mut parent = ProbeCache::new(2);
        parent.warm(&[base], 1);
        let base_probes = parent.probes_run();

        // Two splits add disjoint key sets.
        let mut a = parent.split();
        let mut b = parent.split();
        a.warm(&[add_a], 1);
        b.warm(&[add_b], 1);
        let (ra, rb) = (a.probes_run(), b.probes_run());
        assert_eq!((ra, rb), (1, 1));
        parent.absorb(a);
        parent.absorb(b);
        assert_eq!(parent.probes_run(), base_probes + ra + rb, "counter is the exact sum");
        assert_eq!(parent.len(), 3, "merged map is the union");

        // Byte-identical to a cache that probed all three keys directly.
        let mut direct = ProbeCache::new(2);
        direct.warm(&[base, add_a, add_b], 1);
        assert_eq!(parent.save_json(), direct.save_json());

        // Overlapping additions collide on equal values: no growth, and
        // the counter still accounts the duplicate probe work.
        let mut c = parent.split();
        c.price(Benchmark::MobileNetV2, Shape::new(2, 0)); // hit: no probe
        assert_eq!(c.probes_run(), 0);
        parent.absorb(c);
        assert_eq!(parent.len(), 3);
        assert_eq!(parent.probes_run(), base_probes + ra + rb);

        // Chained: a grandchild's additions flow through its parent's
        // `added` log into the root on the second absorb.
        let mut mid = parent.split();
        let mut leaf = mid.split();
        leaf.warm(&[(Benchmark::ResNet50, Shape::new(2, 0))], 1);
        mid.absorb(leaf);
        parent.absorb(mid);
        assert_eq!(parent.len(), 4, "grandchild addition reached the root");
        assert_eq!(parent.probes_run(), base_probes + ra + rb + 1);
    }

    #[test]
    fn warm_set_covers_requested_and_shrunk_sizes() {
        let trace = crate::trace::seeded_two_tenant(12, 0xC10D);
        let set = warm_set_for_trace(&trace);
        assert!(!set.is_empty());
        // Canonically ordered and duplicate-free.
        let mut sorted = set.clone();
        sorted.sort_by_key(|&(b, s)| (b.label(), s));
        sorted.dedup_by_key(|&mut (b, s)| (b.label(), s));
        assert_eq!(set, sorted);
        // Every job's requested size appears as some shape.
        for j in &trace.jobs {
            assert!(
                set.iter()
                    .any(|&(b, s)| b == j.benchmark && s.n_gpus() == usize::from(j.gpus)),
                "no warm shape for job {} ({} GPUs)",
                j.id,
                j.gpus
            );
        }
    }
}
