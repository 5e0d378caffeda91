//! Benchmark-side tracing: spans around the calls the benchmark itself
//! makes into each module's public API, and a policy wrapper that counts
//! and times every placement hook. Nothing here reaches inside a module;
//! in-program spans are a separate, later change.

use desim::json::Value;
use scheduler::{FreeView, JobSpec, PlacePolicy, ProbeCache, RackAddr, RunningView, SliceView};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which repetition a span belongs to: the k-th set-up or the n-th round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Setup(u32),
    Round(u32),
}

/// One timed interval: which layer, when, which span caused it, and which
/// set-up or round it belongs to.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    tag: Tag,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. While off it records nothing, so untraced
/// rounds pay only a branch per span.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tag: Tag,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            tag: Tag::Setup(0),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Record (or stop recording) the spans that follow, tagged `tag`.
    pub fn set(&mut self, on: bool, tag: Tag) {
        self.on = on;
        self.tag = tag;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            tag: self.tag,
        };
        self.spans.push(span);
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Close the spans a panic unwound through before their exits ran.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for id in self.stack.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Seconds spent in spans named `name` under `tag` (0 when none).
    pub fn total(&self, name: &str, tag: Tag) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Each span's duration minus the part its children cover.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let (phase, index) = match s.tag {
                        Tag::Setup(k) => ("setup", k),
                        Tag::Round(n) => ("round", n),
                    };
                    Value::obj(vec![
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::from_u64(s.start_ns)),
                        ("end_ns", Value::from_u64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from_u64(p as u64)),
                        ),
                        ("phase", Value::str(phase)),
                        ("index", Value::from_u64(u64::from(index))),
                    ])
                })
                .collect(),
        )
    }

    /// The per-layer table: for each phase and span name, how many spans,
    /// their total and self seconds, and their share of the phase's
    /// top-level span (`setup` or `round`).
    pub fn table(&self) -> String {
        let own = self.self_secs();
        let mut rows: BTreeMap<(&str, &str), (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let phase = match s.tag {
                Tag::Setup(_) => "setup",
                Tag::Round(_) => "round",
            };
            let row = rows.entry((phase, s.name)).or_default();
            row.0 += 1;
            row.1 += s.secs();
            row.2 += own;
        }
        let whole = |phase: &str| rows.get(&(phase, phase)).map_or(0.0, |r| r.1);
        let mut out = format!(
            "{:<6} {:<26} {:>6} {:>12} {:>12} {:>8}\n",
            "phase", "span", "count", "total_s", "self_s", "share"
        );
        for (&(phase, name), &(count, total, own)) in &rows {
            let share = 100.0 * total / whole(phase);
            out += &format!(
                "{phase:<6} {name:<26} {count:>6} {total:>12.6} {own:>12.6} {share:>7.1}%\n"
            );
        }
        out
    }
}

/// Per-round counts and nanoseconds of the placement hooks. Relaxed
/// atomics: these are statistics that publish no other data.
#[derive(Debug, Default)]
pub struct HookStats {
    pub place_calls: AtomicU64,
    pub place_won: AtomicU64,
    pub place_ns: AtomicU64,
    pub replica_calls: AtomicU64,
    pub replica_ns: AtomicU64,
    pub victim_calls: AtomicU64,
    pub victim_ns: AtomicU64,
    pub migrate_calls: AtomicU64,
    pub migrate_ns: AtomicU64,
    /// Probe simulations run from inside `place`/`migrate` — already in
    /// the hook time, so self-time accounting must not subtract them twice.
    pub hook_probes: AtomicU64,
}

impl HookStats {
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    pub fn to_json(&self, round: u32) -> Value {
        let g = Self::get;
        Value::obj(vec![
            ("round", Value::from_u64(u64::from(round))),
            ("place_calls", Value::from_u64(g(&self.place_calls))),
            ("place_won", Value::from_u64(g(&self.place_won))),
            ("place_ns", Value::from_u64(g(&self.place_ns))),
            ("replica_calls", Value::from_u64(g(&self.replica_calls))),
            ("replica_ns", Value::from_u64(g(&self.replica_ns))),
            ("victim_calls", Value::from_u64(g(&self.victim_calls))),
            ("victim_ns", Value::from_u64(g(&self.victim_ns))),
            ("migrate_calls", Value::from_u64(g(&self.migrate_calls))),
            ("migrate_ns", Value::from_u64(g(&self.migrate_ns))),
            ("hook_probes", Value::from_u64(g(&self.hook_probes))),
        ])
    }
}

/// Delegates every [`PlacePolicy`] hook to the wrapped policy — the
/// constant knobs untimed, the four decision hooks counted and timed into
/// a shared [`HookStats`]. The traced rounds' report bytes are checked
/// against the untraced ones, so a hook this wrapper failed to forward
/// shows up as a failed round.
pub struct TimedPolicy {
    inner: Box<dyn PlacePolicy>,
    stats: Arc<HookStats>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn PlacePolicy>, stats: Arc<HookStats>) -> TimedPolicy {
        TimedPolicy { inner, stats }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl PlacePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        job: &JobSpec,
        free: &FreeView,
        probes: &mut ProbeCache,
    ) -> Option<Vec<RackAddr>> {
        let before = probes.probes_run();
        let t = Instant::now();
        let r = self.inner.place(job, free, probes);
        let s = &self.stats;
        HookStats::add(&s.place_ns, elapsed_ns(t));
        HookStats::add(&s.place_calls, 1);
        HookStats::add(&s.place_won, u64::from(r.is_some()));
        HookStats::add(&s.hook_probes, probes.probes_run() - before);
        r
    }

    fn place_replica(&self, slice: u8, view: &SliceView) -> Option<RackAddr> {
        let t = Instant::now();
        let r = self.inner.place_replica(slice, view);
        HookStats::add(&self.stats.replica_ns, elapsed_ns(t));
        HookStats::add(&self.stats.replica_calls, 1);
        r
    }

    fn evict_for_slo(&self) -> bool {
        self.inner.evict_for_slo()
    }

    fn choose_victim(&self, job: &JobSpec, running: &[RunningView]) -> Option<u64> {
        let t = Instant::now();
        let r = self.inner.choose_victim(job, running);
        HookStats::add(&self.stats.victim_ns, elapsed_ns(t));
        HookStats::add(&self.stats.victim_calls, 1);
        r
    }

    fn migrate(
        &self,
        job: &JobSpec,
        current: &[RackAddr],
        free: &FreeView,
        probes: &mut ProbeCache,
    ) -> Option<Vec<RackAddr>> {
        let before = probes.probes_run();
        let t = Instant::now();
        let r = self.inner.migrate(job, current, free, probes);
        let s = &self.stats;
        HookStats::add(&s.migrate_ns, elapsed_ns(t));
        HookStats::add(&s.migrate_calls, 1);
        HookStats::add(&s.hook_probes, probes.probes_run() - before);
        r
    }

    fn shrink_floor(&self, held: usize, gentle: bool) -> usize {
        self.inner.shrink_floor(held, gentle)
    }

    fn slo_claw_band(&self) -> f64 {
        self.inner.slo_claw_band()
    }

    fn defrag_margin(&self) -> f64 {
        self.inner.defrag_margin()
    }
}
