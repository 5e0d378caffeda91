//! The measuring loop every workload shares: repeated set-ups, rounds
//! until the time is up, a byte check of every round, and the reduction
//! of the samples to the declared metrics.

use crate::metrics::{self, END_TO_END, LAYERS};
use crate::reference::Clock;
use crate::trace::{HookStats, Tag, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repeats at least this often, and then while it has taken less
/// than [`SETUP_BUDGET`] in all, up to [`MAX_SETUP_REPS`].
const MIN_SETUP_REPS: u32 = 5;
const MAX_SETUP_REPS: u32 = 200;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Rounds run at least this often, however long they take.
const MIN_ROUNDS: u32 = 4;

/// What one untimed pass over a round's output yields.
pub struct Finished {
    /// The round's canonical output; every round must reproduce it.
    pub bytes: String,
    /// Units of work done, the numerator of `throughput`.
    pub work: u64,
    /// Per-layer values of a traced round.
    pub layers: Vec<(&'static str, f64)>,
}

/// One benchmark workload, split where the timing boundaries fall.
pub trait Workload {
    type Input;
    type Output;

    /// Build everything the rounds share from the seeded spec (timed as
    /// `setup_s`; `measure::run` opens the enclosing `setup` span).
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Input, String>;

    /// One round. Its time is the sum of the steps it runs through
    /// `clock`, so every part that counts must sit inside a step. `hooks`
    /// is `Some` on traced rounds.
    fn round(
        &self,
        input: &Self::Input,
        tr: &mut Tracer,
        clock: &mut Clock,
        hooks: Option<Arc<HookStats>>,
    ) -> Result<Self::Output, String>;

    /// Untimed: canonical bytes, work, and on traced rounds (exactly when
    /// `hooks` is `Some`) the per-layer values. An `Err` fails the round.
    fn finish(
        &self,
        input: &Self::Input,
        out: Self::Output,
        tr: &mut Tracer,
        tag: Tag,
        hooks: Option<&HookStats>,
    ) -> Result<Finished, String>;

    /// Per-layer values of one traced set-up.
    fn setup_layers(&self, input: &Self::Input, tr: &Tracer, tag: Tag) -> Vec<(&'static str, f64)>;

    /// The FNV-1a digest the rounds must reproduce at this seed, when one
    /// is pinned; otherwise the first good round sets it.
    fn pinned(&self) -> Option<String>;
}

/// FNV-1a (64-bit, hex) of `text` with its trailing newlines normalized
/// to one, so a golden file and an emitted report compare equal.
pub fn digest(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.trim_end_matches('\n').as_bytes().iter().chain(b"\n") {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A finished run: the contract's result line plus the spans.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub tracer: Tracer,
    pub hooks: Vec<(u32, Arc<HookStats>)>,
}

/// This process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A layer value at the reference host's speed: times scale, counts and
/// ratios do not.
fn at_reference(name: &str, v: f64, scale: f64) -> f64 {
    match LAYERS.iter().find(|l| l.name == name).map(|l| l.unit) {
        Some("s" | "ns") => v * scale,
        _ => v,
    }
}

fn median(v: &[f64]) -> f64 {
    metrics::quartiles(v).1
}

/// Run `w`: set up repeatedly, then rounds for `seconds`. Every time is
/// scaled to the reference host's quiet speed ([`Clock`]). With `trace`,
/// rounds alternate between untraced and traced so `trace.overhead`
/// compares neighbours, and the metrics are the per-layer ones.
pub fn run<W: Workload>(w: &W, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut tr = Tracer::new(trace);
    let mut clock = Clock::new();
    let mut wall = Vec::new();
    let mut scales = Vec::new();

    let mut setup_secs = Vec::new();
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let mut input = None;
    let mut k = 0;
    while k < MIN_SETUP_REPS || (started.elapsed() < SETUP_BUDGET && k < MAX_SETUP_REPS) {
        let tag = Tag::Setup(k);
        tr.set(trace, tag);
        let built = clock.step(|| {
            tr.enter("setup");
            let built = w.setup(&mut tr);
            tr.exit();
            built
        })?;
        let (raw, secs) = clock.take();
        let scale = secs / raw;
        setup_secs.push(secs);
        scales.push(scale);
        if trace {
            for (name, v) in w.setup_layers(&built, &tr, tag) {
                let v = at_reference(name, v, scale);
                setup_layers.entry(name).or_default().push(v);
            }
        }
        input = Some(std::hint::black_box(built));
        k += 1;
    }
    let input = input.expect("at least one set-up");

    let mut expected = w.pinned();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut round_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut hooks_by_round = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0u32;
    while n < MIN_ROUNDS || Instant::now() < deadline {
        let traced = trace && n % 2 == 1;
        let tag = Tag::Round(n);
        n += 1;
        attempted += 1;
        tr.set(traced, tag);
        let hooks = traced.then(|| Arc::new(HookStats::default()));
        tr.enter("round");
        let res = catch_unwind(AssertUnwindSafe(|| {
            w.round(&input, &mut tr, &mut clock, hooks.clone())
        }));
        tr.close_open();
        let (raw, secs) = clock.take();
        let scale = secs / raw;
        let checked = match res {
            Ok(Ok(_)) if raw == 0.0 => Err("the round timed no step".to_string()),
            Ok(Ok(out)) => catch_unwind(AssertUnwindSafe(|| {
                w.finish(&input, out, &mut tr, tag, hooks.as_deref())
            }))
            .unwrap_or_else(|_| Err("panicked while checking the output".into())),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panicked".into()),
        };
        tr.close_open();
        let done = checked.and_then(|f| {
            let d = digest(&f.bytes);
            match &expected {
                Some(r) if *r != d => Err(format!("output digest {d} differs from {r}")),
                _ => {
                    expected = Some(d);
                    Ok(f)
                }
            }
        });
        match done {
            Ok(f) => {
                if traced {
                    traced_secs.push(secs);
                    for (name, v) in f.layers {
                        let v = at_reference(name, v, scale);
                        round_layers.entry(name).or_default().push(v);
                    }
                } else {
                    plain_secs.push(secs);
                    wall.push(raw);
                    scales.push(scale);
                    rates.push(f.work as f64 / secs);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: round {} failed: {e}", n - 1);
            }
        }
        if let Some(h) = hooks {
            hooks_by_round.push((n - 1, h));
        }
    }
    if plain_secs.is_empty() || (trace && traced_secs.is_empty()) {
        return Err(format!("every round failed ({failed} of {attempted})"));
    }

    eprintln!(
        "perfbench: untraced rounds took {:.6} s of wall time (median of {}); \
         the host ran at {:.3} of the reference speed",
        median(&wall),
        wall.len(),
        median(&scales)
    );

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if trace {
        for (name, v) in setup_layers.into_iter().chain(round_layers) {
            values.insert(name, median(&v));
        }
        values.insert(
            "trace.overhead",
            median(&traced_secs) / median(&plain_secs) - 1.0,
        );
    } else {
        values.insert("setup_s", median(&setup_secs));
        values.insert("round_s", median(&plain_secs));
        values.insert("throughput", median(&rates));
        values.insert("peak_rss_mb", peak_rss_mb()?);
    }
    let declared: Vec<(&'static str, &'static str)> = if trace {
        LAYERS.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if let Some(stray) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("measured an undeclared metric {stray}"));
    }
    // A layer the workload does not exercise reads 0.
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        tracer: tr,
        hooks: hooks_by_round,
    })
}
