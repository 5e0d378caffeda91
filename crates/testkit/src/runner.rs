//! Property runner: deterministic case generation, greedy shrinking, and
//! the [`property!`](crate::property!) macro that mimics the proptest surface the suites
//! were originally written against.
//!
//! Each property gets a stable base seed (FNV-1a of its full test path),
//! overridable via `TESTKIT_SEED`; case `i` draws from `base.fork(i)`, so
//! one failing case replays exactly from the printed seed without
//! re-running the cases before it.

use crate::gen::{Gen, Shrinkable};
use desim::SimRng;
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Sentinel error string that discards a case instead of failing it
/// (the `prop_assume!` mechanism).
pub const DISCARD: &str = "__testkit_discard__";

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}
static HOOK: Once = Once::new();

/// Install (once) a panic hook that suppresses backtrace spew while the
/// runner probes candidate inputs; forwards to the previous hook
/// otherwise.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

fn eval<T, F: Fn(&T) -> Result<(), String>>(prop: &F, value: &T) -> Outcome {
    QUIET.with(|q| q.set(true));
    let r = catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET.with(|q| q.set(false));
    match r {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(m)) if m == DISCARD => Outcome::Discard,
        Ok(Err(m)) => Outcome::Fail(m),
        Err(e) => Outcome::Fail(format!("panicked: {}", panic_message(e))),
    }
}

/// FNV-1a of the test name: a stable per-property default seed.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| s.parse().ok())
}

/// Cap on property evaluations spent shrinking one failure.
const MAX_SHRINK_EVALS: u32 = 10_000;

fn shrink<T: Clone + 'static, F: Fn(&T) -> Result<(), String>>(
    root: Shrinkable<T>,
    first_msg: String,
    prop: &F,
) -> (T, String, u32, u32) {
    let mut current = root;
    let mut msg = first_msg;
    let mut steps = 0u32;
    let mut evals = 0u32;
    'outer: loop {
        for child in current.children() {
            if evals >= MAX_SHRINK_EVALS {
                break 'outer;
            }
            evals += 1;
            if let Outcome::Fail(m) = eval(prop, &child.value) {
                current = child;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current.value, msg, steps, evals)
}

/// Run `prop` against `cases` values drawn from `gen`. On failure,
/// greedily shrink and panic with the minimal counterexample and the
/// environment needed to replay it.
pub fn run_property<T: Clone + Debug + 'static>(
    name: &str,
    default_cases: u32,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    install_quiet_hook();
    let cases = env_u64("TESTKIT_CASES").map_or(default_cases, |v| v as u32).max(1);
    let seed = env_u64("TESTKIT_SEED").unwrap_or_else(|| name_seed(name));
    let base = SimRng::seed_from_u64(seed);
    let mut discards = 0u64;
    for case in 0..cases {
        let mut rng = base.fork(u64::from(case));
        let tree = gen.sample(&mut rng);
        match eval(&prop, &tree.value) {
            Outcome::Pass => {}
            Outcome::Discard => discards += 1,
            Outcome::Fail(first_msg) => {
                let original = tree.value.clone();
                let (min, msg, steps, evals) = shrink(tree, first_msg.clone(), &prop);
                panic!(
                    "\nproperty `{name}` failed on case {case_no}/{cases} (base seed {seed})\n\
                     original input: {original:?}\n\
                     original failure: {first_msg}\n\
                     minimal counterexample ({steps} shrink steps, {evals} evaluations):\n    \
                     {min:?}\n\
                     failure at minimum: {msg}\n\
                     replay: TESTKIT_SEED={seed} TESTKIT_CASES={cases} cargo test {short}\n",
                    case_no = case + 1,
                    short = name.rsplit("::").next().unwrap_or(name),
                );
            }
        }
    }
    if discards > u64::from(cases) * 4 {
        panic!("property `{name}`: too many discarded cases ({discards} for {cases} cases) — loosen prop_assume! conditions");
    }
}

/// Declare property tests in the proptest style:
///
/// ```ignore
/// testkit::property! {
///     #[cases(128)]
///     fn sum_is_commutative(a in u64_in(0..100), b in u64_in(0..100)) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]`. The body may use `prop_assert!`,
/// `prop_assert_eq!`, `prop_assume!`, or plain `assert!`/panics. Up to
/// four `name in gen` bindings are supported. `#[cases(N)]` defaults
/// to 64.
#[macro_export]
macro_rules! property {
    () => {};
    (
        $(#[doc = $doc:expr])*
        $(#[cases($n:expr)])?
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            #[allow(unused_variables, unused_mut)]
            let default_cases: u32 = 64;
            $(let default_cases: u32 = $n;)?
            let gen = $crate::zip_gens!($($gen),+);
            $crate::runner::run_property(
                concat!(module_path!(), "::", stringify!($name)),
                default_cases,
                &gen,
                |__vals| {
                    #[allow(unreachable_code, clippy::redundant_closure_call)]
                    let __r: ::std::result::Result<(), String> =
                        $crate::apply_args!(__vals, ($($arg),+), $body);
                    __r
                },
            );
        }
        $crate::property!{ $($rest)* }
    };
}

/// Combine 1–4 generators into one (tuple) generator. Internal to
/// [`property!`](crate::property!).
#[macro_export]
macro_rules! zip_gens {
    ($g:expr) => { $g };
    ($g1:expr, $g2:expr) => { $crate::gen::tuple2($g1, $g2) };
    ($g1:expr, $g2:expr, $g3:expr) => { $crate::gen::tuple3($g1, $g2, $g3) };
    ($g1:expr, $g2:expr, $g3:expr, $g4:expr) => { $crate::gen::tuple4($g1, $g2, $g3, $g4) };
    ($g1:expr, $g2:expr, $g3:expr, $g4:expr, $g5:expr) => {
        $crate::gen::tuple5($g1, $g2, $g3, $g4, $g5)
    };
}

/// Generic applicators: passing the cloned tuple fields *alongside* the
/// body closure pins the closure's parameter types to the generator's
/// output type, so property bodies need no annotations. Internal to
/// [`property!`](crate::property!).
pub fn apply1<A, R>(a: A, f: impl FnOnce(A) -> R) -> R {
    f(a)
}
pub fn apply2<A, B, R>(a: A, b: B, f: impl FnOnce(A, B) -> R) -> R {
    f(a, b)
}
pub fn apply3<A, B, C, R>(a: A, b: B, c: C, f: impl FnOnce(A, B, C) -> R) -> R {
    f(a, b, c)
}
pub fn apply4<A, B, C, D, R>(a: A, b: B, c: C, d: D, f: impl FnOnce(A, B, C, D) -> R) -> R {
    f(a, b, c, d)
}
#[allow(clippy::many_single_char_names)]
pub fn apply5<A, B, C, D, E, R>(
    a: A,
    b: B,
    c: C,
    d: D,
    e: E,
    f: impl FnOnce(A, B, C, D, E) -> R,
) -> R {
    f(a, b, c, d, e)
}

/// Invoke the property body with cloned tuple fields via the `applyN`
/// helpers. Internal to [`property!`](crate::property!).
#[macro_export]
macro_rules! apply_args {
    ($v:ident, ($a:ident), $body:block) => {
        $crate::runner::apply1($v.clone(), |$a| {
            $body
            ::std::result::Result::Ok(())
        })
    };
    ($v:ident, ($a:ident, $b:ident), $body:block) => {
        $crate::runner::apply2($v.0.clone(), $v.1.clone(), |$a, $b| {
            $body
            ::std::result::Result::Ok(())
        })
    };
    ($v:ident, ($a:ident, $b:ident, $c:ident), $body:block) => {
        $crate::runner::apply3($v.0.clone(), $v.1.clone(), $v.2.clone(), |$a, $b, $c| {
            $body
            ::std::result::Result::Ok(())
        })
    };
    ($v:ident, ($a:ident, $b:ident, $c:ident, $d:ident), $body:block) => {
        $crate::runner::apply4(
            $v.0.clone(),
            $v.1.clone(),
            $v.2.clone(),
            $v.3.clone(),
            |$a, $b, $c, $d| {
                $body
                ::std::result::Result::Ok(())
            },
        )
    };
    ($v:ident, ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident), $body:block) => {
        $crate::runner::apply5(
            $v.0.clone(),
            $v.1.clone(),
            $v.2.clone(),
            $v.3.clone(),
            $v.4.clone(),
            |$a, $b, $c, $d, $e| {
                $body
                ::std::result::Result::Ok(())
            },
        )
    };
}

/// Fail the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__l, __r) = (&$a, &$b);
        if __l != __r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?} == {:?}` ({}:{})", __l, __r, file!(), line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        if __l != __r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?} == {:?}`: {}", __l, __r, format!($($fmt)+)
            ));
        }
    }};
}

/// Discard the current case (it counts as neither pass nor failure)
/// unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::runner::DISCARD.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::gen::{u64_in, vec_of};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn passing_property_runs_clean() {
        super::run_property("t::pass", 64, &u64_in(0..100), |v| {
            if *v < 100 {
                Ok(())
            } else {
                Err("out of range".into())
            }
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // "No vector sums past 50" — element candidates include v-1, so
        // greedy shrinking must land exactly on a sum of 51.
        let gen = vec_of(u64_in(0..200), 0..20);
        let err = catch_unwind(AssertUnwindSafe(|| {
            super::run_property("t::shrinks", 64, &gen, |v| {
                if v.iter().sum::<u64>() <= 50 {
                    Ok(())
                } else {
                    Err(format!("sum {} > 50", v.iter().sum::<u64>()))
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("minimal counterexample"), "{msg}");
        assert!(
            msg.contains("failure at minimum: sum 51 > 50"),
            "expected the shrunk sum to be exactly 51: {msg}"
        );
        assert!(msg.contains("TESTKIT_SEED="), "replay line missing: {msg}");
    }

    #[test]
    fn panicking_bodies_are_caught_and_shrunk() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            super::run_property("t::panics", 64, &u64_in(0..1000), |v| {
                assert!(*v < 10, "boom at {v}");
                Ok(())
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("panicked"), "{msg}");
        // Minimal failing value for `v < 10` is exactly 10.
        assert!(msg.contains("\n    10"), "expected 10 as the minimum: {msg}");
    }

    #[test]
    fn failures_replay_from_printed_seed() {
        let gen = u64_in(0..1_000_000);
        let prop = |v: &u64| {
            if *v % 7 != 0 {
                Ok(())
            } else {
                Err("divisible by 7".into())
            }
        };
        let run = || {
            catch_unwind(AssertUnwindSafe(|| {
                super::run_property("t::replay", 256, &gen, prop);
            }))
            .unwrap_err()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.downcast_ref::<String>().unwrap(),
            b.downcast_ref::<String>().unwrap(),
            "same seed, same failure report"
        );
    }
}
