//! Seeded randomized-test harness.
//!
//! The workspace's replacement for `proptest`: property tests run a fixed
//! number of cases, each driven by a [`SmallRng`] whose seed is derived
//! deterministically from the test name and the case index. A failing
//! property panics with the exact seed, so the case reproduces with
//!
//! ```text
//! ELEPHANTS_PROP_SEED=<seed> cargo test -p <crate> <test_name>
//! ```
//!
//! There is no shrinking — cases are small by construction (generators
//! draw bounded sizes), and the deterministic seed makes any failure
//! replayable and debuggable as-is. (Whole-scenario fuzzing with
//! shrinking lives in the `elephants-chaos` crate, which minimizes at
//! the `ScenarioConfig` level instead.)
//!
//! Properties return `Result<(), String>`; the [`prop_check!`](crate::prop_check!),
//! [`prop_check_eq!`](crate::prop_check_eq!) and
//! [`prop_check_ne!`](crate::prop_check_ne!) macros early-return a
//! formatted `Err` the harness attaches to the panic message.
//!
//! # Soaking and replaying
//!
//! Two environment variables tune the harness without a recompile:
//!
//! * `ELEPHANTS_PROP_CASES=N` overrides every property's case count
//!   with the absolute count `N`. Nightly / manual soaks run the suites
//!   at 10–100× depth:
//!
//!   ```text
//!   ELEPHANTS_PROP_CASES=25600 cargo test -q -p elephants-netsim
//!   ```
//!
//!   The per-case seeds are derived from the test name and the case
//!   index alone, so a soak explores a strict superset of the default
//!   run's cases and any failure it finds replays identically at the
//!   default count — via the seed, not the count.
//!
//! * `ELEPHANTS_PROP_SEED=<seed>` runs exactly one case: the replay
//!   path. A failing property panics with the reproducing seed; copy it
//!   from the panic message and re-run the one test:
//!
//!   ```text
//!   ELEPHANTS_PROP_SEED=1234567 cargo test -p <crate> <test_name>
//!   ```
//!
//!   The replay seed takes precedence over `ELEPHANTS_PROP_CASES`.

use crate::rng::{fnv1a, SeedableRng, SmallRng};

/// Default number of cases per property (matches proptest's default scale).
pub const DEFAULT_CASES: u32 = 256;

/// Absolute case-count override applied by [`run_cases`], for soaking
/// the property suites at 10–100× depth without a recompile.
pub const PROP_CASES_ENV: &str = "ELEPHANTS_PROP_CASES";

/// The case count [`run_cases`] will actually run for a requested count:
/// the [`PROP_CASES_ENV`] override when set (and parsable), else the
/// requested count unchanged.
pub fn effective_cases(requested: u32) -> u32 {
    match std::env::var(PROP_CASES_ENV) {
        Ok(txt) => txt.parse().unwrap_or_else(|_| {
            panic!("{PROP_CASES_ENV} must be a u32 case count, got '{txt}'")
        }),
        Err(_) => requested,
    }
}

/// Run `property` for `cases` deterministic seeds, panicking with the
/// reproducing seed on the first failure.
///
/// If the `ELEPHANTS_PROP_SEED` environment variable is set, only that
/// seed runs — the replay path for a reported failure. Otherwise, if
/// `ELEPHANTS_PROP_CASES` is set it replaces `cases` as an absolute
/// count (see the module docs' soaking section).
pub fn run_cases<F>(name: &str, cases: u32, mut property: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), String>,
{
    if let Ok(seed_txt) = std::env::var("ELEPHANTS_PROP_SEED") {
        let seed: u64 = seed_txt
            .parse()
            .unwrap_or_else(|_| panic!("ELEPHANTS_PROP_SEED must be a u64, got '{seed_txt}'"));
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!("property '{name}' failed under replay seed {seed}: {msg}");
        }
        return;
    }
    let cases = effective_cases(cases);
    // Stable per-property seed stream base.
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!(
                "property '{name}' failed on case {case}/{cases} (replay with \
                 ELEPHANTS_PROP_SEED={seed}): {msg}"
            );
        }
    }
}

/// Assert a condition inside a property, early-returning `Err` on failure.
#[macro_export]
macro_rules! prop_check {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "check failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "check failed at {}:{}: {}",
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Assert two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_check_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "check failed at {}:{}: {} == {} ({:?} vs {:?}){}",
                file!(),
                line!(),
                stringify!($a),
                stringify!($b),
                lhs,
                rhs,
                {
                    #[allow(unused_mut, unused_assignments)]
                    let mut extra = String::new();
                    $(extra = format!(": {}", format!($($fmt)+));)?
                    extra
                }
            ));
        }
    }};
}

/// Assert two expressions are unequal inside a property.
#[macro_export]
macro_rules! prop_check_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return Err(format!(
                "check failed at {}:{}: {} != {} (both {:?}){}",
                file!(),
                line!(),
                stringify!($a),
                stringify!($b),
                lhs,
                {
                    #[allow(unused_mut, unused_assignments)]
                    let mut extra = String::new();
                    $(extra = format!(": {}", format!($($fmt)+));)?
                    extra
                }
            ));
        }
    }};
}

/// Draw a random `Vec<T>` with a length in `[min_len, max_len)`.
pub fn vec_of<T>(
    rng: &mut SmallRng,
    min_len: usize,
    max_len: usize,
    mut gen: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    use crate::rng::RngExt;
    let len = rng.random_range(min_len..max_len);
    (0..len).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngExt;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        run_cases("always_true", 16, |_| Ok(()));
        run_cases("count_cases", 16, |_| {
            count += 1;
            Ok(())
        });
        // `count` moved into the closure by reference; the harness ran it.
        assert_eq!(count, 16);
    }

    #[test]
    fn effective_cases_defaults_to_the_requested_count() {
        // The suite never runs with the soak override exported, so the
        // pass-through is the observable behaviour here; the override
        // branch is pure string parsing exercised by soak runs.
        if std::env::var(PROP_CASES_ENV).is_err() {
            assert_eq!(effective_cases(256), 256);
            assert_eq!(effective_cases(7), 7);
        }
    }

    #[test]
    #[should_panic(expected = "ELEPHANTS_PROP_SEED")]
    fn failing_property_reports_replay_seed() {
        run_cases("always_false", 4, |_| Err("boom".to_string()));
    }

    #[test]
    fn check_macros_format_failures() {
        fn prop(flag: bool) -> Result<(), String> {
            prop_check!(flag, "flag was {}", flag);
            prop_check_eq!(1 + 1, 2);
            prop_check_ne!(1, 2);
            Ok(())
        }
        assert!(prop(true).is_ok());
        let err = prop(false).unwrap_err();
        assert!(err.contains("flag was false"), "{err}");
    }

    #[test]
    fn vec_of_respects_bounds_and_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let va = vec_of(&mut a, 1, 50, |r| r.random_range(0u64..100));
        let vb = vec_of(&mut b, 1, 50, |r| r.random_range(0u64..100));
        assert_eq!(va, vb);
        assert!(!va.is_empty() && va.len() < 50);
    }
}
