//! Deterministic fault injection — a seeded failpoint registry for chaos
//! testing.
//!
//! Production ANN serving systems fail on partial I/O, overload, and
//! stalled peers long before they fail on recall. This crate lets the
//! workspace *rehearse* those failures deterministically: instrumented
//! call sites in `pg_store` (file I/O) and `pg_serve` (transport,
//! batcher, engine dispatch) ask [`hit`] whether an injected fault should
//! fire, and tests arm sites with [`configure`] to drive every error path
//! on demand.
//!
//! Three design rules:
//!
//! * **Deterministic.** No wall clocks, no entropy. The only randomness is
//!   [`Trigger::Prob`], which draws from a per-site SplitMix64 stream
//!   seeded by the test (`rand` here is the workspace's offline compat
//!   shim). Two runs with the same seeds inject the same faults — a chaos
//!   failure always reproduces.
//! * **Zero production cost.** Instrumented crates gate every call to this
//!   crate behind their `failpoints` cargo feature (off by default), so
//!   release builds compile the hooks out entirely.
//! * **Typed outcomes.** A fired failpoint yields a [`Fault`] value the
//!   call site converts into its module's *ordinary* typed error — chaos
//!   tests then assert the same error contract real faults must satisfy.
//!
//! The registry is process-global (instrumented code deep in a call stack
//! cannot thread a handle through), so tests that arm sites must
//! serialize; the chaos suites run with `--test-threads=1` and call
//! [`reset`] between scenarios.
//!
//! ```
//! use pg_fault::{configure, hit, reset, Fault, FaultAction, FaultConfig};
//! use std::io::ErrorKind;
//!
//! reset();
//! configure("doc.write", FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 1));
//! assert_eq!(hit("doc.write"), Some(Fault::Error(ErrorKind::Other)));
//! assert_eq!(hit("doc.write"), None); // Times(1) is spent
//! assert_eq!(pg_fault::hits("doc.write"), 2);
//! assert_eq!(pg_fault::fired("doc.write"), 1);
//! reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What an armed failpoint does when its trigger fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// The call site fails with an [`io::Error`] of this kind.
    Fail(io::ErrorKind),
    /// Write-shaped sites only: persist exactly this many bytes of the
    /// intended payload, then fail — simulating a crash mid-write / torn
    /// write. Read- or call-shaped sites treat it like `Fail(WriteZero)`.
    ShortWrite(usize),
    /// Panic at the site. Exercises panic *containment*: the contract is
    /// that a panicking worker never takes queued work down with it.
    Panic,
    /// Sleep this many milliseconds, then proceed normally — a stalled
    /// peer or slow disk. (The delay is injected, not measured, so the
    /// `no-nondeterminism` discipline is preserved.)
    Stall(u64),
}

/// When an armed failpoint fires, relative to the hits it observes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first `n` hits, then fall dormant.
    Times(u64),
    /// Fire on exactly the `n`-th hit (1-based), and no other.
    Nth(u64),
    /// Fire each hit independently with probability `p`, drawn from a
    /// per-site SplitMix64 stream seeded with `seed`.
    Prob {
        /// Seed of the site's private random stream.
        seed: u64,
        /// Per-hit fire probability, clamped to `[0, 1]`.
        p: f64,
    },
}

/// A failpoint configuration: what to do, and when to do it.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// The injected behavior.
    pub action: FaultAction,
    /// The firing schedule.
    pub trigger: Trigger,
}

impl FaultConfig {
    /// Fire `action` on every hit.
    pub fn always(action: FaultAction) -> Self {
        FaultConfig {
            action,
            trigger: Trigger::Always,
        }
    }

    /// Fire `action` on the first `n` hits only.
    pub fn times(action: FaultAction, n: u64) -> Self {
        FaultConfig {
            action,
            trigger: Trigger::Times(n),
        }
    }

    /// Fire `action` on exactly the `n`-th hit (1-based).
    pub fn nth(action: FaultAction, n: u64) -> Self {
        FaultConfig {
            action,
            trigger: Trigger::Nth(n),
        }
    }

    /// Fire `action` with probability `p` per hit, from a stream seeded
    /// with `seed`.
    pub fn prob(action: FaultAction, seed: u64, p: f64) -> Self {
        FaultConfig {
            action,
            trigger: Trigger::Prob { seed, p },
        }
    }
}

/// The outcome a fired failpoint hands back to the instrumented site.
///
/// [`FaultAction::Panic`] and [`FaultAction::Stall`] never surface here —
/// the former panics inside [`hit`], the latter sleeps and reports "no
/// fault" — so call sites only need to handle the two error-shaped cases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Fail with an [`io::Error`] of this kind.
    Error(io::ErrorKind),
    /// Persist only this many bytes, then fail (write-shaped sites).
    ShortWrite(usize),
}

impl Fault {
    /// The [`io::Error`] this fault stands for, labeled with its site so
    /// chaos-test failures name the injection point.
    pub fn into_io_error(self, site: &str) -> io::Error {
        match self {
            Fault::Error(kind) => io::Error::new(kind, format!("injected fault at `{site}`")),
            Fault::ShortWrite(n) => io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short write ({n} bytes) at `{site}`"),
            ),
        }
    }
}

struct Site {
    config: FaultConfig,
    rng: Option<StdRng>,
    hits: u64,
    fired: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A panicking `hit` (the `Panic` action fires between guard drop and
/// unwind) can poison the registry lock; counters and configs stay
/// consistent because every mutation completes before the guard drops.
fn lock() -> MutexGuard<'static, HashMap<String, Site>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms (or re-arms) `site` with `config`, resetting its counters and —
/// for [`Trigger::Prob`] — reseeding its private random stream.
pub fn configure(site: &str, config: FaultConfig) {
    let rng = match config.trigger {
        Trigger::Prob { seed, .. } => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    lock().insert(
        site.to_string(),
        Site {
            config,
            rng,
            hits: 0,
            fired: 0,
        },
    );
}

/// Disarms every site and forgets all counters. Chaos tests call this
/// between scenarios so no configuration leaks across test boundaries.
pub fn reset() {
    lock().clear();
}

/// How many times `site` was evaluated while armed (fired or not).
/// Unknown or disarmed sites report `0`.
pub fn hits(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.hits)
}

/// How many times `site` actually fired while armed. Unknown or disarmed
/// sites report `0`.
pub fn fired(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.fired)
}

/// The instrumented-site entry point: records a hit at `site` and returns
/// the fault to apply, if the site is armed and its trigger fires.
///
/// `None` means "proceed normally" — the site is unknown, disarmed, its
/// trigger did not fire, or a fired [`FaultAction::Stall`] already slept.
/// A fired [`FaultAction::Panic`] panics here, after the registry lock is
/// released, so the registry itself stays usable for the rest of the test.
pub fn hit(site: &str) -> Option<Fault> {
    let action = {
        let mut map = lock();
        let s = map.get_mut(site)?;
        s.hits += 1;
        let fire = match s.config.trigger {
            Trigger::Always => true,
            Trigger::Times(n) => s.fired < n,
            Trigger::Nth(n) => s.hits == n,
            Trigger::Prob { p, .. } => match s.rng.as_mut() {
                Some(rng) => rng.random_bool(p),
                None => false,
            },
        };
        if !fire {
            return None;
        }
        s.fired += 1;
        s.config.action
    };
    match action {
        FaultAction::Fail(kind) => Some(Fault::Error(kind)),
        FaultAction::ShortWrite(n) => Some(Fault::ShortWrite(n)),
        FaultAction::Panic => panic!("pg_fault: injected panic at failpoint `{site}`"),
        FaultAction::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The registry is process-global and `cargo test` runs tests on many
    // threads, so every test in this module serializes on one lock and
    // resets the registry at entry and exit.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        guard
    }

    #[test]
    fn unknown_site_is_a_no_op() {
        let _g = serial();
        assert_eq!(hit("nope"), None);
        assert_eq!(hits("nope"), 0);
        assert_eq!(fired("nope"), 0);
        reset();
    }

    #[test]
    fn always_fires_every_hit() {
        let _g = serial();
        configure(
            "t.always",
            FaultConfig::always(FaultAction::Fail(io::ErrorKind::BrokenPipe)),
        );
        for _ in 0..5 {
            assert_eq!(
                hit("t.always"),
                Some(Fault::Error(io::ErrorKind::BrokenPipe))
            );
        }
        assert_eq!(hits("t.always"), 5);
        assert_eq!(fired("t.always"), 5);
        reset();
    }

    #[test]
    fn times_spends_its_budget_then_sleeps() {
        let _g = serial();
        configure("t.times", FaultConfig::times(FaultAction::ShortWrite(7), 2));
        assert_eq!(hit("t.times"), Some(Fault::ShortWrite(7)));
        assert_eq!(hit("t.times"), Some(Fault::ShortWrite(7)));
        assert_eq!(hit("t.times"), None);
        assert_eq!(hit("t.times"), None);
        assert_eq!(hits("t.times"), 4);
        assert_eq!(fired("t.times"), 2);
        reset();
    }

    #[test]
    fn nth_fires_exactly_once_at_position() {
        let _g = serial();
        configure(
            "t.nth",
            FaultConfig::nth(FaultAction::Fail(io::ErrorKind::TimedOut), 3),
        );
        assert_eq!(hit("t.nth"), None);
        assert_eq!(hit("t.nth"), None);
        assert_eq!(hit("t.nth"), Some(Fault::Error(io::ErrorKind::TimedOut)));
        assert_eq!(hit("t.nth"), None);
        assert_eq!(fired("t.nth"), 1);
        reset();
    }

    #[test]
    fn prob_is_deterministic_for_a_seed() {
        let _g = serial();
        let run = |seed: u64| -> Vec<bool> {
            configure(
                "t.prob",
                FaultConfig::prob(FaultAction::Fail(io::ErrorKind::Other), seed, 0.5),
            );
            (0..64).map(|_| hit("t.prob").is_some()).collect()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed must inject the same faults");
        assert_ne!(a, c, "different seeds should differ somewhere in 64 draws");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        reset();
    }

    #[test]
    fn reconfigure_resets_counters() {
        let _g = serial();
        configure(
            "t.re",
            FaultConfig::always(FaultAction::Fail(io::ErrorKind::Other)),
        );
        let _ = hit("t.re");
        configure(
            "t.re",
            FaultConfig::times(FaultAction::Fail(io::ErrorKind::Other), 1),
        );
        assert_eq!(hits("t.re"), 0);
        assert!(hit("t.re").is_some());
        assert!(hit("t.re").is_none());
        reset();
    }

    #[test]
    fn panic_action_panics_but_registry_survives() {
        let _g = serial();
        configure("t.panic", FaultConfig::times(FaultAction::Panic, 1));
        let result = std::panic::catch_unwind(|| hit("t.panic"));
        assert!(result.is_err(), "Panic action must panic");
        // The lock was released before the panic: the registry still works
        // and the spent Times(1) trigger no longer fires.
        assert_eq!(hit("t.panic"), None);
        assert_eq!(fired("t.panic"), 1);
        reset();
    }

    #[test]
    fn stall_returns_none_after_sleeping() {
        let _g = serial();
        configure("t.stall", FaultConfig::times(FaultAction::Stall(1), 1));
        assert_eq!(hit("t.stall"), None);
        assert_eq!(fired("t.stall"), 1);
        reset();
    }

    #[test]
    fn into_io_error_carries_site_and_kind() {
        let e = Fault::Error(io::ErrorKind::NotFound).into_io_error("x.y");
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(e.to_string().contains("x.y"));
        let s = Fault::ShortWrite(3).into_io_error("x.z");
        assert_eq!(s.kind(), io::ErrorKind::WriteZero);
        assert!(s.to_string().contains("x.z"));
    }
}
