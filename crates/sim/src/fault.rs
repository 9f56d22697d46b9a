//! Deterministic fault injection for the engine.
//!
//! A [`FaultPlan`] decides, purely from a seed and a `(task index,
//! attempt)` pair, whether a fault is injected and of what kind. Because
//! the decision is a pure hash of those inputs, the same plan injects
//! the same faults into the same tasks on every run, on every machine —
//! which is what makes the recovery paths in
//! `crates/sim/tests/fault_tolerance.rs` reproducible and lets CI prove
//! that a sweep survives a panicking task without flaking.
//!
//! Three fault kinds are supported, matching the failure classes the
//! engine distinguishes:
//!
//! * **Panics** — the task panics mid-flight (isolated by the engine's
//!   `catch_unwind`, never retried).
//! * **Transient I/O errors** — the task fails with a retryable error
//!   before it runs (consumed by the engine's bounded-retry loop; the
//!   hash includes the attempt number, so a retry re-rolls the dice).
//! * **Delays** — the task is slowed down before running (exercises
//!   scheduling around slow tasks).
//!
//! Rates are expressed in permille (0..=1000) rather than floats so the
//! plan stays `Eq` and hashable-by-value alongside `EngineConfig`.

use std::time::Duration;

/// A fault the plan injects into one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The attempt panics.
    Panic,
    /// The attempt fails with a transient (retryable) I/O error.
    TransientIo,
    /// The attempt runs after sleeping this long.
    Delay(Duration),
}

/// A seeded, task-indexed fault-injection plan.
///
/// ```
/// use dfcm_sim::FaultPlan;
///
/// let plan = FaultPlan::new(7).with_panics(250);
/// // Deterministic: the same (task, attempt) always rolls the same way.
/// for task in 0..16 {
///     assert_eq!(plan.fault_for(task, 0), plan.fault_for(task, 0));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    panic_permille: u16,
    transient_permille: u16,
    delay_permille: u16,
    delay: Duration,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 0,
            transient_permille: 0,
            delay_permille: 0,
            delay: Duration::from_millis(5),
        }
    }

    /// Enables panic injection at `permille` per thousand attempts
    /// (clamped to 1000).
    pub fn with_panics(mut self, permille: u16) -> Self {
        self.panic_permille = permille.min(1000);
        self
    }

    /// Enables transient-I/O-error injection at `permille` per thousand
    /// attempts (clamped to 1000).
    pub fn with_transient_io(mut self, permille: u16) -> Self {
        self.transient_permille = permille.min(1000);
        self
    }

    /// Enables slow-task injection at `permille` per thousand attempts
    /// (clamped to 1000), sleeping `delay` before the task runs.
    pub fn with_delays(mut self, permille: u16, delay: Duration) -> Self {
        self.delay_permille = permille.min(1000);
        self.delay = delay;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if no fault kind is enabled.
    pub fn is_empty(&self) -> bool {
        self.panic_permille == 0 && self.transient_permille == 0 && self.delay_permille == 0
    }

    /// The fault (if any) this plan injects into attempt `attempt` of
    /// task `task`. Pure: same inputs, same answer. One roll in 0..1000
    /// is compared against the cumulative rate bands (panic first, then
    /// transient, then delay), so the kinds never overlap; if the rates
    /// sum past 1000 the later bands are truncated.
    pub fn fault_for(&self, task: usize, attempt: u32) -> Option<InjectedFault> {
        if self.is_empty() {
            return None;
        }
        let mix = self.seed
            ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(attempt) << 48);
        let roll = (splitmix64(mix) % 1000) as u16;
        if roll < self.panic_permille {
            Some(InjectedFault::Panic)
        } else if roll < self.panic_permille.saturating_add(self.transient_permille) {
            Some(InjectedFault::TransientIo)
        } else if roll
            < self
                .panic_permille
                .saturating_add(self.transient_permille)
                .saturating_add(self.delay_permille)
        {
            Some(InjectedFault::Delay(self.delay))
        } else {
            None
        }
    }

    /// Parses the CLI form `SEED[:PANIC[:TRANSIENT[:DELAY]]]` — permille
    /// rates, with slow tasks sleeping 5 ms.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let field = |name: &str, part: Option<&str>| -> Result<u64, String> {
            part.map_or(Ok(0), |p| {
                p.parse()
                    .map_err(|_| format!("bad {name} in fault spec `{spec}`"))
            })
        };
        let seed = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("empty fault spec `{spec}`"))?
            .parse()
            .map_err(|_| format!("bad seed in fault spec `{spec}`"))?;
        let panic = field("panic rate", parts.next())?;
        let transient = field("transient rate", parts.next())?;
        let delay = field("delay rate", parts.next())?;
        if parts.next().is_some() {
            return Err(format!("too many fields in fault spec `{spec}`"));
        }
        if panic.max(transient).max(delay) > 1000 {
            return Err(format!("permille rate above 1000 in fault spec `{spec}`"));
        }
        Ok(FaultPlan::new(seed)
            .with_panics(panic as u16)
            .with_transient_io(transient as u16)
            .with_delays(delay as u16, Duration::from_millis(5)))
    }
}

/// The splitmix64 mixing function: a full-avalanche 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_index() {
        let a = FaultPlan::new(42).with_panics(300).with_transient_io(300);
        let b = FaultPlan::new(42).with_panics(300).with_transient_io(300);
        let faults_a: Vec<_> = (0..100).map(|i| a.fault_for(i, 0)).collect();
        let faults_b: Vec<_> = (0..100).map(|i| b.fault_for(i, 0)).collect();
        assert_eq!(faults_a, faults_b);
        let other: Vec<_> = (0..100)
            .map(|i| FaultPlan::new(43).with_panics(300).fault_for(i, 0))
            .collect();
        assert_ne!(faults_a, other, "different seeds differ");
    }

    #[test]
    fn rates_roughly_respected() {
        let plan = FaultPlan::new(1).with_panics(500);
        let hits = (0..2000)
            .filter(|&i| plan.fault_for(i, 0) == Some(InjectedFault::Panic))
            .count();
        assert!((700..=1300).contains(&hits), "{hits} of 2000 at 50%");
    }

    #[test]
    fn attempt_rerolls_transient_faults() {
        let plan = FaultPlan::new(9).with_transient_io(500);
        let faulted: Vec<usize> = (0..200)
            .filter(|&i| plan.fault_for(i, 0).is_some())
            .collect();
        assert!(!faulted.is_empty());
        // For at least one faulted task, a later attempt rolls clean —
        // this is what lets bounded retries make progress.
        assert!(faulted
            .iter()
            .any(|&i| (1..5).any(|a| plan.fault_for(i, a).is_none())));
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::new(5);
        assert!(plan.is_empty());
        assert!((0..1000).all(|i| plan.fault_for(i, 0).is_none()));
    }

    #[test]
    fn always_rate_always_faults() {
        let plan = FaultPlan::new(11).with_panics(1000);
        assert!((0..100).all(|i| plan.fault_for(i, 0) == Some(InjectedFault::Panic)));
    }

    #[test]
    fn bands_are_ordered_panic_then_transient_then_delay() {
        let delay = Duration::from_millis(1);
        let plan = FaultPlan::new(3)
            .with_panics(0)
            .with_transient_io(0)
            .with_delays(1000, delay);
        assert!((0..50).all(|i| plan.fault_for(i, 0) == Some(InjectedFault::Delay(delay))));
    }

    #[test]
    fn parse_accepts_partial_specs() {
        assert_eq!(FaultPlan::parse("7").unwrap(), FaultPlan::new(7));
        assert_eq!(
            FaultPlan::parse("7:250").unwrap(),
            FaultPlan::new(7).with_panics(250)
        );
        let full = FaultPlan::parse("7:100:200:300").unwrap();
        assert_eq!(
            full,
            FaultPlan::new(7)
                .with_panics(100)
                .with_transient_io(200)
                .with_delays(300, Duration::from_millis(5))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("7:abc").is_err());
        assert!(FaultPlan::parse("7:1:2:3:4").is_err());
        assert!(FaultPlan::parse("7:2000").is_err());
    }
}
