//! Deterministic fault injection for the overload/robustness harness.
//!
//! The chaos mode of the load harness (and the fault-injection tests)
//! need the daemon to misbehave *on demand and reproducibly*: handlers
//! that stall, handlers that panic, scoring that takes a known amount of
//! time. Randomized fault injection makes failures unreproducible, so
//! everything here is counter-driven: "every Nth handled request" is a
//! global arrival-order counter, and the injected *count* is exact even
//! though which connection draws the short straw depends on scheduling.
//!
//! Three injection points:
//!
//! * **handler delay** — every Nth non-admin request sleeps before doing
//!   its work, simulating a slow downstream dependency pinning a handler
//!   thread (the per-request deadline must still be honored: the reply
//!   wait times out and the client gets a 408, not a hang);
//! * **handler panic** — every Nth non-admin request panics inside the
//!   panic barrier, which must surface as a 500 on that request only;
//! * **scoring delay** — [`crate::BatchConfig::score_delay`] stretches
//!   every batch's service time by a fixed amount, turning the scoring
//!   lane into a calibrated-capacity server so the chaos harness can
//!   drive exactly 4× saturation.
//!
//! Stalled *sockets* (slowloris) are injected client-side by the chaos
//! harness of the `nr-daemon` binary (`nr-daemon chaos`): a fault plan
//! cannot fake a dead peer.
//!
//! **Disk faults** (bit flips, truncation, torn renames, kill-mid-write)
//! are not here: they live in `nr_store::fault`, which the durability
//! harness (`tests/durability.rs`) imports directly to corrupt segment
//! files, store journals, and model-registry bundles. The contract those
//! injectors test: every corrupted artifact loads as a clean typed error
//! (never a panic, hang, or silently wrong data), and a daemon rebooted
//! onto a corrupt registry quarantines its way back to the last good
//! model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to inject, configured once at daemon startup
/// ([`crate::DaemonConfig::faults`]). The default plan injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `Some((n, d))`: every `n`th non-admin request sleeps `d` before
    /// its handler runs.
    pub handler_delay: Option<(u64, Duration)>,
    /// `Some(n)`: every `n`th non-admin request panics inside the panic
    /// barrier (answered with a 500; the connection survives).
    pub handler_panic: Option<u64>,
}

impl FaultPlan {
    /// True when the plan injects nothing (the production default).
    pub fn is_noop(&self) -> bool {
        self.handler_delay.is_none() && self.handler_panic.is_none()
    }
}

/// The live injector: the plan plus the arrival counter and tallies of
/// what was actually injected (read back through `/stats` so harnesses
/// can assert exact injection counts).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    seen: AtomicU64,
    delays: AtomicU64,
    panics: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// Called once per non-admin request, before the handler's real work.
    /// May sleep (handler delay) and may panic (handler panic) — callers
    /// must already be inside the per-request panic barrier.
    pub fn on_request(&self) {
        if self.plan.is_noop() {
            return;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((every, delay)) = self.plan.handler_delay {
            if every > 0 && n % every == 0 {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
            }
        }
        if let Some(every) = self.plan.handler_panic {
            if every > 0 && n % every == 0 {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: handler panic (request {n})");
            }
        }
    }

    /// Handler delays injected so far.
    pub fn delays_injected(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Handler panics injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            inj.on_request();
        }
        assert_eq!(inj.delays_injected(), 0);
        assert_eq!(inj.panics_injected(), 0);
    }

    #[test]
    fn panic_plan_fires_exactly_every_nth() {
        let inj = FaultInjector::new(FaultPlan {
            handler_panic: Some(5),
            ..FaultPlan::default()
        });
        let mut panicked = 0;
        for _ in 0..20 {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.on_request())).is_err()
            {
                panicked += 1;
            }
        }
        assert_eq!(panicked, 4, "every 5th of 20 requests must panic");
        assert_eq!(inj.panics_injected(), 4);
    }

    #[test]
    fn delay_plan_counts_and_sleeps() {
        let inj = FaultInjector::new(FaultPlan {
            handler_delay: Some((2, Duration::from_millis(1))),
            ..FaultPlan::default()
        });
        let t0 = std::time::Instant::now();
        for _ in 0..4 {
            inj.on_request();
        }
        assert_eq!(inj.delays_injected(), 2);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
