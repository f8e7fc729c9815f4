//! Wall-clock deadlines and cooperative cancellation for solver calls.
//!
//! Campaign-style workloads (many verification instances swept over attack
//! parameters) need individual instances to give up instead of hanging: a
//! [`Budget`] carries an optional deadline and an optional shared cancel
//! flag, and the CDCL search loop and the simplex pivot loop poll it at
//! conflict/pivot boundaries. An exhausted budget surfaces as a first-class
//! `Unknown` verdict (see [`crate::SatResult`]) carrying the [`Interrupt`]
//! reason, so a timed-out instance is distinguishable from `Unsat`.
//!
//! Polling is cooperative and cheap: an unlimited budget (the default) is
//! never consulted, and limited budgets are checked every few dozen search
//! steps, so a zero-millisecond deadline still interrupts promptly while a
//! generous one costs a handful of clock reads per thousand conflicts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solver call stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    Timeout,
    /// The shared cancel flag was raised.
    Cancelled,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Timeout => write!(f, "timeout"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A resource budget for one solver call: an optional wall-clock deadline
/// plus an optional shared cancellation flag.
///
/// The default budget is unlimited. Budgets are cheap to clone — the cancel
/// flag is shared, so cloning a budget across worker threads lets one
/// [`Budget::cancel`] call stop them all.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget with no deadline and no cancel flag.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget that times out `timeout` from now.
    ///
    /// A `timeout` too large to represent as an `Instant` (e.g. a
    /// client-supplied `u64::MAX` milliseconds) means "no deadline"
    /// rather than a panic — the request is unvalidated user input at
    /// both the serve-protocol and scenario entry points.
    pub fn with_timeout(timeout: Duration) -> Self {
        Budget { deadline: Instant::now().checked_add(timeout), cancel: None }
    }

    /// The budget of an optional millisecond timeout, as scenarios,
    /// campaign jobs and serve requests carry it: unlimited for `None`,
    /// [`Budget::with_timeout`] otherwise.
    pub fn from_timeout_ms(timeout_ms: Option<u64>) -> Self {
        match timeout_ms {
            Some(ms) => Budget::with_timeout(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        }
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a shared cancellation flag (raised with [`Budget::cancel`]
    /// or by storing `true` from any thread).
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Creates and attaches a fresh cancellation flag, returning it.
    pub fn new_cancel_token(&mut self) -> Arc<AtomicBool> {
        let token = Arc::new(AtomicBool::new(false));
        self.cancel = Some(Arc::clone(&token));
        token
    }

    /// Raises the cancellation flag, if one is attached.
    pub fn cancel(&self) {
        if let Some(flag) = &self.cancel {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether this budget can ever interrupt a solve (fast pre-check so
    /// unlimited budgets cost nothing in the search loops).
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Checks the budget; `Some` means the current solve must stop.
    ///
    /// Cancellation takes precedence over the deadline, and both conditions
    /// are monotone: once exhausted, a budget stays exhausted.
    pub fn exhausted(&self) -> Option<Interrupt> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Interrupt::Timeout);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(b.exhausted().is_none());
    }

    #[test]
    fn zero_timeout_exhausts_immediately() {
        let b = Budget::with_timeout(Duration::ZERO);
        assert!(b.is_limited());
        assert_eq!(b.exhausted(), Some(Interrupt::Timeout));
    }

    #[test]
    fn millisecond_timeouts_map_to_budgets() {
        let none = Budget::from_timeout_ms(None);
        assert!(!none.is_limited());
        assert!(none.exhausted().is_none());
        let zero = Budget::from_timeout_ms(Some(0));
        assert!(zero.is_limited());
        assert_eq!(zero.exhausted(), Some(Interrupt::Timeout));
    }

    #[test]
    fn generous_timeout_not_yet_exhausted() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        assert!(b.is_limited());
        assert!(b.exhausted().is_none());
    }

    #[test]
    fn overflowing_timeout_means_no_deadline_not_a_panic() {
        // Timeouts too large for Instant arithmetic (platform-dependent;
        // Duration::MAX overflows everywhere) must degrade to "no
        // deadline" instead of panicking the worker.
        let b = Budget::with_timeout(Duration::MAX);
        assert!(b.exhausted().is_none());
        // The overflowed deadline cannot limit the solve.
        assert!(!b.is_limited());
        // u64::MAX milliseconds — the wire-reachable extreme — must be
        // harmless whether or not it overflows on this platform.
        let b = Budget::with_timeout(Duration::from_millis(u64::MAX));
        assert!(b.exhausted().is_none());
    }

    #[test]
    fn cancel_token_wins_over_deadline() {
        let mut b = Budget::with_timeout(Duration::from_secs(3600));
        let token = b.new_cancel_token();
        assert!(b.exhausted().is_none());
        token.store(true, Ordering::Relaxed);
        assert_eq!(b.exhausted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let mut b = Budget::unlimited();
        let _ = b.new_cancel_token();
        let c = b.clone();
        b.cancel();
        assert_eq!(c.exhausted(), Some(Interrupt::Cancelled));
    }
}
