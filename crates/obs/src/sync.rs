//! Synchronization shim: the one seam between production locking and the
//! `loom-lite` model checker.
//!
//! The serving stack leans on hand-rolled concurrent structures (the
//! sharded second-chance neighbor cache, the slow-trace reservoir, the
//! poisoned-shard self-reset). Stress tests cannot explore interleavings,
//! so the riskiest cores are written **generically over this module's
//! [`Shim`] trait**: production instantiates them with [`StdShim`] (plain
//! `std::sync` primitives, zero overhead), while `cf-analysis`
//! instantiates the *same logic* with scheduler-instrumented primitives
//! and exhaustively explores thread interleavings.
//!
//! Design constraints:
//!
//! - the API mirrors the narrow slice of `std::sync` the cores actually
//!   use — nothing speculative;
//! - poisoning is a first-class observable ([`ShimRwLock::read`] reports
//!   it instead of handing out a tainted guard) because the poisoned-shard
//!   self-reset is one of the model-checked behaviors;
//! - atomics take an explicit [`Ordering`] parameter (re-exported here so
//!   cores need no direct `std::sync::atomic` import): the std impl
//!   passes it straight through, while the checked shim *models* it —
//!   `Relaxed` loads may observe any value from a bounded store buffer of
//!   stale writes, and only `Acquire`/`Release`/`SeqCst` edges create
//!   happens-before. Counter/flag call sites say `Relaxed` and are now
//!   explored under the reorderings that ordering actually permits;
//! - [`ShimCell`] wraps plain (non-atomic) shared data. The std impl is
//!   an uncontended mutex access (this crate forbids `unsafe`, see
//!   [`StdCell`]); the checked shim tracks every access with a
//!   FastTrack-style happens-before race detector, so models can mark
//!   data whose safety argument is "the surrounding protocol serializes
//!   access" and have that argument machine-checked.
//!
//! [`RecoverMutex`] is also exported on its own as the repo's sanctioned
//! replacement for bare `std::sync::Mutex` in `crates/core`/`crates/obs`
//! (`disallowed-types` in those crates' `clippy.toml`): its `lock()` recovers from
//! poisoning instead of panicking, so one panicking holder cannot
//! cascade into every later lock site.

#![allow(
    clippy::disallowed_types,
    reason = "the poison-recovering wrappers are built on the std primitives they wrap"
)]

use std::ops::{Deref, DerefMut};

pub use std::sync::atomic::Ordering;

/// Marker returned when a lock acquisition observed poison. The caller
/// decides the recovery policy (reset the data, recover the guard, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

/// Atomic boolean as the cores use it (second-chance reference bits).
pub trait ShimAtomicBool: Send + Sync + 'static {
    /// A fresh atomic holding `v`.
    fn new(v: bool) -> Self;
    /// Reads the value under `order`.
    fn load(&self, order: Ordering) -> bool;
    /// Writes the value under `order`.
    fn store(&self, v: bool, order: Ordering);
    /// Writes `v`, returning the previous value.
    fn swap(&self, v: bool, order: Ordering) -> bool;
}

/// Atomic `u64` as the cores use it (reservoir admission bar, logical
/// clocks in models).
pub trait ShimAtomicU64: Send + Sync + 'static {
    /// A fresh atomic holding `v`.
    fn new(v: u64) -> Self;
    /// Reads the value under `order`.
    fn load(&self, order: Ordering) -> u64;
    /// Writes the value under `order`.
    fn store(&self, v: u64, order: Ordering);
    /// Adds `v`, returning the previous value.
    fn fetch_add(&self, v: u64, order: Ordering) -> u64;
}

/// Plain shared data with *externally guaranteed* exclusivity: the
/// holder promises some protocol (a lock, an RCU epoch, single-writer
/// hand-off) serializes conflicting accesses. [`StdCell`] trusts the
/// promise at zero cost; the checked shim's `LLCell` verifies it with a
/// happens-before race detector and fails the model run on a violation.
pub trait ShimCell<T: Copy + Send + 'static>: Send + Sync {
    /// A fresh cell holding `v`.
    ///
    /// `#[track_caller]` so the checked shim can name the construction
    /// and access sites in race reports.
    #[track_caller]
    fn new(v: T) -> Self;
    /// Reads the value (a *plain* read — not atomic).
    #[track_caller]
    fn get(&self) -> T;
    /// Writes the value (a *plain* write — not atomic).
    #[track_caller]
    fn set(&self, v: T);
}

/// Mutual exclusion with poison *recovery* (never a poison panic).
pub trait ShimMutex<T: Send>: Send + Sync {
    /// The guard type; dereferences to the protected data.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// A fresh mutex protecting `value`.
    fn new(value: T) -> Self;
    /// Acquires the lock; a poisoned lock is recovered as-is (the data is
    /// assumed self-consistent or derived — the caller's contract).
    fn lock_recover(&self) -> Self::Guard<'_>;
}

/// Reader-writer lock with observable poisoning, matching the sharded
/// cache's recovery protocol: `read`/`write` *report* poison (no guard),
/// `write_recover` claims the lock regardless, `clear_poison` +
/// `is_poisoned` manage the flag, and `poison` is test/model
/// instrumentation simulating a panicking holder.
pub trait ShimRwLock<T: Send + Sync>: Send + Sync {
    /// Shared-access guard.
    type ReadGuard<'a>: Deref<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// Exclusive-access guard.
    type WriteGuard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// A fresh lock protecting `value`.
    fn new(value: T) -> Self;
    /// Shared acquisition; `Err(Poisoned)` when a holder panicked (no
    /// guard is handed out — the caller runs its reset protocol).
    fn read(&self) -> Result<Self::ReadGuard<'_>, Poisoned>;
    /// Exclusive acquisition; `Err(Poisoned)` as for [`Self::read`].
    fn write(&self) -> Result<Self::WriteGuard<'_>, Poisoned>;
    /// Exclusive acquisition that ignores (but does not clear) poison —
    /// the reset path's re-entry point.
    fn write_recover(&self) -> Self::WriteGuard<'_>;
    /// Clears the poison flag.
    fn clear_poison(&self);
    /// Whether a holder panicked since the last [`Self::clear_poison`].
    fn is_poisoned(&self) -> bool;
    /// Instrumentation: poison the lock as a panicking writer would
    /// (tests and the model checker; never called on serving paths).
    fn poison(&self);
}

/// The family of synchronization primitives a schedulable core is generic
/// over. Production code uses [`StdShim`]; `cf-analysis` provides a
/// scheduler-instrumented implementation.
pub trait Shim: Send + Sync + 'static {
    /// Atomic boolean.
    type AtomicBool: ShimAtomicBool;
    /// Atomic `u64`.
    type AtomicU64: ShimAtomicU64;
    /// Mutex over `T`.
    type Mutex<T: Send + 'static>: ShimMutex<T>;
    /// Reader-writer lock over `T`.
    type RwLock<T: Send + Sync + 'static>: ShimRwLock<T>;
    /// Race-tracked plain data cell over `T`.
    type Cell<T: Copy + Send + 'static>: ShimCell<T>;
}

// --------------------------------------------------------------------------
// Std implementation
// --------------------------------------------------------------------------

/// The production [`Shim`]: plain `std::sync` primitives with relaxed
/// atomics and poison-recovering locks.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdShim;

impl ShimAtomicBool for std::sync::atomic::AtomicBool {
    fn new(v: bool) -> Self {
        Self::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> bool {
        self.load(order)
    }
    #[inline]
    fn store(&self, v: bool, order: Ordering) {
        self.store(v, order)
    }
    #[inline]
    fn swap(&self, v: bool, order: Ordering) -> bool {
        self.swap(v, order)
    }
}

impl ShimAtomicU64 for std::sync::atomic::AtomicU64 {
    fn new(v: u64) -> Self {
        Self::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        self.load(order)
    }
    #[inline]
    fn store(&self, v: u64, order: Ordering) {
        self.store(v, order)
    }
    #[inline]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.fetch_add(v, order)
    }
}

/// Production [`ShimCell`]: an uncontended [`RecoverMutex`] access.
///
/// This crate is `#![forbid(unsafe_code)]`, so the loom-style "bare
/// `UnsafeCell`, the checker proved exclusivity" implementation is off
/// the table. The holder's protocol guarantees conflicting accesses are
/// serialized (verified under the checked shim's `LLCell` race
/// detector), which means this mutex is *never contended*: each access
/// costs one uncontended lock/unlock, not a queue. Cores that need a
/// truly free plain access on a proven-hot path should use an atomic
/// instead.
#[derive(Debug, Default)]
pub struct StdCell<T>(RecoverMutex<T>);

impl<T: Copy + Send + 'static> ShimCell<T> for StdCell<T> {
    fn new(v: T) -> Self {
        Self(RecoverMutex::new(v))
    }
    #[inline]
    fn get(&self) -> T {
        *self.0.lock()
    }
    #[inline]
    fn set(&self, v: T) {
        *self.0.lock() = v;
    }
}

/// A `std::sync::Mutex` whose `lock()` recovers from poisoning instead of
/// panicking. The repo-sanctioned mutex for derived/telemetry state in
/// `crates/core` and `crates/obs`: one panicking holder must not turn
/// every later lock site into a second panic.
#[derive(Debug, Default)]
pub struct RecoverMutex<T>(std::sync::Mutex<T>);

impl<T> RecoverMutex<T> {
    /// A fresh mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the data as-is if a previous holder
    /// panicked. Callers protect data that is either self-consistent at
    /// every await-free step or purely derived (caches, telemetry).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Send> ShimMutex<T> for RecoverMutex<T> {
    type Guard<'a>
        = std::sync::MutexGuard<'a, T>
    where
        T: 'a;
    fn new(value: T) -> Self {
        Self::new(value)
    }
    fn lock_recover(&self) -> Self::Guard<'_> {
        self.lock()
    }
}

impl<T: Send + Sync> ShimRwLock<T> for std::sync::RwLock<T> {
    type ReadGuard<'a>
        = std::sync::RwLockReadGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = std::sync::RwLockWriteGuard<'a, T>
    where
        T: 'a;

    fn new(value: T) -> Self {
        Self::new(value)
    }

    fn read(&self) -> Result<Self::ReadGuard<'_>, Poisoned> {
        self.read().map_err(|p| {
            drop(p); // release the tainted guard before reporting
            Poisoned
        })
    }

    fn write(&self) -> Result<Self::WriteGuard<'_>, Poisoned> {
        self.write().map_err(|p| {
            drop(p);
            Poisoned
        })
    }

    fn write_recover(&self) -> Self::WriteGuard<'_> {
        self.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn clear_poison(&self) {
        self.clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        self.is_poisoned()
    }

    fn poison(&self) {
        // Poison exactly as production would: panic while holding the
        // write lock. The unwind is contained here; the poison flag is
        // the only side effect. The closure captures only `&self`.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            #[allow(
                clippy::panic,
                reason = "poison instrumentation: the panic is the point, and catch_unwind contains it"
            )]
            std::panic::panic_any(PoisonToken);
        }));
        debug_assert!(result.is_err());
    }
}

/// Panic payload used by [`ShimRwLock::poison`] instrumentation, so panic
/// hooks can tell an intentional poison from a real failure.
pub struct PoisonToken;

impl Shim for StdShim {
    type AtomicBool = std::sync::atomic::AtomicBool;
    type AtomicU64 = std::sync::atomic::AtomicU64;
    type Mutex<T: Send + 'static> = RecoverMutex<T>;
    type RwLock<T: Send + Sync + 'static> = std::sync::RwLock<T>;
    type Cell<T: Copy + Send + 'static> = StdCell<T>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    #[test]
    fn recover_mutex_survives_poisoning() {
        let m = RecoverMutex::new(7u32);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("holder dies");
        }));
        assert!(r.is_err());
        // lock() recovers the data instead of propagating the poison.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn std_rwlock_poison_protocol_round_trips() {
        let l: RwLock<u32> = ShimRwLock::new(3);
        assert!(ShimRwLock::read(&l).is_ok());
        ShimRwLock::poison(&l);
        assert!(ShimRwLock::is_poisoned(&l));
        assert!(ShimRwLock::read(&l).is_err());
        assert!(ShimRwLock::write(&l).is_err());
        // Recovery path: claim the lock regardless, repair, clear.
        {
            let mut g = l.write_recover();
            *g = 9;
        }
        ShimRwLock::clear_poison(&l);
        assert!(!ShimRwLock::is_poisoned(&l));
        assert_eq!(*ShimRwLock::read(&l).unwrap(), 9);
    }

    #[test]
    fn std_atomics_round_trip() {
        let b = <std::sync::atomic::AtomicBool as ShimAtomicBool>::new(false);
        assert!(!ShimAtomicBool::swap(&b, true, Ordering::Relaxed));
        assert!(ShimAtomicBool::load(&b, Ordering::Acquire));
        let u = <std::sync::atomic::AtomicU64 as ShimAtomicU64>::new(5);
        assert_eq!(ShimAtomicU64::fetch_add(&u, 2, Ordering::Relaxed), 5);
        assert_eq!(ShimAtomicU64::load(&u, Ordering::Relaxed), 7);
        ShimAtomicU64::store(&u, 1, Ordering::Release);
        assert_eq!(ShimAtomicU64::load(&u, Ordering::SeqCst), 1);
    }

    #[test]
    fn std_cell_round_trips() {
        let c: StdCell<(u64, u32)> = ShimCell::new((1, 2));
        assert_eq!(ShimCell::get(&c), (1, 2));
        ShimCell::set(&c, (3, 4));
        assert_eq!(ShimCell::get(&c), (3, 4));
    }
}
