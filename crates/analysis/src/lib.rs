//! cf-analysis — repo-aware static analysis for the CFSF workspace.
//!
//! Two subsystems, both runnable through the `cfsf-analyze` binary and
//! gated in `scripts/check.sh` / CI:
//!
//! 1. **Lint engine** ([`lint`]) — a lightweight token/line-level
//!    scanner (no external parser; vendor nothing) for the three repo
//!    rules that no rustc or clippy lint, `clippy.toml` entry or module
//!    privacy can express: no raw float equality outside the epsilon
//!    helpers (`clippy::float_cmp` does not flag `x == 0.0`), obs
//!    counter/test pairing, and no `AssertUnwindSafe` over closures
//!    capturing `&mut`. Everything else the serving path promises is
//!    enforced by the compiler (see DESIGN.md §9.1).
//!
//! 2. **loom-lite model checker** ([`sched`], [`llsync`], [`models`]) —
//!    a deterministic scheduler exploring thread interleavings
//!    (exhaustive DFS with sleep-set partial-order reduction, seeded
//!    random, exact replay) over the production concurrent cores, which
//!    are generic over [`cf_obs::sync::Shim`]: the sharded second-chance
//!    cache, the slow-trace reservoir, the poisoned-shard reset, the
//!    generation cell, and the fleet aggregator all run the *same code*
//!    in production and under the checker. The checked shim carries a
//!    FastTrack-style happens-before race detector ([`vclock`],
//!    [`llsync::LLCell`]) and models relaxed atomics against a bounded
//!    store buffer of stale values instead of assuming sequential
//!    consistency.

#![warn(missing_docs)]

pub mod lint;
pub mod llsync;
pub mod models;
pub mod sched;
pub mod toylock;
pub mod vclock;
