//! Sharded multi-process serving for the CFSF model.
//!
//! This crate turns the single-process recommender into a small fleet:
//!
//! - [`frame`] — the length-framed, versioned, CRC-checked binary wire
//!   protocol (the serving twin of the persistence format's header
//!   discipline: magic, version, length-before-allocate, checksum).
//! - [`server`] — [`server::ShardServer`]: one process, one loaded
//!   model, answering predict / recommend / health / profile frames on
//!   the hardened [`cf_obs::net`] socket loop.
//! - [`client`] — [`client::ShardClient`]: a blocking, deadline-bounded
//!   protocol client.
//! - [`router`] — [`router::Router`] and [`router::RouterServer`]: the
//!   front tier. Hashes users across shards, bounds in-flight work per
//!   shard, and load-sheds failures onto the model's degradation ladder
//!   (`online.degrade.*`) instead of returning errors; recommends via
//!   scatter-gather whose merged result is bit-for-bit the
//!   single-process answer when every shard is up.
//!
//! Everything is std-only, blocking I/O with explicit timeouts — the
//! same discipline as the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod client;
pub mod fleet;
pub mod frame;
pub mod live;
pub mod router;
pub mod server;

pub use client::{ClientOptions, ShardClient};
pub use fleet::FleetAggregator;
pub use frame::{FrameError, Request, Response};
pub use live::ModelHandle;
pub use router::{Router, RouterConfig, RouterServer};
pub use server::{ServerOptions, ShardOptions, ShardServer};
