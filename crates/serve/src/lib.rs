//! # fesia-serve
//!
//! A concurrently-updatable serving layer over FESIA sets.
//!
//! Sets are sharded by id across [`fesia_core::SetStore`]s — one
//! epoch/snapshot store per shard — so writers on different shards never
//! contend, and readers never block on writers at all:
//!
//! * **Reads** pin one [`fesia_core::Snapshot`] per shard (a wait-free
//!   epoch-slot claim plus one atomic pointer load), resolve ids to
//!   [`fesia_core::DynamicSet`]s, and answer every read through the one
//!   live-set executor, [`fesia_core::LiveQuery`]: a planned evaluation
//!   over the bases, corrected by one delta stage.
//! * **Writes** append to a per-shard log, then group-commit: whichever
//!   writer holds the shard's `applying` lock drains the whole log into a
//!   single published version (an atomic pointer swap). Writers may wait
//!   on other *writers* of the same shard, never on readers.
//! * **Rebuilds** (folding a grown delta back into the segmented base)
//!   happen off the write path: publishing a set whose delta crossed the
//!   rebuild threshold schedules a task on the shard's pinned executor
//!   lane ([`fesia_exec::Executor::spawn_pinned`]), which re-checks,
//!   rebuilds, and publishes a fresh version without blocking anyone.
//!
//! The [`Server`] wraps a [`ServeStore`] in a line protocol (`ADD`,
//! `DEL`, `COUNT`, `AND`, `BOOL`, `CARD`) served over stdin or TCP —
//! see [`protocol`].
//!
//! Shard count comes from `FESIA_SERVE_SHARDS` (default: the executor's
//! lane count). A set is folded once its delta outgrows
//! [`fesia_core::DynamicSet::REBUILD_FRACTION`] of its base (floor 64
//! ops).

pub mod protocol;
pub mod server;
pub mod store;

pub use protocol::Server;
pub use server::{serve_lines, serve_tcp};
pub use store::{ServeConfig, ServeStore, ServeView, WriteOp};
