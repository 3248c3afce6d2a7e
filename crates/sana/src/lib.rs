//! Static pre-analysis over the lowered CIL [`Program`](cil::Program).
//!
//! RaceFuzzer's Phase 1 is deliberately imprecise: every candidate pair it
//! reports costs a full Phase-2 re-execution. This crate statically
//! discharges candidate pairs that *cannot* race in any execution, before
//! the schedulers spend trials on them:
//!
//! - [`cfg`](mod@cfg) — per-procedure control-flow graphs with exceptional edges;
//! - [`callgraph`] — interprocedural call/spawn graph and execution counts;
//! - [`mhp`] — spawn/join-structure may-happen-in-parallel analysis;
//! - [`points_to`] — Andersen-style interprocedural points-to analysis over
//!   allocation-site abstract objects; the shared aliasing substrate;
//! - [`locks`] — flow-sensitive must-held-lockset dataflow and a static
//!   lock-order graph mirroring `detector::lockgraph`;
//! - [`escape`] — points-to-derived thread-escape analysis proving
//!   allocations confined to their creating thread;
//! - [`candidates`] — the standalone static race-candidate generator
//!   (Phase 1 without a profiling run);
//! - [`lint`] — span-mapped diagnostics for the `cil-lint` driver.
//!
//! [`StaticRaceFilter`] combines them: [`StaticRaceFilter::refute`] returns
//! `Some(reason)` only when the pair is proven impossible, so pruning on it
//! is sound — a dynamic race report on a refuted pair is a detector bug,
//! surfaced by [`StaticRaceFilter::cross_check`].
//!
//! # Soundness assumptions
//!
//! The refutations are sound *for well-typed, handle-disciplined programs*:
//! operands have the runtime types their use sites imply (no `TypeError`
//! unwinding), dereferenced objects and joined thread handles are non-null,
//! and `unlock` releases a held monitor. Programs that violate these raise
//! builtin exceptions at dynamic points the CFG does not model as throwing.
//! The `workloads` suite and the paper's figures all satisfy them; the
//! cross-check in Audit mode exists precisely to catch violations in the
//! wild. See DESIGN.md ("Static filter vs the hybrid Phase-1 detector").

#![warn(missing_docs)]

pub mod callgraph;
pub mod candidates;
pub mod cfg;
pub mod escape;
pub mod lint;
pub mod locks;
pub mod mhp;
pub mod points_to;

mod filter;

pub use candidates::{CandidateStats, StaticCandidateReport};
pub use filter::{FilterStats, PruneReason, SoundnessBug, StaticRaceFilter};
pub use points_to::{PointsTo, PtsSet};
