//! # dynsum-core — the four demand-driven points-to engines
//!
//! This crate implements the analyses of *On-Demand Dynamic
//! Summary-based Points-to Analysis* (Shang, Xie, Xue — CGO 2012) over
//! the Pointer Assignment Graphs of [`dynsum_pag`]:
//!
//! | engine ([`EngineKind`]) | paper role | memorization |
//! |--------|-----------|--------------|
//! | [`NoRefine`](EngineKind::NoRefine) | Algorithm 1 without refinement or caching | none |
//! | [`RefinePts`](EngineKind::RefinePts) | Algorithms 1–2 (Sridharan–Bodík PLDI'06) | within a query |
//! | [`DynSum`](EngineKind::DynSum) | **Algorithms 3–4 — the paper's contribution** | context-independent summaries, across queries |
//! | [`StaSum`](EngineKind::StaSum) | Yan et al. ISSTA'11 | all-pairs static summaries, precomputed |
//!
//! All engines answer the same question — `pointsTo(v, c)` as
//! CFL-reachability in `L_FT ∩ R_RP` — over one shared configuration
//! space `(node, field stack, direction, context)`, so their precision is
//! identical by construction whenever queries resolve within budget; the
//! test suite verifies this on hand-written and random graphs, plus
//! subset-soundness against the exhaustive Andersen oracle.
//!
//! Every engine runs through one front door, the [`Session`]. Each
//! engine is split into a shareable half (frozen PAG + config +
//! DYNSUM's summary cache / STASUM's precomputed store) and a per-thread
//! scratch half. A session packages the former and hands out
//! `Send` [`QueryHandle`]s owning the latter; [`Session::run_batch`]
//! runs query batches across threads with results byte-identical to
//! sequential execution (deterministic budget accounting — see
//! [`Summary::cost`]). Batches are interruptible and fault-isolated:
//! [`Session::run_batch_with`] takes a [`BatchControl`] (shared cancel
//! token, deadline, deterministic [`FaultPlan`]), per-query panics are
//! caught and reported per-query, and [`Session::health`] snapshots the
//! robustness counters. The [`snapshot`] module persists a session's
//! summary-cache working set across process restarts
//! ([`Session::save_snapshot`] / [`Session::load_snapshot`]), with
//! version/fingerprint/digest fencing so stale snapshots degrade to a
//! cold start instead of corrupting results.
//!
//! ## Quickstart
//!
//! ```
//! use dynsum_core::{DemandPointsTo, EngineKind, Session};
//! use dynsum_pag::PagBuilder;
//!
//! // main: v = new O; w = v;
//! let mut b = PagBuilder::new();
//! let m = b.add_method("main", None)?;
//! let v = b.add_local("v", m, None)?;
//! let w = b.add_local("w", m, None)?;
//! let o = b.add_obj("o1", None, Some(m))?;
//! b.add_new(o, v)?;
//! b.add_assign(v, w)?;
//! let pag = b.finish();
//!
//! let mut session = Session::new(&pag, EngineKind::DynSum);
//! let result = session.points_to(w);
//! assert!(result.resolved && result.pts.contains_obj(o));
//! # Ok::<(), dynsum_pag::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod driver;
mod dynsum;
mod engine;
mod norefine;
pub mod ppta;
mod refinepts;
mod search;
mod session;
pub mod snapshot;
mod stasum;
mod summary;

pub use alias::{may_alias, AliasQuery, AliasResult};
pub use engine::{never_satisfied, ClientCheck, DemandPointsTo, EngineConfig};
pub use session::{
    BatchControl, EngineKind, FaultPlan, QueryHandle, Session, SessionHealth, SessionQuery,
    SummaryShard,
};
pub use snapshot::{
    pag_fingerprint, SnapshotLoad, SnapshotReject, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use summary::{CacheStats, Summary, SummaryCache, SummaryKey};
