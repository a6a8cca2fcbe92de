//! # dynsum — on-demand dynamic summary-based points-to analysis
//!
//! A from-scratch Rust reproduction of *On-Demand Dynamic Summary-based
//! Points-to Analysis* (Lei Shang, Xinwei Xie, Jingling Xue — CGO 2012):
//! context-sensitive, field-sensitive, demand-driven points-to analysis
//! formulated as CFL-reachability over Pointer Assignment Graphs,
//! accelerated by context-independent method summaries computed
//! dynamically by a Partial Points-To Analysis (PPTA).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`pag`] | `dynsum-pag` | Pointer Assignment Graphs, class hierarchy, text format |
//! | [`cfl`] | `dynsum-cfl` | interned stacks, budgets, traces, query results |
//! | [`frontend`] | `dynsum-frontend` | Java-subset compiler → PAG |
//! | [`andersen`] | `dynsum-andersen` | exhaustive inclusion-based oracle |
//! | [`analysis`] | `dynsum-core` | NOREFINE, REFINEPTS, **DYNSUM**, STASUM |
//! | [`clients`] | `dynsum-clients` | SafeCast, NullDeref, FactoryM |
//! | [`service`] | `dynsum-service` | multi-tenant analysis daemon, wire protocol, transports |
//! | [`workloads`] | `dynsum-workloads` | Table 3 profiles, generator, Figure 2 |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Example: source to points-to set
//!
//! ```
//! use dynsum::{compile, DemandPointsTo, EngineKind, Session};
//!
//! let program = "
//!     class Box {
//!         Object item;
//!         void put(Object x) { this.item = x; }
//!         Object take() { return this.item; }
//!     }
//!     class Main {
//!         static void main() {
//!             Box b = new Box();
//!             b.put(new Main());
//!             Object got = b.take();
//!         }
//!     }
//! ";
//! let compiled = compile(program)?;
//! let mut session = Session::new(&compiled.pag, EngineKind::DynSum);
//! let got = compiled.pag.find_var("Main.main#got").expect("var exists");
//! let result = session.points_to(got);
//! assert!(result.resolved);
//! assert_eq!(result.pts.objects().len(), 1);
//! # Ok::<(), dynsum::CompileError>(())
//! ```
//!
//! ## Example: a shared session serving a parallel query batch
//!
//! A [`Session`] freezes the shareable analysis state (PAG, config, the
//! summary cache) and hands out cheap `Send` handles; `run_batch` fans a
//! query batch across worker threads with results byte-identical to
//! sequential execution:
//!
//! ```
//! use dynsum::{compile, DemandPointsTo, EngineKind, Session, SessionQuery};
//!
//! let program = "
//!     class Box {
//!         Object item;
//!         void put(Object x) { this.item = x; }
//!         Object take() { return this.item; }
//!     }
//!     class Main {
//!         static void main() {
//!             Box b = new Box();
//!             b.put(new Main());
//!             Object got = b.take();
//!         }
//!     }
//! ";
//! let compiled = compile(program)?;
//! let mut session = Session::new(&compiled.pag, EngineKind::DynSum);
//!
//! // A handle is a full DemandPointsTo engine over the shared state.
//! let got = compiled.pag.find_var("Main.main#got").expect("var exists");
//! let mut handle = session.handle();
//! assert!(handle.points_to(got).resolved);
//!
//! // Batches fan out across scoped threads; summary shards merge back
//! // on join, so later batches start warm.
//! let queries: Vec<SessionQuery> = compiled
//!     .info
//!     .derefs
//!     .iter()
//!     .map(|d| SessionQuery::new(d.base))
//!     .collect();
//! let results = session.run_batch(&queries, 2);
//! assert_eq!(results.len(), queries.len());
//! assert!(results.iter().all(|r| r.resolved));
//! assert!(session.summary_count() > 0);
//! # Ok::<(), dynsum::CompileError>(())
//! ```
//!
//! ## Example: a warm process restart from a snapshot
//!
//! A session's summary-cache working set can be persisted and restored
//! across process restarts ([`Session::save_snapshot`] /
//! [`Session::load_snapshot`]); stale or corrupt snapshots degrade to a
//! cold start instead of corrupting results (see
//! [`analysis::snapshot`]):
//!
//! ```
//! use dynsum::{compile, DemandPointsTo, EngineConfig, EngineKind, Session};
//!
//! let program = "
//!     class Box {
//!         Object item;
//!         void put(Object x) { this.item = x; }
//!         Object take() { return this.item; }
//!     }
//!     class Main {
//!         static void main() {
//!             Box b = new Box();
//!             b.put(new Main());
//!             Object got = b.take();
//!         }
//!     }
//! ";
//! let compiled = compile(program)?;
//! let got = compiled.pag.find_var("Main.main#got").expect("var exists");
//!
//! // Warm a session, then persist its working set (any io::Write).
//! let mut session = Session::new(&compiled.pag, EngineKind::DynSum);
//! session.run_batch_vars(&[got], 1);
//! let mut snapshot = Vec::new();
//! session.save_snapshot(&mut snapshot)?;
//!
//! // "Restart": the restored session answers its first query from the
//! // snapshot — byte-identical to a cold run, minus the recomputation.
//! let (mut warm, load) = Session::load_snapshot(
//!     &snapshot[..],
//!     &compiled.pag,
//!     EngineKind::DynSum,
//!     EngineConfig::default(),
//! );
//! assert!(load.is_warm());
//! let result = warm.handle().points_to(got);
//! assert!(result.resolved && result.stats.cache_hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Pointer Assignment Graph representation (`dynsum-pag`).
pub use dynsum_pag as pag;

/// CFL-reachability machinery (`dynsum-cfl`).
pub use dynsum_cfl as cfl;

/// Java-subset frontend (`dynsum-frontend`).
pub use dynsum_frontend as frontend;

/// Andersen-style whole-program analysis (`dynsum-andersen`).
pub use dynsum_andersen as andersen;

/// The demand-driven engines (`dynsum-core`).
pub use dynsum_core as analysis;

/// The evaluation clients (`dynsum-clients`).
pub use dynsum_clients as clients;

/// The multi-tenant analysis daemon (`dynsum-service`).
pub use dynsum_service as service;

/// Benchmark profiles and generators (`dynsum-workloads`).
pub use dynsum_workloads as workloads;

pub use dynsum_andersen::Andersen;
pub use dynsum_cfl::{
    Budget, CancelToken, Interrupt, Outcome, PointsToSet, QueryControl, QueryResult, Ticket,
};
pub use dynsum_clients::{
    run_batches, run_client, split_batches, BatchReport, ClientKind, ClientReport,
};
pub use dynsum_core::{
    pag_fingerprint, BatchControl, CacheStats, DemandPointsTo, EngineConfig, EngineKind, FaultPlan,
    QueryHandle, Session, SessionHealth, SessionQuery, SnapshotLoad, SnapshotReject, SummaryShard,
    SNAPSHOT_VERSION,
};
pub use dynsum_frontend::{compile, compile_with, CallGraphMode, CompileError};
pub use dynsum_pag::{Pag, PagBuilder};
