//! Engine configuration, the common demand-query trait, and shared
//! context-stack operations.

use dynsum_cfl::{Budget, CtxId, Interrupt, PointsToSet, QueryResult, StackPool};
use dynsum_pag::{CallSiteId, Pag, VarId};

/// Tuning knobs shared by every demand-driven engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Per-query edge-traversal budget (the paper uses 75,000; §5.2).
    pub budget: u64,
    /// Maximum field-stack depth; deeper configurations abort the query
    /// conservatively (recursive data structures can pump the stack).
    pub max_field_depth: usize,
    /// Maximum context-stack depth; deeper pushes abort conservatively.
    pub max_ctx_depth: usize,
    /// Enables DYNSUM's cross-query summary cache (disable for the
    /// ablation study).
    pub cache_summaries: bool,
    /// Maximum REFINEPTS refinement iterations per query.
    pub max_refinements: u32,
    /// When `false`, call entries/exits are treated as plain assignments:
    /// the context-insensitive `L_FT`-only analysis (§3.2), which must
    /// agree exactly with the Andersen oracle.
    pub context_sensitive: bool,
    /// Size cap on the DYNSUM summary cache: after each query (and after
    /// every [`Session::absorb`](crate::Session::absorb) merge) a clock
    /// sweep evicts entries down to this many, keeping a long-lived
    /// query stream's memory bounded. `None` (the default) never evicts.
    ///
    /// Eviction **cannot change any query's outcome**: DYNSUM charges a
    /// reused summary's recorded cold cost (see
    /// [`Summary::cost`](crate::Summary::cost)), so results are
    /// cache-independent by construction; the cap only trades hit rate
    /// (wall-clock) for memory. In a
    /// [`Session`](crate::Session), the cap bounds the shared cache and
    /// each worker's in-flight shard separately.
    pub max_cached_summaries: Option<usize>,
    /// Stack reservation for
    /// [`Session::run_batch`](crate::Session::run_batch) worker
    /// threads. PPTA recursion is
    /// bounded by method-local graph size, but generated methods can be
    /// large, so workers default to the generous reservation `main`
    /// typically has (64 MiB). If the host cannot spawn a worker with
    /// this reservation, the batch degrades to fewer workers instead of
    /// panicking (see
    /// [`Session::spawn_failures`](crate::Session::spawn_failures)).
    pub worker_stack_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            budget: Budget::DEFAULT_LIMIT,
            max_field_depth: 512,
            max_ctx_depth: 256,
            cache_summaries: true,
            max_refinements: 32,
            context_sensitive: true,
            max_cached_summaries: None,
            worker_stack_bytes: 64 * 1024 * 1024,
        }
    }
}

impl EngineConfig {
    /// A configuration with an effectively unlimited budget, for tests
    /// that must observe complete answers.
    pub fn unlimited() -> Self {
        EngineConfig {
            budget: u64::MAX,
            ..EngineConfig::default()
        }
    }

    /// A stable 64-bit digest of the **outcome-relevant** configuration
    /// fields, written into snapshot headers (see the
    /// [`snapshot`](crate::snapshot) module) so a persisted summary
    /// cache is only restored under a configuration that would have
    /// produced the same summaries and the same query results.
    ///
    /// Covered: [`budget`](Self::budget),
    /// [`max_field_depth`](Self::max_field_depth),
    /// [`max_ctx_depth`](Self::max_ctx_depth),
    /// [`cache_summaries`](Self::cache_summaries),
    /// [`max_refinements`](Self::max_refinements) and
    /// [`context_sensitive`](Self::context_sensitive).
    ///
    /// Deliberately **not** covered:
    /// [`max_cached_summaries`](Self::max_cached_summaries) and
    /// [`worker_stack_bytes`](Self::worker_stack_bytes). Neither can
    /// change any query's
    /// outcome (eviction is outcome-free, and
    /// the stack reservation only affects spawn success), so a snapshot
    /// saved under one cap loads cleanly under another — the load path
    /// re-enforces the loader's cap.
    pub fn semantic_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = dynsum_cfl::StableHasher::new();
        h.write_u64(self.budget);
        h.write_u64(self.max_field_depth as u64);
        h.write_u64(self.max_ctx_depth as u64);
        h.write_u8(u8::from(self.cache_summaries));
        h.write_u32(self.max_refinements);
        h.write_u8(u8::from(self.context_sensitive));
        // The retired deterministic-reuse flag's slot, always on: keeps
        // digests (and so existing snapshot files) byte-identical.
        h.write_u8(1);
        h.finish()
    }
}

/// A client-satisfaction predicate (the paper's `satisfyClient`): returns
/// `true` when the (possibly over-approximate) points-to set already
/// answers the client's question positively, allowing REFINEPTS to stop
/// refining early.
///
/// The `Sync` bound lets one predicate reference cross the threads of a
/// [`Session::run_batch`](crate::Session::run_batch) without cloning
/// tricks; predicates are read-only views over frozen analysis inputs,
/// so the bound costs client code nothing in practice.
pub type ClientCheck<'a> = &'a (dyn Fn(&PointsToSet) -> bool + Sync);

/// A predicate that is never satisfied — forces full precision.
pub fn never_satisfied(_: &PointsToSet) -> bool {
    false
}

/// The common interface of the four demand-driven points-to engines
/// (Table 2): NOREFINE, REFINEPTS, DYNSUM and STASUM.
pub trait DemandPointsTo {
    /// Engine name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Answers `pointsTo(v, ∅)` for a client, refining only until
    /// `satisfied` returns `true` (engines without refinement ignore the
    /// predicate and always compute the full answer).
    fn query(&mut self, v: VarId, satisfied: ClientCheck<'_>) -> QueryResult;

    /// Answers `pointsTo(v, ∅)` at full precision.
    fn points_to(&mut self, v: VarId) -> QueryResult {
        self.query(v, &never_satisfied)
    }

    /// Number of method summaries currently memorized across queries
    /// (DYNSUM's `Cache` size / STASUM's precomputed store; 0 for the
    /// engines without cross-query memorization). This is the quantity
    /// plotted in Figure 5.
    fn summary_count(&self) -> usize {
        0
    }
}

/// Result of a context-stack operation: the successor context, or `None`
/// when the transition is unrealizable (parenthesis mismatch). The error
/// is the general [`Interrupt`] so depth-cap aborts ride the same unwind
/// channel as budget, cancellation and deadline trips.
pub(crate) type CtxStep = Result<Option<CtxId>, Interrupt>;

/// Pushes call site `i` (traversing an `exit_i` edge backwards or an
/// `entry_i` edge forwards).
///
/// Recursive sites are context-transparent (the paper collapses
/// call-graph cycles, §5.1); context-insensitive mode keeps every context
/// empty; exceeding the depth cap aborts the query conservatively.
pub(crate) fn ctx_push(
    ctxs: &mut StackPool<CallSiteId>,
    c: CtxId,
    i: CallSiteId,
    pag: &Pag,
    config: &EngineConfig,
) -> CtxStep {
    if !config.context_sensitive {
        return Ok(Some(CtxId::EMPTY));
    }
    if pag.is_recursive_site(i) {
        return Ok(Some(c));
    }
    if ctxs.depth(c) >= config.max_ctx_depth {
        return Err(Interrupt::Budget);
    }
    Ok(Some(ctxs.push(c, i)))
}

/// Pops call site `i` (traversing an `entry_i` edge backwards or an
/// `exit_i` edge forwards). An empty context matches anything — realizable
/// paths may start and end in different methods (Algorithm 1, line 11).
pub(crate) fn ctx_pop(
    ctxs: &StackPool<CallSiteId>,
    c: CtxId,
    i: CallSiteId,
    pag: &Pag,
    config: &EngineConfig,
) -> CtxStep {
    if !config.context_sensitive {
        return Ok(Some(CtxId::EMPTY));
    }
    if pag.is_recursive_site(i) {
        return Ok(Some(c));
    }
    match ctxs.peek(c) {
        None => Ok(Some(CtxId::EMPTY)),
        Some(top) if top == i => Ok(Some(ctxs.pop(c).expect("non-empty").1)),
        Some(_) => Ok(None),
    }
}

/// The successor context across an `assignglobal` edge: globals are
/// context-insensitive, so the context is cleared (Algorithm 1 lines 6–7).
pub(crate) fn ctx_clear() -> CtxId {
    CtxId::EMPTY
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::PagBuilder;

    fn site_pag(recursive: bool) -> (Pag, CallSiteId) {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        let a = b.add_local("a", m, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let s = b.add_call_site("1", m).unwrap();
        b.set_recursive(s, recursive).unwrap();
        b.add_entry(s, a, p).unwrap();
        (b.finish(), s)
    }

    #[test]
    fn push_then_pop_round_trips() {
        let (pag, s) = site_pag(false);
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert_eq!(ctxs.depth(c1), 1);
        let c0 = ctx_pop(&ctxs, c1, s, &pag, &config).unwrap().unwrap();
        assert!(c0.is_empty());
    }

    #[test]
    fn pop_on_empty_is_allowed() {
        let (pag, s) = site_pag(false);
        let config = EngineConfig::default();
        let ctxs = StackPool::new();
        let c = ctx_pop(&ctxs, CtxId::EMPTY, s, &pag, &config).unwrap();
        assert_eq!(c, Some(CtxId::EMPTY));
    }

    #[test]
    fn mismatched_pop_is_dead() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        let a = b.add_local("a", m, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let s1 = b.add_call_site("1", m).unwrap();
        let s2 = b.add_call_site("2", m).unwrap();
        b.add_entry(s1, a, p).unwrap();
        b.add_entry(s2, a, p).unwrap();
        let pag = b.finish();
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s1, &pag, &config)
            .unwrap()
            .unwrap();
        assert_eq!(ctx_pop(&ctxs, c1, s2, &pag, &config).unwrap(), None);
    }

    #[test]
    fn recursive_sites_are_transparent() {
        let (pag, s) = site_pag(true);
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(c.is_empty());
        let c = ctx_pop(&ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn context_insensitive_mode_keeps_empty() {
        let (pag, s) = site_pag(false);
        let config = EngineConfig {
            context_sensitive: false,
            ..EngineConfig::default()
        };
        let mut ctxs = StackPool::new();
        let c = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn depth_cap_aborts() {
        let (pag, s) = site_pag(false);
        let config = EngineConfig {
            max_ctx_depth: 1,
            ..EngineConfig::default()
        };
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(ctx_push(&mut ctxs, c1, s, &pag, &config).is_err());
    }

    #[test]
    fn semantic_digest_is_pinned() {
        // Snapshot headers and the daemon's snapshot file names embed
        // this digest; changing it turns every saved snapshot cold.
        assert_eq!(
            EngineConfig::default().semantic_digest(),
            0xbb83_30b8_7caa_f8ee
        );
        let other = EngineConfig {
            budget: 1234,
            context_sensitive: false,
            ..EngineConfig::default()
        };
        assert_eq!(other.semantic_digest(), 0x2a3a_53ec_1222_266a);
    }

    #[test]
    fn default_config_matches_paper_budget() {
        assert_eq!(EngineConfig::default().budget, 75_000);
        assert!(EngineConfig::default().context_sensitive);
    }
}
