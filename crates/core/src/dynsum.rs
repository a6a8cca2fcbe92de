//! DYNSUM — the paper's contribution (Algorithm 4).
//!
//! A worklist driver over configurations `(u, f, s, c)` that handles only
//! the **global** (context-dependent) edges itself, delegating all local
//! traversal to the partial points-to analysis of [Algorithm 3](crate::ppta)
//! and memorizing each `(u, f, s) → Summary` in a cross-query cache. The
//! summaries are context-independent, so a summary computed while
//! answering one query under one calling context is reused verbatim under
//! any other context or query — without any precision loss (§4).
//!
//! Budget accounting is **deterministic**: a cache hit charges the
//! summary's recorded cold-computation [cost](crate::Summary::cost) in
//! one lump instead of re-traversing, so every query's outcome is a pure
//! function of `(pag, config, query)` — independent of cache state and
//! query order. This is what lets [`Session::run_batch`](crate::Session)
//! return results byte-identical to sequential execution while still
//! reaping the wall-clock benefit of reuse.

use std::sync::Arc;

use dynsum_cfl::{
    Direction, FieldFrame, FieldStackId, Interrupt, QueryControl, QueryResult, QueryStats,
    StackPool, StepKind, Ticket, Trace,
};
use dynsum_pag::{CallSiteId, NodeId, Pag, VarId};

use crate::driver::{drive, DriveParts};
use crate::engine::EngineConfig;
use crate::ppta;
use crate::summary::{Summary, SummaryCache};

/// Runs one DYNSUM query over borrowed per-handle state.
///
/// `base` is the **frozen** shared session cache layered under the
/// mutable `cache` shard of a [`QueryHandle`](crate::QueryHandle):
/// lookups consult the base first, then the shard; fresh summaries
/// always land in the shard. Keys are field-stack-pool-relative, so
/// `parts.fields` must be the pool (or a clone of the pool) the `base`
/// keys were interned in.
///
/// The context pool is per-query scratch (cleared here), making the
/// result — including raw context ids in the points-to set — a
/// deterministic function of `(pag, config, v, ctx)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dynsum_query(
    pag: &Pag,
    config: &EngineConfig,
    base: &SummaryCache,
    cache: &mut SummaryCache,
    parts: &mut DriveParts,
    v: VarId,
    ctx: &[CallSiteId],
    control: &QueryControl,
    trace: Option<&mut Trace>,
) -> QueryResult {
    let DriveParts {
        fields,
        ctxs,
        drive: drive_scratch,
        ppta: ppta_scratch,
    } = parts;
    ctxs.clear();
    let c0 = ctxs.from_slice(ctx);
    let cache_on = config.cache_summaries;

    // Algorithm 4, lines 5–9: the summary provider reuses the cache
    // or computes a fresh PPTA (Algorithm 3). Partial results of an
    // over-budget PPTA are never cached, and every reuse charges the
    // summary's cold cost so budget outcomes are cache-independent.
    let mut provider = |fields: &mut StackPool<FieldFrame>,
                        ticket: &mut Ticket,
                        stats: &mut QueryStats,
                        u: NodeId,
                        f: FieldStackId,
                        s: Direction|
     -> Result<(Arc<Summary>, StepKind), Interrupt> {
        let key = (u, f, s);
        if cache_on {
            // Base first: on a warm stream most hits live in the shared
            // session cache, so probing it before the (small, disjoint)
            // shard saves a hash probe on the hot path. A key is never
            // in both — shard inserts only keys that missed both.
            if let Some(sum) = base.get(key).or_else(|| cache.get(key)) {
                cache.record_hit();
                stats.cache_hits += 1;
                ticket.charge_n(sum.cost)?;
                return Ok((sum, StepKind::PptaReused));
            }
            cache.record_miss();
        }
        stats.cache_misses += 1;
        let sum = ppta::compute(pag, fields, ppta_scratch, config, ticket, stats, u, f, s)?;
        let arc = Arc::new(sum);
        if cache_on {
            cache.insert(key, Arc::clone(&arc));
        }
        Ok((arc, StepKind::PptaComputed))
    };

    let mut ticket = Ticket::with_control(config.budget, control);
    let result = drive(
        pag,
        fields,
        ctxs,
        drive_scratch,
        config,
        pag.var_node(v),
        c0,
        &mut ticket,
        &mut provider,
        trace,
    );
    // Size-capped lifecycle: sweep the handle's in-flight shard down to
    // the cap after every query (the shared cache is capped again at
    // the absorb merge point). Safe at any cap — deterministic reuse
    // makes outcomes cache-independent.
    if let Some(cap) = config.max_cached_summaries {
        cache.enforce_cap(cap);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandPointsTo, EngineKind, Session};
    use dynsum_pag::PagBuilder;

    /// id(p){return p} called from two sites with distinct objects: a
    /// context-sensitive analysis must not mix the results.
    fn two_callers() -> (Pag, VarId, VarId, dynsum_pag::ObjId, dynsum_pag::ObjId) {
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let id = b.add_method("id", None).unwrap();
        let a1 = b.add_local("a1", main, None).unwrap();
        let a2 = b.add_local("a2", main, None).unwrap();
        let r1 = b.add_local("r1", main, None).unwrap();
        let r2 = b.add_local("r2", main, None).unwrap();
        let p = b.add_local("p", id, None).unwrap();
        let ret = b.add_local("ret", id, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(main)).unwrap();
        let o2 = b.add_obj("o2", None, Some(main)).unwrap();
        b.add_new(o1, a1).unwrap();
        b.add_new(o2, a2).unwrap();
        b.add_assign(p, ret).unwrap();
        let s1 = b.add_call_site("1", main).unwrap();
        let s2 = b.add_call_site("2", main).unwrap();
        b.add_entry(s1, a1, p).unwrap();
        b.add_entry(s2, a2, p).unwrap();
        b.add_exit(s1, ret, r1).unwrap();
        b.add_exit(s2, ret, r2).unwrap();
        (b.finish(), r1, r2, o1, o2)
    }

    fn dynsum(pag: &Pag, config: EngineConfig) -> Session<'_> {
        Session::with_config(pag, EngineKind::DynSum, config)
    }

    #[test]
    fn context_sensitivity_separates_call_sites() {
        let (pag, r1, r2, o1, o2) = two_callers();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        let p1 = e.points_to(r1);
        assert!(p1.resolved);
        assert_eq!(p1.pts.objects().into_iter().collect::<Vec<_>>(), vec![o1]);
        let p2 = e.points_to(r2);
        assert_eq!(p2.pts.objects().into_iter().collect::<Vec<_>>(), vec![o2]);
    }

    #[test]
    fn second_query_reuses_summaries() {
        let (pag, r1, r2, ..) = two_callers();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        let p1 = e.points_to(r1);
        assert_eq!(p1.stats.cache_hits, 0);
        let before = e.summary_count();
        assert!(before > 0);
        let p2 = e.points_to(r2);
        assert!(
            p2.stats.cache_hits > 0,
            "the callee's summary must be reused across contexts"
        );
        assert!(p2.stats.edges_traversed < p1.stats.edges_traversed);
    }

    #[test]
    fn cache_disabled_recomputes() {
        let (pag, r1, r2, ..) = two_callers();
        let config = EngineConfig {
            cache_summaries: false,
            ..EngineConfig::default()
        };
        let mut e = dynsum(&pag, config);
        e.points_to(r1);
        let p2 = e.points_to(r2);
        assert_eq!(p2.stats.cache_hits, 0);
        assert_eq!(e.summary_count(), 0);
    }

    #[test]
    fn caching_never_changes_outcomes() {
        // Deterministic budget accounting: with any budget, the cached
        // and cache-free runs agree exactly on resolution and results —
        // a starved query stays starved however warm the cache gets.
        let (pag, r1, r2, ..) = two_callers();
        for budget in [1, 2, 4, 8, 16, 64, 75_000] {
            let cached = EngineConfig {
                budget,
                ..EngineConfig::default()
            };
            let uncached = EngineConfig {
                cache_summaries: false,
                ..cached
            };
            let mut warm = dynsum(&pag, cached);
            let mut cold = dynsum(&pag, uncached);
            for v in [r1, r2, r1, r2, r1] {
                let a = warm.points_to(v);
                let b = cold.points_to(v);
                assert_eq!(a.resolved, b.resolved, "budget {budget}");
                assert_eq!(a.pts, b.pts, "budget {budget}");
            }
        }
    }

    #[test]
    fn size_cap_bounds_the_cache_without_changing_answers() {
        let (pag, r1, r2, o1, o2) = two_callers();
        let mut uncapped = Session::new(&pag, EngineKind::DynSum);
        let want1 = uncapped.points_to(r1);
        let want2 = uncapped.points_to(r2);
        let full = uncapped.summary_count();
        assert!(full > 1);
        for cap in [0usize, 1, 2, full] {
            let config = EngineConfig {
                max_cached_summaries: Some(cap),
                ..EngineConfig::default()
            };
            let mut e = dynsum(&pag, config);
            // Interleave and repeat: eviction happens mid-stream.
            for _ in 0..3 {
                let a = e.points_to(r1);
                assert_eq!(a.resolved, want1.resolved, "cap {cap}");
                assert_eq!(a.pts, want1.pts, "cap {cap}");
                let b = e.points_to(r2);
                assert_eq!(b.pts, want2.pts, "cap {cap}");
                assert!(e.summary_count() <= cap, "cap {cap} not enforced");
            }
            if cap == 0 {
                assert!(e.cache_stats().evictions > 0);
            }
        }
        assert!(want1.pts.contains_obj(o1) && want2.pts.contains_obj(o2));
    }

    #[test]
    fn globals_clear_context() {
        // o flows through a global: m1 writes G, m2 reads it.
        let mut b = PagBuilder::new();
        let m1 = b.add_method("m1", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        let v = b.add_local("v", m1, None).unwrap();
        let w = b.add_local("w", m2, None).unwrap();
        let g = b.add_global("G", None).unwrap();
        let o = b.add_obj("o", None, Some(m1)).unwrap();
        b.add_new(o, v).unwrap();
        b.add_assign(v, g).unwrap();
        b.add_assign(g, w).unwrap();
        let pag = b.finish();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        let r = e.points_to(w);
        assert!(r.resolved);
        assert!(r.pts.contains_obj(o));
    }

    #[test]
    fn budget_exhaustion_reports_unresolved() {
        let (pag, r1, ..) = two_callers();
        let config = EngineConfig {
            budget: 2,
            ..EngineConfig::default()
        };
        let mut e = dynsum(&pag, config);
        let r = e.points_to(r1);
        assert!(!r.resolved);
    }

    #[test]
    fn tracing_records_steps_and_reuse() {
        let (pag, r1, r2, ..) = two_callers();
        let session = Session::new(&pag, EngineKind::DynSum);
        let mut h = session.handle();
        let (_, t1) = h.points_to_traced(r1);
        assert!(!t1.is_empty());
        assert_eq!(t1.reuse_count(), 0);
        let (_, t2) = h.points_to_traced(r2);
        assert!(t2.reuse_count() > 0);
        assert!(t2.len() <= t1.len());
    }

    #[test]
    fn invalidation_evicts_only_the_edited_method() {
        let (pag, r1, r2, ..) = two_callers();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        e.points_to(r1);
        e.points_to(r2);
        let before = e.summary_count();
        assert!(before > 0);
        // "Edit" the callee: its summaries go, main's stay.
        let id = pag.find_method("id").unwrap();
        let evicted = e.invalidate_method(id);
        assert!(evicted > 0);
        assert_eq!(e.summary_count(), before - evicted);
        // Queries still come out right and repopulate the cache.
        let r = e.points_to(r1);
        assert!(r.resolved);
        assert!(e.summary_count() >= before - evicted);
        // Invalidating an untouched method evicts nothing new for `id`.
        let main = pag.find_method("main").unwrap();
        let evicted_main = e.invalidate_method(main);
        assert!(evicted_main > 0, "main's summaries existed too");
    }

    #[test]
    fn query_with_explicit_context() {
        let (pag, ..) = two_callers();
        // pointsTo(ret, [site1]) must see only o1: the exit edge at site 1
        // is the only realizable return.
        let ret = pag.find_var("ret").unwrap();
        let s1 = pag.find_call_site("1").unwrap();
        let o1 = pag.find_obj("o1").unwrap();
        let session = Session::new(&pag, EngineKind::DynSum);
        let r = session.handle().points_to_in(ret, &[s1]);
        assert!(r.resolved);
        assert_eq!(
            r.pts.objects().into_iter().collect::<Vec<_>>(),
            vec![o1],
            "context [1] must restrict the formal's sources to site 1"
        );
    }
}
