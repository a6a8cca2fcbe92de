//! Demand-driven alias queries.
//!
//! The paper's CFL defines `x alias y ⟺ x flowsTo̅ o flowsTo y` for some
//! object `o` (§3.2) — i.e. two variables may alias exactly when their
//! points-to sets intersect. Alias queries are what the `NullDeref`-style
//! clients of Zheng–Rugina and Yan et al. consume; this module exposes
//! them over any demand engine.

use dynsum_cfl::QueryStats;
use dynsum_pag::VarId;

use crate::engine::DemandPointsTo;

/// The answer to a may-alias query.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum AliasResult {
    /// The points-to sets are provably disjoint.
    No,
    /// Some abstract object is in both points-to sets.
    May,
    /// At least one of the two queries exhausted its budget; the pair
    /// must be treated as possibly aliased.
    Unknown,
}

impl AliasResult {
    /// Conservative boolean view: everything except a proven `No`.
    pub fn possible(self) -> bool {
        !matches!(self, AliasResult::No)
    }
}

/// The outcome of [`may_alias`]: the verdict plus the combined work of
/// the two underlying points-to queries.
#[derive(Debug, Clone)]
pub struct AliasQuery {
    /// The verdict.
    pub result: AliasResult,
    /// Combined work counters.
    pub stats: QueryStats,
}

/// Answers `may_alias(v1, v2)` on any engine by intersecting the two
/// points-to sets (the paper's `alias` relation, §3.2).
///
/// With DYNSUM the two queries share the summary cache, so alias queries
/// over overlapping code regions get cheaper as more of them are asked.
pub fn may_alias(engine: &mut dyn DemandPointsTo, v1: VarId, v2: VarId) -> AliasQuery {
    let r1 = engine.points_to(v1);
    let r2 = engine.points_to(v2);
    let mut stats = r1.stats;
    stats.absorb(&r2.stats);
    let result = if !r1.resolved || !r2.resolved {
        AliasResult::Unknown
    } else {
        let o1 = r1.pts.objects();
        let o2 = r2.pts.objects();
        if o1.intersection(&o2).next().is_some() {
            AliasResult::May
        } else {
            AliasResult::No
        }
    };
    AliasQuery { result, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::{EngineKind, Session};
    use dynsum_pag::{Pag, PagBuilder};

    /// p and q share an object; r holds a different one; empty has none.
    fn aliasing_pag() -> (Pag, VarId, VarId, VarId, VarId) {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let p = b.add_local("p", m, None).unwrap();
        let q = b.add_local("q", m, None).unwrap();
        let r = b.add_local("r", m, None).unwrap();
        let empty = b.add_local("empty", m, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(m)).unwrap();
        let o2 = b.add_obj("o2", None, Some(m)).unwrap();
        b.add_new(o1, p).unwrap();
        b.add_assign(p, q).unwrap();
        b.add_new(o2, r).unwrap();
        (b.finish(), p, q, r, empty)
    }

    #[test]
    fn shared_object_means_may() {
        let (pag, p, q, ..) = aliasing_pag();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        let a = may_alias(&mut e, p, q);
        assert_eq!(a.result, AliasResult::May);
        assert!(a.result.possible());
        assert!(a.stats.edges_traversed > 0);
    }

    #[test]
    fn disjoint_objects_mean_no() {
        let (pag, p, _, r, _) = aliasing_pag();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        assert_eq!(may_alias(&mut e, p, r).result, AliasResult::No);
        assert!(!AliasResult::No.possible());
    }

    #[test]
    fn empty_sets_do_not_alias() {
        let (pag, p, _, _, empty) = aliasing_pag();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        assert_eq!(may_alias(&mut e, p, empty).result, AliasResult::No);
        assert_eq!(may_alias(&mut e, empty, empty).result, AliasResult::No);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (pag, p, q, ..) = aliasing_pag();
        let config = EngineConfig {
            budget: 0,
            ..EngineConfig::default()
        };
        let mut e = Session::with_config(&pag, EngineKind::NoRefine, config);
        let a = may_alias(&mut e, p, q);
        assert_eq!(a.result, AliasResult::Unknown);
        assert!(a.result.possible(), "unknown must stay conservative");
    }

    #[test]
    fn alias_is_symmetric() {
        let (pag, p, q, r, _) = aliasing_pag();
        let mut e = Session::new(&pag, EngineKind::DynSum);
        assert_eq!(
            may_alias(&mut e, p, q).result,
            may_alias(&mut e, q, p).result
        );
        assert_eq!(
            may_alias(&mut e, p, r).result,
            may_alias(&mut e, r, p).result
        );
    }
}
