//! Query generation and verdict logic.

use std::time::Instant;

use dynsum_cfl::PointsToSet;
use dynsum_core::{Session, SessionQuery};
use dynsum_pag::{ClassId, MethodId, Pag, ProgramInfo, VarId};

use crate::report::ClientReport;

/// The three evaluation clients.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// Downcast safety (§5.2).
    SafeCast,
    /// Null-dereference detection — the most precision-hungry client.
    NullDeref,
    /// Factory methods must return fresh objects.
    FactoryM,
}

impl ClientKind {
    /// All clients, in the paper's order.
    pub const ALL: [ClientKind; 3] = [
        ClientKind::SafeCast,
        ClientKind::NullDeref,
        ClientKind::FactoryM,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ClientKind::SafeCast => "SafeCast",
            ClientKind::NullDeref => "NullDeref",
            ClientKind::FactoryM => "FactoryM",
        }
    }
}

impl std::fmt::Display for ClientKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a query is about (for verdicts and reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySite {
    /// `(target) var` downcast at `location`.
    Cast {
        /// Cast target class.
        target: ClassId,
        /// Source location.
        location: String,
    },
    /// Dereference of the queried variable at `location`.
    Deref {
        /// Source location.
        location: String,
    },
    /// Factory method whose return variable is queried.
    Factory {
        /// The factory method.
        method: MethodId,
    },
}

/// One client query: a variable plus the site being checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The queried variable (`pointsTo(var, ∅)`).
    pub var: VarId,
    /// The site under scrutiny.
    pub site: QuerySite,
}

/// Outcome of one site check.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds (cast safe / never null / always fresh).
    Proven,
    /// The property was definitively violated by some object.
    Refuted,
    /// The query blew its budget: answer conservatively.
    Unresolved,
}

/// Generates the query stream a client issues for a program.
pub fn queries_for(kind: ClientKind, info: &ProgramInfo) -> Vec<Query> {
    match kind {
        ClientKind::SafeCast => info
            .casts
            .iter()
            .map(|c| Query {
                var: c.var,
                site: QuerySite::Cast {
                    target: c.target,
                    location: c.location.clone(),
                },
            })
            .collect(),
        ClientKind::NullDeref => info
            .derefs
            .iter()
            .map(|d| Query {
                var: d.base,
                site: QuerySite::Deref {
                    location: d.location.clone(),
                },
            })
            .collect(),
        ClientKind::FactoryM => info
            .factories
            .iter()
            .map(|f| Query {
                var: f.ret,
                site: QuerySite::Factory { method: f.method },
            })
            .collect(),
    }
}

/// The client's satisfaction predicate over a (possibly over-approximate)
/// points-to set: `true` when the property is already proven, allowing
/// REFINEPTS to stop refining (Algorithm 2's `satisfyClient`).
///
/// Public so external harnesses (the differential fuzzer) can hand the
/// exact same early-stop predicate to every engine they compare —
/// verdicts diverging because of *different predicates* would be noise,
/// not bugs.
pub fn site_satisfied(pag: &Pag, site: &QuerySite, pts: &PointsToSet) -> bool {
    match site {
        QuerySite::Cast { target, .. } => pts.objects().iter().all(|&o| {
            let info = pag.obj(o);
            // Null casts are safe; objects without a class are opaque
            // and must be assumed unsafe.
            info.is_null
                || info
                    .class
                    .is_some_and(|c| pag.hierarchy().is_subtype(c, *target))
        }),
        QuerySite::Deref { .. } => pts.objects().iter().all(|&o| !pag.obj(o).is_null),
        QuerySite::Factory { method } => pts.objects().iter().all(|&o| {
            let info = pag.obj(o);
            !info.is_null && info.alloc_method == Some(*method)
        }),
    }
}

/// Classifies one site given its query result.
pub fn verdict(pag: &Pag, q: &Query, result: &dynsum_cfl::QueryResult) -> Verdict {
    if !result.resolved {
        return Verdict::Unresolved;
    }
    if site_satisfied(pag, &q.site, &result.pts) {
        Verdict::Proven
    } else {
        Verdict::Refuted
    }
}

/// Runs a whole client over its query stream on `session`, fanning it
/// across up to `threads` worker threads ([`Session::run_batch`]), and
/// aggregates verdicts, work counters and wall-clock time. Verdicts and
/// counters are identical at every thread count.
pub fn run_client(
    kind: ClientKind,
    info: &ProgramInfo,
    session: &mut Session<'_>,
    threads: usize,
) -> ClientReport {
    run_queries(kind, &queries_for(kind, info), session, threads)
}

/// Runs one explicit query list as one [`Session::run_batch`] call (used
/// by the batching harness too).
pub(crate) fn run_queries(
    kind: ClientKind,
    queries: &[Query],
    session: &mut Session<'_>,
    threads: usize,
) -> ClientReport {
    // The graph comes from the session itself — sites are always judged
    // against the PAG the queries actually ran on.
    let pag = session.pag();
    let mut report = ClientReport::new(kind, session.engine().name());
    // Each query gets its own `Sync` predicate; one reference per query
    // crosses the worker threads.
    type Check<'a> = Box<dyn Fn(&PointsToSet) -> bool + Sync + 'a>;
    let checks: Vec<Check<'_>> = queries
        .iter()
        .map(|q| {
            let site = q.site.clone();
            Box::new(move |pts: &PointsToSet| site_satisfied(pag, &site, pts)) as Check<'_>
        })
        .collect();
    let batch: Vec<SessionQuery<'_>> = queries
        .iter()
        .zip(&checks)
        .map(|(q, check)| SessionQuery::with_check(q.var, &**check))
        .collect();
    let started = Instant::now();
    let results = session.run_batch(&batch, threads);
    report.elapsed = started.elapsed();
    for (q, result) in queries.iter().zip(&results) {
        report.stats.absorb(&result.stats);
        match verdict(pag, q, result) {
            Verdict::Proven => report.proven += 1,
            Verdict::Refuted => report.refuted += 1,
            Verdict::Unresolved => report.unresolved += 1,
        }
        report.queries += 1;
    }
    report.summaries = session.summary_count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_core::EngineKind;
    use dynsum_frontend::compile;

    const PROGRAM: &str = r#"
        class Animal { }
        class Dog extends Animal { Object toy() { return new Animal(); } }
        class Cat extends Animal { }
        class Shelter {
            Animal pet;
            void keep(Animal a) { this.pet = a; }
            Animal adopt() { return this.pet; }
        }
        class Main {
            static void main() {
                Shelter s1 = new Shelter();
                s1.keep(new Dog());
                Shelter s2 = new Shelter();
                s2.keep(new Cat());
                Dog d = (Dog) s1.adopt();     // safe under context sensitivity
                Cat c = (Cat) s2.adopt();     // safe under context sensitivity
                Dog bad = (Dog) s2.adopt();   // refuted: a Cat arrives
                Shelter maybe = null;
                Animal a = maybe.adopt();     // null deref
            }
        }
    "#;

    #[test]
    fn safecast_verdicts() {
        let c = compile(PROGRAM).unwrap();
        let mut engine = Session::new(&c.pag, EngineKind::DynSum);
        let report = run_client(ClientKind::SafeCast, &c.info, &mut engine, 1);
        assert_eq!(report.queries, 3);
        assert_eq!(report.proven, 2, "{report:?}");
        assert_eq!(report.refuted, 1);
        assert_eq!(report.unresolved, 0);
    }

    #[test]
    fn nullderef_flags_null_base() {
        let c = compile(PROGRAM).unwrap();
        let mut engine = Session::new(&c.pag, EngineKind::DynSum);
        let report = run_client(ClientKind::NullDeref, &c.info, &mut engine, 1);
        assert!(report.queries >= 3);
        assert!(report.refuted >= 1, "the null receiver must be flagged");
        assert!(report.proven >= 1);
    }

    #[test]
    fn factory_fresh_vs_cached() {
        let src = r#"
            class Widget { }
            class Factory {
                static Widget cache;
                Widget fresh() { return new Widget(); }
                Widget cached() { Widget w = Factory.cache; return w; }
            }
        "#;
        let c = compile(src).unwrap();
        let mut engine = Session::new(&c.pag, EngineKind::DynSum);
        let report = run_client(ClientKind::FactoryM, &c.info, &mut engine, 1);
        // fresh() proven; cached() has an empty/foreign points-to set:
        // empty sets satisfy "all objects fresh" vacuously, so gate on
        // the concrete counts instead.
        assert_eq!(report.queries, 2);
        assert!(report.proven >= 1);
    }

    #[test]
    fn engines_agree_on_verdicts() {
        let c = compile(PROGRAM).unwrap();
        for kind in ClientKind::ALL {
            let mut dynsum = Session::new(&c.pag, EngineKind::DynSum);
            let mut norefine = Session::new(&c.pag, EngineKind::NoRefine);
            let mut refinepts = Session::new(&c.pag, EngineKind::RefinePts);
            let a = run_client(kind, &c.info, &mut dynsum, 1);
            let b = run_client(kind, &c.info, &mut norefine, 1);
            let r = run_client(kind, &c.info, &mut refinepts, 1);
            assert_eq!((a.proven, a.refuted), (b.proven, b.refuted), "{kind}");
            assert_eq!((a.proven, a.refuted), (r.proven, r.refuted), "{kind}");
        }
    }

    #[test]
    fn refinement_stops_early_for_satisfiable_sites() {
        let c = compile(PROGRAM).unwrap();
        let mut refinepts = Session::new(&c.pag, EngineKind::RefinePts);
        let report = run_client(ClientKind::SafeCast, &c.info, &mut refinepts, 1);
        // The two provable casts need context-sensitive precision, which
        // REFINEPTS reaches only after refining; the refuted one may
        // terminate at any iteration. The counters must still match
        // DYNSUM's (checked above); here we check refinement happened.
        assert!(report.stats.refinement_iterations >= report.queries as u64);
    }

    #[test]
    fn query_generation_matches_info() {
        let c = compile(PROGRAM).unwrap();
        assert_eq!(
            queries_for(ClientKind::SafeCast, &c.info).len(),
            c.info.casts.len()
        );
        assert_eq!(
            queries_for(ClientKind::NullDeref, &c.info).len(),
            c.info.derefs.len()
        );
        assert_eq!(
            queries_for(ClientKind::FactoryM, &c.info).len(),
            c.info.factories.len()
        );
    }
}
