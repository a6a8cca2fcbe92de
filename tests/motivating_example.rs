//! The paper's running example, end to end: §3.4's expected answers,
//! §4.3's summary reuse, and agreement between the hand-built Figure 2
//! PAG and the frontend-compiled one.

use dynsum::{compile, DemandPointsTo, EngineKind, Session};
use dynsum_workloads::{motivating_pag, MOTIVATING_SOURCE};

#[test]
fn hand_built_pag_gives_paper_answers() {
    let m = motivating_pag();
    let mut engine = Session::new(&m.pag, EngineKind::DynSum);
    let r1 = engine.points_to(m.s1);
    assert!(r1.resolved);
    let objs1: Vec<_> = r1
        .pts
        .objects()
        .into_iter()
        .map(|o| m.pag.obj(o).label.clone())
        .collect();
    assert_eq!(objs1, vec!["o26"], "pts(s1) must be {{o26}} (§3.4)");
    let r2 = engine.points_to(m.s2);
    let objs2: Vec<_> = r2
        .pts
        .objects()
        .into_iter()
        .map(|o| m.pag.obj(o).label.clone())
        .collect();
    assert_eq!(objs2, vec!["o29"], "pts(s2) must be {{o29}} (§3.4)");
}

#[test]
fn summary_reuse_makes_s2_cheaper() {
    let m = motivating_pag();
    let session = Session::new(&m.pag, EngineKind::DynSum);
    let mut handle = session.handle();
    let (r1, t1) = handle.points_to_traced(m.s1);
    let (r2, t2) = handle.points_to_traced(m.s2);
    assert_eq!(t1.reuse_count(), 0, "first query computes everything fresh");
    assert!(
        t2.reuse_count() >= 3,
        "Table 1 marks several reuse steps for s2"
    );
    assert!(
        r2.stats.edges_traversed < r1.stats.edges_traversed,
        "s2 ({}) must be cheaper than s1 ({})",
        r2.stats.edges_traversed,
        r1.stats.edges_traversed
    );
    assert!(r2.stats.cache_hits > 0);
}

#[test]
fn all_engines_agree_on_the_motivating_queries() {
    let m = motivating_pag();
    let expect = |engine: &mut dyn DemandPointsTo, name: &str| {
        let r1 = engine.points_to(m.s1);
        let r2 = engine.points_to(m.s2);
        assert!(r1.resolved && r2.resolved, "{name} must resolve");
        let o1: Vec<_> = r1
            .pts
            .objects()
            .into_iter()
            .map(|o| m.pag.obj(o).label.clone())
            .collect();
        let o2: Vec<_> = r2
            .pts
            .objects()
            .into_iter()
            .map(|o| m.pag.obj(o).label.clone())
            .collect();
        assert_eq!(o1, vec!["o26"], "{name} pts(s1)");
        assert_eq!(o2, vec!["o29"], "{name} pts(s2)");
    };
    expect(&mut Session::new(&m.pag, EngineKind::DynSum), "DYNSUM");
    expect(&mut Session::new(&m.pag, EngineKind::NoRefine), "NOREFINE");
    expect(
        &mut Session::new(&m.pag, EngineKind::RefinePts),
        "REFINEPTS",
    );
    expect(&mut Session::new(&m.pag, EngineKind::StaSum), "STASUM");
}

#[test]
fn refinement_needs_multiple_iterations_here() {
    // §3.4 walks REFINEPTS through four refinement iterations for s1.
    let m = motivating_pag();
    let mut engine = Session::new(&m.pag, EngineKind::RefinePts);
    let r1 = engine.points_to(m.s1);
    assert!(
        r1.stats.refinement_iterations >= 3,
        "s1 needs several refinement iterations (paper shows 4), got {}",
        r1.stats.refinement_iterations
    );
}

#[test]
fn field_based_first_pass_conflates_s1_and_s2() {
    // The paper's first iteration returns {o26, o29} for s1. A client
    // that accepts anything sees exactly that over-approximation.
    let m = motivating_pag();
    let mut engine = Session::new(&m.pag, EngineKind::RefinePts);
    let r = engine.query(m.s1, &|_| true);
    let objs: Vec<_> = r
        .pts
        .objects()
        .into_iter()
        .map(|o| m.pag.obj(o).label.clone())
        .collect();
    assert_eq!(
        objs,
        vec!["o26", "o29"],
        "field-based iteration 1 conflates both vectors' payloads"
    );
    assert_eq!(r.stats.refinement_iterations, 1);
}

#[test]
fn compiled_source_agrees_with_hand_built_graph() {
    let c = compile(MOTIVATING_SOURCE).unwrap();
    let mut engine = Session::new(&c.pag, EngineKind::DynSum);
    for (var, expected_count) in [("Main.main#s1", 1), ("Main.main#s2", 1)] {
        let v = c.pag.find_var(var).unwrap();
        let r = engine.points_to(v);
        assert!(r.resolved);
        assert_eq!(
            r.pts.objects().len(),
            expected_count,
            "{var} must resolve to exactly one allocation site"
        );
    }
    // And the two results are the distinct Integer/String allocations.
    let s1 = c.pag.find_var("Main.main#s1").unwrap();
    let s2 = c.pag.find_var("Main.main#s2").unwrap();
    let o1 = engine.points_to(s1).pts.objects();
    let o2 = engine.points_to(s2).pts.objects();
    assert_ne!(o1, o2, "context sensitivity separates the two clients");
    let class_of = |objs: &std::collections::BTreeSet<dynsum::pag::ObjId>| {
        let o = *objs.iter().next().unwrap();
        c.pag
            .hierarchy()
            .name(c.pag.obj(o).class.expect("typed alloc"))
            .to_owned()
    };
    assert_eq!(class_of(&o1), "Integer");
    assert_eq!(class_of(&o2), "String");
}

#[test]
fn edge_work_is_pinned_on_the_motivating_example() {
    // Regression pin for `QueryStats::edges_traversed`: performance
    // refactors of the graph layout and the traversal loops must change
    // *cost*, never semantics or work accounting. If an intentional
    // algorithmic change moves these numbers, update them in the same
    // commit and say why.
    //
    // Current pins date from tagging field-stack frames with their
    // grammar provenance (`FieldFrame::Get`/`Put`): frames that used to
    // pop at the wrong production (load-against-load, store-against-
    // store) now persist, so the engines traverse a few more edges on
    // the way to the same — now sound — answers (previously 39/27/112).
    let m = motivating_pag();
    let mut dynsum = Session::new(&m.pag, EngineKind::DynSum);
    assert_eq!(dynsum.points_to(m.s1).stats.edges_traversed, 52);
    assert_eq!(
        dynsum.points_to(m.s2).stats.edges_traversed,
        40,
        "s2 must reuse s1's summaries (fewer edges than s1's 52)"
    );
    let mut norefine = Session::new(&m.pag, EngineKind::NoRefine);
    assert_eq!(norefine.points_to(m.s1).stats.edges_traversed, 52);
    assert_eq!(
        norefine.points_to(m.s2).stats.edges_traversed,
        52,
        "NOREFINE memorizes nothing, so s2 repeats the full traversal"
    );
    let mut refinepts = Session::new(&m.pag, EngineKind::RefinePts);
    assert_eq!(refinepts.points_to(m.s1).stats.edges_traversed, 130);
    assert_eq!(refinepts.points_to(m.s2).stats.edges_traversed, 130);
}

#[test]
fn stasum_precomputes_more_than_dynsum_needs() {
    // Figure 5's point, on the smallest possible example.
    let m = motivating_pag();
    let stasum = Session::new(&m.pag, EngineKind::StaSum);
    let mut dynsum = Session::new(&m.pag, EngineKind::DynSum);
    dynsum.points_to(m.s1);
    dynsum.points_to(m.s2);
    assert!(
        dynsum.summary_count() < stasum.summary_count() * 2,
        "DYNSUM ({}) should not dwarf STASUM ({})",
        dynsum.summary_count(),
        stasum.summary_count()
    );
    assert!(stasum.summary_count() > 0);
}
