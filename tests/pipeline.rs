//! End-to-end pipeline tests: source → PAG → every engine, checked
//! against the Andersen oracle and exact expected facts.

use dynsum::{compile, Andersen, DemandPointsTo, EngineConfig, EngineKind, Session};
use dynsum_workloads::corpus;

/// Resolves a variable's points-to set to sorted object labels.
fn labels(pag: &dynsum::Pag, engine: &mut dyn DemandPointsTo, var: &str) -> Vec<String> {
    let v = pag.find_var(var).unwrap_or_else(|| panic!("no var {var}"));
    let r = engine.points_to(v);
    assert!(r.resolved, "query on {var} must resolve");
    r.pts
        .objects()
        .into_iter()
        .map(|o| pag.obj(o).label.clone())
        .collect()
}

#[test]
fn boxes_keeps_containers_apart() {
    let c = compile(corpus::BOXES.source).unwrap();
    let mut engine = Session::new(&c.pag, EngineKind::DynSum);
    let from_a = labels(&c.pag, &mut engine, "Main.main#x");
    let from_b = labels(&c.pag, &mut engine, "Main.main#y");
    assert_eq!(from_a.len(), 1, "x sees only the Apple: {from_a:?}");
    assert_eq!(from_b.len(), 1, "y sees only the Orange: {from_b:?}");
    assert_ne!(from_a, from_b);
}

#[test]
fn registry_globals_flow_context_insensitively() {
    let c = compile(corpus::REGISTRY.source).unwrap();
    let mut engine = Session::new(&c.pag, EngineKind::DynSum);
    let got = labels(&c.pag, &mut engine, "Main.main#got");
    assert_eq!(got.len(), 1);
}

#[test]
fn shapes_dispatch_follows_receivers() {
    let c = compile(corpus::SHAPES.source).unwrap();
    let mut engine = Session::new(&c.pag, EngineKind::DynSum);
    // s = new Circle(); c = s.clone2(): only Circle.clone2 runs, so the
    // result is the Circle allocation inside it.
    let cloned = labels(&c.pag, &mut engine, "Main.main#c");
    assert_eq!(
        cloned.len(),
        1,
        "on-the-fly call graph dispatches to Circle only: {cloned:?}"
    );
}

#[test]
fn every_corpus_query_is_oracle_sound() {
    for program in &corpus::ALL {
        let c = compile(program.source).unwrap();
        let oracle = Andersen::analyze(&c.pag);
        let mut dynsum = Session::new(&c.pag, EngineKind::DynSum);
        for (v, info) in c.pag.vars() {
            if info.kind.is_global() {
                continue;
            }
            let r = dynsum.points_to(v);
            if !r.resolved {
                continue;
            }
            let oracle_set: std::collections::BTreeSet<_> =
                oracle.var_pts(v).iter().copied().collect();
            assert!(
                r.pts.objects().is_subset(&oracle_set),
                "{}: {} exceeded the oracle",
                program.name,
                info.name
            );
        }
    }
}

#[test]
fn all_engines_agree_on_all_corpus_variables() {
    for program in &corpus::ALL {
        let c = compile(program.source).unwrap();
        let mut dynsum = Session::new(&c.pag, EngineKind::DynSum);
        let mut norefine = Session::new(&c.pag, EngineKind::NoRefine);
        let mut refinepts = Session::new(&c.pag, EngineKind::RefinePts);
        let mut stasum = Session::new(&c.pag, EngineKind::StaSum);
        for (v, info) in c.pag.vars() {
            let rd = dynsum.points_to(v);
            let rn = norefine.points_to(v);
            let rr = refinepts.points_to(v);
            let rs = stasum.points_to(v);
            if rd.resolved && rn.resolved && rr.resolved && rs.resolved {
                let d = rd.pts.objects();
                assert_eq!(d, rn.pts.objects(), "{}: {} D!=N", program.name, info.name);
                assert_eq!(d, rr.pts.objects(), "{}: {} D!=R", program.name, info.name);
                assert_eq!(d, rs.pts.objects(), "{}: {} D!=S", program.name, info.name);
            }
            // Conservative aborts must coincide between the two
            // full-precision engines built on the same machinery.
            assert_eq!(
                rd.resolved, rn.resolved,
                "{}: {} resolution mismatch",
                program.name, info.name
            );
        }
    }
}

#[test]
fn exported_graphs_answer_identically() {
    for program in &corpus::ALL {
        let c = compile(program.source).unwrap();
        let text = dynsum::pag::text::write_pag(&c.pag);
        let back =
            dynsum::pag::text::parse_pag(&text).unwrap_or_else(|e| panic!("{}: {e}", program.name));
        let mut e1 = Session::new(&c.pag, EngineKind::DynSum);
        let mut e2 = Session::new(&back, EngineKind::DynSum);
        for (v, info) in c.pag.vars() {
            let v2 = back.find_var(&info.name).expect("var survives export");
            let r1 = e1.points_to(v);
            let r2 = e2.points_to(v2);
            assert_eq!(r1.resolved, r2.resolved);
            // Object identity is preserved by label.
            let l1: Vec<_> = r1
                .pts
                .objects()
                .into_iter()
                .map(|o| c.pag.obj(o).label.clone())
                .collect();
            let l2: Vec<_> = r2
                .pts
                .objects()
                .into_iter()
                .map(|o| back.obj(o).label.clone())
                .collect();
            assert_eq!(l1, l2, "{}: {}", program.name, info.name);
        }
    }
}

#[test]
fn context_insensitive_mode_matches_andersen_on_corpus() {
    for program in &corpus::ALL {
        let c = compile(program.source).unwrap();
        let oracle = Andersen::analyze(&c.pag);
        let config = EngineConfig {
            context_sensitive: false,
            ..EngineConfig::default()
        };
        let mut ci = Session::with_config(&c.pag, EngineKind::NoRefine, config);
        for (v, info) in c.pag.vars() {
            let r = ci.points_to(v);
            if !r.resolved {
                continue;
            }
            let oracle_set: std::collections::BTreeSet<_> =
                oracle.var_pts(v).iter().copied().collect();
            assert_eq!(
                r.pts.objects(),
                oracle_set,
                "{}: {} CI-demand != Andersen",
                program.name,
                info.name
            );
        }
    }
}
