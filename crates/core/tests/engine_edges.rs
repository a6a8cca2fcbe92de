//! Edge-case tests for the engines: queries on globals, deep context
//! chains, heap contexts, recursion transparency, and cap behavior.

use dynsum_cfl::CtxId;
use dynsum_core::{DemandPointsTo, EngineConfig, EngineKind, Session};
use dynsum_pag::{MethodId, Pag, PagBuilder, VarId};

/// A chain of k wrapper methods: main calls w1 calls w2 ... calls wk,
/// the innermost allocating. Exercises deep balanced contexts.
fn deep_chain(k: usize) -> (Pag, VarId) {
    let mut b = PagBuilder::new();
    let mut methods: Vec<MethodId> = Vec::new();
    for i in 0..=k {
        methods.push(b.add_method(&format!("w{i}"), None).unwrap());
    }
    // Innermost: ret = new O.
    let mut prev_ret = {
        let m = methods[k];
        let ret = b.add_local(&format!("ret{k}"), m, None).unwrap();
        let o = b.add_obj("deep", None, Some(m)).unwrap();
        b.add_new(o, ret).unwrap();
        ret
    };
    // Wrappers: ret_i = w_{i+1}().
    for i in (0..k).rev() {
        let m = methods[i];
        let ret = b.add_local(&format!("ret{i}"), m, None).unwrap();
        let site = b.add_call_site(&format!("c{i}"), m).unwrap();
        b.add_exit(site, prev_ret, ret).unwrap();
        prev_ret = ret;
    }
    (b.finish(), prev_ret)
}

#[test]
fn deep_call_chains_resolve_within_context_cap() {
    let (pag, root) = deep_chain(24);
    for engine in [true, false] {
        let r = if engine {
            Session::new(&pag, EngineKind::DynSum).points_to(root)
        } else {
            Session::new(&pag, EngineKind::NoRefine).points_to(root)
        };
        assert!(r.resolved, "depth 24 must fit the default context cap");
        assert_eq!(r.pts.objects().len(), 1);
    }
}

#[test]
fn context_cap_aborts_conservatively() {
    let (pag, root) = deep_chain(24);
    let config = EngineConfig {
        max_ctx_depth: 4,
        ..EngineConfig::default()
    };
    let r = Session::with_config(&pag, EngineKind::DynSum, config).points_to(root);
    assert!(
        !r.resolved,
        "a 24-deep chain cannot fit a 4-deep context cap"
    );
}

#[test]
fn heap_contexts_distinguish_allocation_paths() {
    // alloc() { return new O; } called from two sites: the same abstract
    // object arrives under two heap contexts but is one object.
    let mut b = PagBuilder::new();
    let main = b.add_method("main", None).unwrap();
    let alloc = b.add_method("alloc", None).unwrap();
    let ret = b.add_local("ret", alloc, None).unwrap();
    let o = b.add_obj("o", None, Some(alloc)).unwrap();
    b.add_new(o, ret).unwrap();
    let r1 = b.add_local("r1", main, None).unwrap();
    let r2 = b.add_local("r2", main, None).unwrap();
    let joint = b.add_local("joint", main, None).unwrap();
    let s1 = b.add_call_site("1", main).unwrap();
    let s2 = b.add_call_site("2", main).unwrap();
    b.add_exit(s1, ret, r1).unwrap();
    b.add_exit(s2, ret, r2).unwrap();
    b.add_assign(r1, joint).unwrap();
    b.add_assign(r2, joint).unwrap();
    let pag = b.finish();

    let mut e = Session::new(&pag, EngineKind::DynSum);
    let r = e.points_to(joint);
    assert!(r.resolved);
    // One abstract object, reached under two distinct allocation
    // contexts (the paper's heap abstraction, §3.3).
    assert_eq!(r.pts.objects().len(), 1);
    assert_eq!(r.pts.len(), 2, "two (object, context) pairs");
}

#[test]
fn recursive_sites_still_find_objects() {
    // walk(p) { return walk(p); } — plus a base flow in via entry.
    let mut b = PagBuilder::new();
    let main = b.add_method("main", None).unwrap();
    let walk = b.add_method("walk", None).unwrap();
    let p = b.add_local("p", walk, None).unwrap();
    let ret = b.add_local("ret", walk, None).unwrap();
    b.add_assign(p, ret).unwrap();
    // Self-call: ret = walk(p), marked recursive.
    let sr = b.add_call_site("rec", walk).unwrap();
    b.set_recursive(sr, true).unwrap();
    b.add_entry(sr, p, p).unwrap();
    b.add_exit(sr, ret, ret).unwrap();
    // main: x = new O; r = walk(x).
    let x = b.add_local("x", main, None).unwrap();
    let r = b.add_local("r", main, None).unwrap();
    let o = b.add_obj("o", None, Some(main)).unwrap();
    b.add_new(o, x).unwrap();
    let s = b.add_call_site("call", main).unwrap();
    b.add_entry(s, x, p).unwrap();
    b.add_exit(s, ret, r).unwrap();
    let pag = b.finish();

    for name in ["dynsum", "norefine", "refinepts", "stasum"] {
        let result = match name {
            "dynsum" => Session::new(&pag, EngineKind::DynSum).points_to(r),
            "norefine" => Session::new(&pag, EngineKind::NoRefine).points_to(r),
            "refinepts" => Session::new(&pag, EngineKind::RefinePts).points_to(r),
            _ => Session::new(&pag, EngineKind::StaSum).points_to(r),
        };
        assert!(result.resolved, "{name} must terminate on recursion");
        assert!(result.pts.contains_obj(o), "{name} must find o");
    }
}

#[test]
fn querying_a_global_works() {
    let mut b = PagBuilder::new();
    let m = b.add_method("m", None).unwrap();
    let v = b.add_local("v", m, None).unwrap();
    let g = b.add_global("G", None).unwrap();
    let o = b.add_obj("o", None, Some(m)).unwrap();
    b.add_new(o, v).unwrap();
    b.add_assign(v, g).unwrap();
    let pag = b.finish();
    for resolved in [
        Session::new(&pag, EngineKind::DynSum).points_to(g),
        Session::new(&pag, EngineKind::NoRefine).points_to(g),
        Session::new(&pag, EngineKind::RefinePts).points_to(g),
        Session::new(&pag, EngineKind::StaSum).points_to(g),
    ] {
        assert!(resolved.resolved);
        assert!(resolved.pts.contains_obj(o));
    }
}

#[test]
fn unreachable_variable_has_empty_set() {
    let mut b = PagBuilder::new();
    let m = b.add_method("m", None).unwrap();
    let v = b.add_local("v", m, None).unwrap();
    let pag = b.finish();
    let r = Session::new(&pag, EngineKind::DynSum).points_to(v);
    assert!(r.resolved);
    assert!(r.pts.is_empty());
}

#[test]
fn explicit_context_filters_returns() {
    // Same structure as deep_chain(1) but queried from inside.
    let (pag, _) = deep_chain(2);
    let ret2 = pag.find_var("ret2").unwrap();
    let c1 = pag.find_call_site("c1").unwrap();
    let session = Session::new(&pag, EngineKind::DynSum);
    // From inside w2 under context [c1], the object is still found
    // (allocation is local to w2).
    let r = session.handle().points_to_in(ret2, &[c1]);
    assert!(r.resolved);
    assert_eq!(r.pts.objects().len(), 1);
    // The reported allocation context is the query context.
    let (_, ctx) = r.pts.iter().next().unwrap();
    assert_ne!(ctx, CtxId::EMPTY);
}

#[test]
fn empty_graph_engines_do_not_panic() {
    let pag = PagBuilder::new().finish();
    let _ = Session::new(&pag, EngineKind::StaSum);
    // No variables to query; constructing engines must be safe.
    let _ = Session::new(&pag, EngineKind::DynSum);
    let _ = Session::new(&pag, EngineKind::NoRefine);
    let _ = Session::new(&pag, EngineKind::RefinePts);
}
