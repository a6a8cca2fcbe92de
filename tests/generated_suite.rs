//! Integration tests over the synthetic benchmark suite: cross-engine
//! agreement at scale, oracle soundness, serialization, and the headline
//! performance shapes.

use dynsum::{Andersen, DemandPointsTo, EngineConfig, EngineKind, Session};
use dynsum_clients::{run_batches, run_client, ClientKind};
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions, PROFILES};

fn small(name: &str) -> dynsum_workloads::Workload {
    generate(
        BenchmarkProfile::find(name).unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 11,
            ..GeneratorOptions::default()
        },
    )
}

#[test]
fn generated_graphs_are_oracle_sound_on_query_sites() {
    let w = small("bloat");
    let oracle = Andersen::analyze(&w.pag);
    let mut engine = Session::new(&w.pag, EngineKind::DynSum);
    for cast in &w.info.casts {
        let r = engine.points_to(cast.var);
        if !r.resolved {
            continue;
        }
        let oracle_set: std::collections::BTreeSet<_> =
            oracle.var_pts(cast.var).iter().copied().collect();
        assert!(r.pts.objects().is_subset(&oracle_set));
    }
}

#[test]
fn engines_agree_on_generated_cast_sites() {
    let w = small("avrora");
    let config = EngineConfig::default();
    let mut dynsum = Session::with_config(&w.pag, EngineKind::DynSum, config);
    let mut norefine = Session::with_config(&w.pag, EngineKind::NoRefine, config);
    let mut refinepts = Session::with_config(&w.pag, EngineKind::RefinePts, config);
    let mut stasum = Session::with_config(&w.pag, EngineKind::StaSum, config);
    for cast in &w.info.casts {
        let rd = dynsum.points_to(cast.var);
        let rn = norefine.points_to(cast.var);
        let rr = refinepts.points_to(cast.var);
        let rs = stasum.points_to(cast.var);
        if rd.resolved && rn.resolved && rr.resolved && rs.resolved {
            let d = rd.pts.objects();
            assert_eq!(d, rn.pts.objects());
            assert_eq!(d, rr.pts.objects());
            assert_eq!(d, rs.pts.objects());
        }
    }
}

#[test]
fn dynsum_beats_refinepts_on_every_benchmark_for_nullderef() {
    // The paper's strongest client (2.28x average). At small scale every
    // benchmark must still show DYNSUM doing less edge work.
    for profile in &PROFILES {
        let w = generate(
            profile,
            &GeneratorOptions {
                scale: 0.008,
                seed: 3,
                ..GeneratorOptions::default()
            },
        );
        let config = EngineConfig::default();
        let mut dynsum = Session::with_config(&w.pag, EngineKind::DynSum, config);
        let mut refine = Session::with_config(&w.pag, EngineKind::RefinePts, config);
        let rd = run_client(ClientKind::NullDeref, &w.info, &mut dynsum, 1);
        let rr = run_client(ClientKind::NullDeref, &w.info, &mut refine, 1);
        assert!(
            rd.stats.edges_traversed < rr.stats.edges_traversed,
            "{}: DYNSUM {} vs REFINEPTS {}",
            w.name,
            rd.stats.edges_traversed,
            rr.stats.edges_traversed
        );
    }
}

#[test]
fn warm_cache_halves_second_pass() {
    // Figure 4's mechanism, distilled: replaying the same query stream
    // on a warm engine costs a fraction of the cold pass.
    let w = small("soot-c");
    let mut engine = Session::new(&w.pag, EngineKind::DynSum);
    let cold = run_client(ClientKind::SafeCast, &w.info, &mut engine, 1);
    let warm = run_client(ClientKind::SafeCast, &w.info, &mut engine, 1);
    // Local (PPTA) work is fully cached; the driver still walks the
    // global edges each time, so the floor is the global-edge share.
    assert!(
        (warm.stats.edges_traversed as f64) < 0.8 * cold.stats.edges_traversed as f64,
        "warm {} vs cold {}",
        warm.stats.edges_traversed,
        cold.stats.edges_traversed
    );
    assert!(warm.stats.cache_hits > warm.stats.cache_misses);
    // Verdicts identical.
    assert_eq!(cold.proven, warm.proven);
    assert_eq!(cold.refuted, warm.refuted);
}

#[test]
fn batch_cumulative_summaries_stay_below_stasum() {
    // Figure 5's claim: after all batches DYNSUM has computed only a
    // fraction of STASUM's static summaries.
    let w = small("jython");
    let stasum = Session::new(&w.pag, EngineKind::StaSum);
    let mut dynsum = Session::new(&w.pag, EngineKind::DynSum);
    let mut last = 0;
    for client in ClientKind::ALL {
        let batches = run_batches(client, &w.info, &mut dynsum, 10, 1);
        if let Some(b) = batches.last() {
            last = b.cumulative_summaries;
        }
    }
    assert!(last > 0);
    assert!(
        (last as f64) < 0.9 * stasum.summary_count() as f64,
        "DYNSUM {} vs STASUM {}",
        last,
        stasum.summary_count()
    );
}

#[test]
fn generated_workloads_round_trip_through_text() {
    let w = small("luindex");
    let text = dynsum::pag::text::write_pag(&w.pag);
    let back = dynsum::pag::text::parse_pag(&text).expect("round trip");
    assert_eq!(back.num_edges(), w.pag.num_edges());
    assert_eq!(back.num_nodes(), w.pag.num_nodes());
    assert_eq!(back.stats().locality(), w.pag.stats().locality());
    // Spot-check a query on the re-imported graph.
    if let Some(cast) = w.info.casts.first() {
        let name = &w.pag.var(cast.var).name;
        let v2 = back.find_var(name).unwrap();
        let mut e1 = Session::new(&w.pag, EngineKind::DynSum);
        let mut e2 = Session::new(&back, EngineKind::DynSum);
        assert_eq!(
            e1.points_to(cast.var).pts.objects().len(),
            e2.points_to(v2).pts.objects().len()
        );
    }
}

#[test]
fn budget_controls_resolution_rate() {
    let w = small("xalan");
    let tight = EngineConfig {
        budget: 50,
        ..EngineConfig::default()
    };
    let mut tight_engine = Session::with_config(&w.pag, EngineKind::DynSum, tight);
    let tight_report = run_client(ClientKind::NullDeref, &w.info, &mut tight_engine, 1);
    let mut roomy_engine = Session::new(&w.pag, EngineKind::DynSum);
    let roomy_report = run_client(ClientKind::NullDeref, &w.info, &mut roomy_engine, 1);
    assert!(
        tight_report.unresolved > roomy_report.unresolved,
        "tight {} vs roomy {}",
        tight_report.unresolved,
        roomy_report.unresolved
    );
    assert!(roomy_report.resolution_rate() > tight_report.resolution_rate());
}

#[test]
fn deterministic_workloads_give_deterministic_analysis_results() {
    let a = small("jack");
    let b = small("jack");
    let mut ea = Session::new(&a.pag, EngineKind::DynSum);
    let mut eb = Session::new(&b.pag, EngineKind::DynSum);
    let ra = run_client(ClientKind::SafeCast, &a.info, &mut ea, 1);
    let rb = run_client(ClientKind::SafeCast, &b.info, &mut eb, 1);
    assert_eq!(ra.proven, rb.proven);
    assert_eq!(ra.refuted, rb.refuted);
    assert_eq!(ra.stats.edges_traversed, rb.stats.edges_traversed);
}
