//! The summary-cache lifecycle in one program: serve a long NullDeref
//! query stream from a `Session` under a sweep of
//! `max_cached_summaries` caps, showing that eviction bounds memory and
//! trades hit rate for throughput while every verdict stays identical —
//! then invalidate a method mid-stream and watch a stale shard get
//! fenced instead of re-polluting the cache.
//!
//! Run with: `cargo run --release --example cache_pressure`

use std::time::Instant;

use dynsum::{run_batches, ClientKind, DemandPointsTo, EngineConfig, EngineKind, Session};
use dynsum_clients::queries_for;
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};

fn main() {
    let profile = BenchmarkProfile::find("soot-c").expect("profile exists");
    let workload = generate(
        profile,
        &GeneratorOptions {
            scale: 0.2,
            seed: 0xD45,
            ..GeneratorOptions::default()
        },
    );
    println!(
        "workload {}: {} NullDeref query sites",
        workload.name,
        workload.info.derefs.len()
    );

    // Uncapped first: its natural cache size anchors the sweep, and its
    // verdicts are the reference every capped point must reproduce.
    let mut verdicts = None;
    let natural = run_point(&workload, None, &mut verdicts);
    for cap in [natural / 2, natural / 8, 0] {
        run_point(&workload, Some(cap), &mut verdicts);
    }

    // The incremental-edit story: a shard detached before an
    // invalidation can never re-absorb the invalidated method.
    let mut session = Session::new(&workload.pag, EngineKind::DynSum);
    let queries = queries_for(ClientKind::NullDeref, &workload.info);
    let stale = {
        let mut handle = session.handle();
        for q in &queries {
            handle.points_to(q.var);
        }
        handle.into_summaries()
    };
    let method = workload
        .pag
        .methods()
        .map(|(m, _)| m)
        .find(|&m| {
            // Probe a throwaway session so the real one stays warm.
            let mut probe = Session::new(&workload.pag, EngineKind::DynSum);
            let mut h = probe.handle();
            for q in &queries {
                h.points_to(q.var);
            }
            let shard = h.into_summaries();
            probe.absorb(shard);
            probe.invalidate_method(m) > 0
        })
        .expect("some method has summaries");
    session.invalidate_method(method);
    session.absorb(stale);
    println!(
        "invalidated one method, then absorbed a pre-invalidation shard: \
         {} stale entries fenced, {} summaries merged",
        session.stale_rejections(),
        session.summary_count()
    );
    assert!(session.stale_rejections() > 0);
}

/// Runs the batched stream under one cap, printing the
/// hit-rate/throughput/memory point; returns the resident cache size.
fn run_point(
    workload: &dynsum_workloads::Workload,
    cap: Option<usize>,
    verdicts: &mut Option<(usize, usize, usize)>,
) -> usize {
    let config = EngineConfig {
        max_cached_summaries: cap,
        ..EngineConfig::default()
    };
    let mut session = Session::with_config(&workload.pag, EngineKind::DynSum, config);
    let started = Instant::now();
    let batches = run_batches(ClientKind::NullDeref, &workload.info, &mut session, 10, 2);
    let secs = started.elapsed().as_secs_f64();

    let proven: usize = batches.iter().map(|b| b.report.proven).sum();
    let refuted: usize = batches.iter().map(|b| b.report.refuted).sum();
    let unresolved: usize = batches.iter().map(|b| b.report.unresolved).sum();
    let queries: usize = batches.iter().map(|b| b.report.queries).sum();
    let stats = session.cache_stats();
    println!(
        "cap {:>9}: {:>8.0} q/s, hit rate {:>5.1}%, {:>6} evictions, {:>5} resident — \
         {proven} proven / {refuted} refuted / {unresolved} unresolved",
        cap.map_or("uncapped".to_owned(), |c| c.to_string()),
        queries as f64 / secs,
        stats.hit_rate() * 100.0,
        stats.evictions,
        session.summary_count(),
    );
    if let Some(cap) = cap {
        assert!(session.summary_count() <= cap, "the cap is a hard bound");
    }

    // Eviction is outcome-free: every cap must agree on every verdict.
    match verdicts {
        None => *verdicts = Some((proven, refuted, unresolved)),
        Some(want) => assert_eq!(
            (proven, refuted, unresolved),
            *want,
            "eviction must never change verdicts"
        ),
    }
    session.summary_count()
}
