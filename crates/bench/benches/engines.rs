//! Criterion benches over the four demand-driven engines.
//!
//! `query_stream/*` measures a whole NullDeref query stream per engine
//! on the scaled `soot-c` workload (DYNSUM's cache persisting across the
//! stream, as in Table 4); `single_query/*` measures one cold query.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dynsum_bench::{EngineKind, ExperimentOptions};
use dynsum_clients::{run_client, ClientKind};
use dynsum_core::{DemandPointsTo, Session};

fn options() -> ExperimentOptions {
    ExperimentOptions {
        scale: 0.01,
        benchmarks: vec!["soot-c".to_owned()],
        ..ExperimentOptions::default()
    }
}

fn query_stream(c: &mut Criterion) {
    let opts = options();
    let workload = opts.workloads().remove(0);
    let mut group = c.benchmark_group("query_stream");
    group.sample_size(10);
    for kind in [
        EngineKind::NoRefine,
        EngineKind::RefinePts,
        EngineKind::DynSum,
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter_batched(
                || Session::with_config(&workload.pag, kind, opts.engine_config()),
                |mut session| run_client(ClientKind::NullDeref, &workload.info, &mut session, 1),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn single_query(c: &mut Criterion) {
    let opts = options();
    let workload = opts.workloads().remove(0);
    let var = workload.info.derefs[0].base;
    let mut group = c.benchmark_group("single_query");
    for kind in [
        EngineKind::NoRefine,
        EngineKind::RefinePts,
        EngineKind::DynSum,
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter_batched(
                || Session::with_config(&workload.pag, kind, opts.engine_config()),
                |mut session| session.points_to(var),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn warm_cache_query(c: &mut Criterion) {
    let opts = options();
    let workload = opts.workloads().remove(0);
    let var = workload.info.derefs[0].base;
    // Warm DYNSUM once with the full stream, then measure repeat queries.
    let mut session = Session::with_config(&workload.pag, EngineKind::DynSum, opts.engine_config());
    run_client(ClientKind::NullDeref, &workload.info, &mut session, 1);
    c.bench_function("warm_cache_query/DYNSUM", |b| {
        b.iter(|| session.points_to(std::hint::black_box(var)));
    });
}

criterion_group!(benches, query_stream, single_query, warm_cache_query);
criterion_main!(benches);
