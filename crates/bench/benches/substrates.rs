//! Criterion benches over the substrates: Andersen solving, STASUM
//! precomputation, PAG construction/serialization, and the workload
//! generator itself.

use criterion::{criterion_group, criterion_main, Criterion};

use dynsum_andersen::Andersen;
use dynsum_bench::ExperimentOptions;
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_workloads::{generate, GeneratorOptions, PROFILES};

fn options() -> ExperimentOptions {
    ExperimentOptions {
        scale: 0.01,
        benchmarks: vec!["soot-c".to_owned()],
        ..ExperimentOptions::default()
    }
}

fn andersen_solve(c: &mut Criterion) {
    let workload = options().workloads().remove(0);
    c.bench_function("andersen/soot-c", |b| {
        b.iter(|| Andersen::analyze(std::hint::black_box(&workload.pag)));
    });
}

fn stasum_precompute(c: &mut Criterion) {
    let workload = options().workloads().remove(0);
    c.bench_function("stasum_precompute/soot-c", |b| {
        b.iter(|| {
            Session::with_config(
                std::hint::black_box(&workload.pag),
                EngineKind::StaSum,
                EngineConfig::default(),
            )
        });
    });
}

fn generator(c: &mut Criterion) {
    let opts = GeneratorOptions {
        scale: 0.01,
        seed: 1,
        ..GeneratorOptions::default()
    };
    c.bench_function("generate/soot-c", |b| {
        b.iter(|| generate(std::hint::black_box(&PROFILES[2]), &opts));
    });
}

fn text_round_trip(c: &mut Criterion) {
    let workload = options().workloads().remove(0);
    let text = write_pag(&workload.pag);
    c.bench_function("text/write", |b| {
        b.iter(|| write_pag(std::hint::black_box(&workload.pag)));
    });
    c.bench_function("text/parse", |b| {
        b.iter(|| parse_pag(std::hint::black_box(&text)).expect("round trip"));
    });
}

criterion_group!(
    benches,
    andersen_solve,
    stasum_precompute,
    generator,
    text_round_trip
);
criterion_main!(benches);
