//! `layerbench` — a fixed-work, layer-attributed benchmark of the
//! dynsum query, batch, edit and daemon paths.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>
//!            [--size full|tiny] [--plant-wrong-answer]
//! ```
//!
//! Each workload answers a fixed request sequence drawn from `--seed`;
//! `--seconds` sizes that sequence (at a rate fixed per workload), so
//! every run with the same arguments does the same work. The run
//! prepares its inputs and independent evidence, times the set-up calls
//! several times, answers the sequence in several rounds (each on a
//! fresh set-up), checks every answer, and prints a host block, a
//! summary line and, last, the result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the sequence again with spans
//! around every layer call and reports the per-layer metrics, writing
//! the spans to `.bench_out/`. See `README.md`.

mod analysis;
mod check;
mod host;
mod inputs;
mod report;
mod service;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_service::proto::engine_name;

use crate::analysis::{PhaseOut, Start, BASELINES};
use crate::check::{
    distinct_vars, expected_digest, plant_wrong_reference, verify, Prepared, Slot, Verdicts,
};
use crate::inputs::{batch_sequence, frame_sequence, queried_methods, BatchRequest, Frame};
use crate::report::{median, percentile, ratio, result_line, Metrics, Round, Tail};
use crate::trace::{Span, Tracer};

const USAGE: &str = "usage: layerbench --workload <dynsum_warm|baselines_cold|service_mix> \
--seed <n> --seconds <1..=60> --trace <0|1> [--size full|tiny] [--plant-wrong-answer]";

/// The analysed programs of the in-process workloads.
const ANALYSIS_PROGRAMS: [&str; 3] = ["soot-c", "bloat", "jython"];

/// The daemon's program.
const SERVICE_PROGRAM: &str = "soot-c";

/// Queries per in-process batch.
const BATCH: usize = 64;

/// Vars per service `batch` frame.
const SERVICE_BATCH: usize = 8;

/// `run_batch` threads of the traced run's parallel replay (the host
/// has two vCPUs). The timed phases run at one thread: another tenant
/// holds one of the two vCPUs for tens of seconds at a time, and runs of
/// identical 2-thread work then read anywhere from 78k to 162k q/s.
const PARALLEL_THREADS: usize = 2;

/// Rounds per timed set-up repetition (20 repetitions at
/// `--seconds 20`).
const SETUP_EVERY: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DynsumWarm,
    BaselinesCold,
    ServiceMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "dynsum_warm" => Some(Workload::DynsumWarm),
            "baselines_cold" => Some(Workload::BaselinesCold),
            "service_mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DynsumWarm => "dynsum_warm",
            Workload::BaselinesCold => "baselines_cold",
            Workload::ServiceMix => "service_mix",
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    plant: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut plant = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size must be full or tiny, not `{other}`")),
                };
            }
            "--plant-wrong-answer" => plant = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        plant,
    })
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Generator scale of the analysed programs.
    scale: f64,
    /// Generator scale of the daemon's program.
    service_scale: f64,
    /// Timed rounds: each times one set-up repetition, then sets the
    /// workload up afresh and answers its whole request sequence.
    rounds: usize,
    /// Batches per round of `dynsum_warm`.
    warm_batches: usize,
    /// Batches of the edit replay in a traced `dynsum_warm` run.
    edit_batches: usize,
    /// Passes per round of `baselines_cold`.
    passes: usize,
    /// Frames per service client per round.
    frames: usize,
}

impl Size {
    fn of(opts: &Options) -> Size {
        if opts.tiny {
            return Size {
                scale: 0.01,
                service_scale: 0.01,
                rounds: 2,
                warm_batches: 12,
                edit_batches: 12,
                passes: 1,
                frames: 60,
            };
        }
        // A round's sequence takes about 0.1 s to answer on a 2-vCPU
        // host and holds at least 1,500 requests; with its set-up and
        // checks a round takes about 0.25 s, so `--seconds` sets four
        // rounds a second. Short rounds are what the best round needs:
        // the host's calm spells are often shorter than a second.
        let s = opts.seconds as usize;
        Size {
            scale: 0.05,
            service_scale: 0.02,
            rounds: 4 * s,
            warm_batches: 1_500,
            edit_batches: 600 * s,
            passes: 8,
            frames: 2_000,
        }
    }
}

/// What a run reports.
struct Run {
    verdicts: Verdicts,
    metrics: Metrics,
    /// Lines printed before the result line.
    notes: Vec<String>,
    tracers: Vec<Tracer>,
}

/// The end-to-end metrics, named alike on every workload: the best
/// round's rate and median latency, the exact ratios over every answered
/// query, the median set-up and the rounds' peak RSS.
///
/// Every round answers the whole request sequence on a fresh set-up, so
/// the best round leaves no part of the work out: a change that slows
/// any request slows every round. The best of the rounds is what keeps
/// runs together on a shared host whose speed changes for seconds to
/// minutes at a time (see `README.md`): a rate or median over the whole
/// run, or a median over rounds, follows the share of slow spells in the
/// run. The 99th percentile follows the spells under every statistic
/// tried, so a traced run reports it (`bench.latency_p99_ms`, over every
/// request of every round) instead.
fn end_to_end(t: &Timed, v: &Verdicts) -> Metrics {
    let rates = t.rounds.iter().map(|r| r.qps);
    let medians = t.rounds.iter().map(|r| r.p50_ms);
    let mut m = Metrics::default();
    m.push("throughput_qps", rates.fold(0.0, f64::max), "1/s");
    m.push(
        "latency_p50_ms",
        medians.fold(f64::INFINITY, f64::min),
        "ms",
    );
    m.push(
        "resolved_ratio",
        ratio(v.resolved as f64, v.attempted as f64),
        "ratio",
    );
    m.push(
        "proven_ratio",
        ratio(v.proven as f64, v.attempted as f64),
        "ratio",
    );
    m.push("setup_s", median(&t.setup_s), "s");
    m.push("peak_rss_mb", t.rss_mb[2], "MB");
    m
}

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it (no STASUM queries on `dynsum_warm`, no snapshot on
/// `baselines_cold`, …), so every traced run prints the same names.
#[derive(Debug, Default)]
struct Layers {
    requests: f64,
    /// The untraced rounds' tail (see [`end_to_end`]).
    latency_p99_ms: f64,
    wire_parse_ms: f64,
    snapshot_load_ms: f64,
    summaries_restored: f64,
    session_new_ms_stasum: f64,
    /// Per engine, in [`ENGINE_ORDER`].
    edges_per_query: [f64; 4],
    steps_per_query: [f64; 4],
    refinement_iterations: f64,
    cache_hits: f64,
    cache_lookups: f64,
    cache_misses: f64,
    duplicate_ppta_ratio: f64,
    batch_speedup_2t: f64,
    evictions: f64,
    summaries_resident: f64,
    invalidate_ms: (f64, f64),
    invalidated_summaries: f64,
    stale_rejections: f64,
    /// Per baseline engine, in [`BASELINES`] order.
    stream_ms: [f64; 3],
    in_daemon_us: (f64, f64),
    transport_us: (f64, f64),
    invalidate_rtt_us_p50: f64,
    overhead_pct: f64,
}

/// Engine order of the per-engine layer metrics.
const ENGINE_ORDER: [EngineKind; 4] = [
    EngineKind::DynSum,
    EngineKind::NoRefine,
    EngineKind::RefinePts,
    EngineKind::StaSum,
];

impl Layers {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("bench.requests", self.requests, "count");
        m.push("bench.latency_p99_ms", self.latency_p99_ms, "ms");
        m.push("workloads.wire_parse_ms", self.wire_parse_ms, "ms");
        m.push("core.snapshot_load_ms", self.snapshot_load_ms, "ms");
        m.push("core.summaries_restored", self.summaries_restored, "count");
        m.push(
            "core.session_new_ms.stasum",
            self.session_new_ms_stasum,
            "ms",
        );
        for (i, kind) in ENGINE_ORDER.iter().enumerate() {
            let slug = engine_name(*kind);
            m.push(
                format!("cfl.edges_per_query.{slug}"),
                self.edges_per_query[i],
                "edges/query",
            );
            m.push(
                format!("cfl.steps_per_query.{slug}"),
                self.steps_per_query[i],
                "steps/query",
            );
        }
        m.push(
            "cfl.refinement_iterations",
            self.refinement_iterations,
            "iters/query",
        );
        m.push("core.cache_hits", self.cache_hits, "count");
        m.push("core.cache_lookups", self.cache_lookups, "count");
        m.push(
            "core.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_lookups),
            "ratio",
        );
        m.push("core.cache_misses", self.cache_misses, "count");
        m.push(
            "core.duplicate_ppta_ratio",
            self.duplicate_ppta_ratio,
            "ratio",
        );
        m.push("core.batch_speedup_2t", self.batch_speedup_2t, "ratio");
        m.push("core.evictions", self.evictions, "count");
        m.push("core.summaries_resident", self.summaries_resident, "count");
        m.push("core.invalidate_ms.p50", self.invalidate_ms.0, "ms");
        m.push("core.invalidate_ms.p99", self.invalidate_ms.1, "ms");
        m.push(
            "core.invalidated_summaries",
            self.invalidated_summaries,
            "count",
        );
        m.push("core.stale_rejections", self.stale_rejections, "count");
        for (i, kind) in BASELINES.iter().enumerate() {
            m.push(
                format!("core.stream_ms.{}", engine_name(*kind)),
                self.stream_ms[i],
                "ms",
            );
        }
        m.push("service.in_daemon_us.p50", self.in_daemon_us.0, "us");
        m.push("service.in_daemon_us.p99", self.in_daemon_us.1, "us");
        m.push("service.transport_us.p50", self.transport_us.0, "us");
        m.push("service.transport_us.p99", self.transport_us.1, "us");
        m.push(
            "service.invalidate_rtt_us.p50",
            self.invalidate_rtt_us_p50,
            "us",
        );
        m.push("trace.overhead_pct", self.overhead_pct, "%");
        m
    }

    /// Per-engine work counters of a phase whose engine `i` is
    /// `engines[i]`.
    fn set_engine_work(&mut self, engines: &[EngineKind], phase: &PhaseOut) {
        for (i, kind) in engines.iter().enumerate() {
            let at = ENGINE_ORDER
                .iter()
                .position(|k| k == kind)
                .expect("known engine");
            let n = phase.engine_queries[i] as f64;
            self.edges_per_query[at] = ratio(phase.stats[i].edges_traversed as f64, n);
            self.steps_per_query[at] = ratio(phase.stats[i].steps as f64, n);
            if *kind == EngineKind::RefinePts {
                self.refinement_iterations = ratio(phase.stats[i].refinement_iterations as f64, n);
            }
        }
    }
}

/// Per parent span named `parent`, the summed duration (ms) of its
/// children named `child`.
fn per_parent_ms(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    let mut sums: Vec<(u32, f64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == parent)
        .map(|(i, _)| (i as u32, 0.0))
        .collect();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Ok(k) = sums.binary_search_by_key(&s.parent, |(id, _)| *id) {
            sums[k].1 += s.ms();
        }
    }
    sums.into_iter().map(|(_, ms)| ms).collect()
}

/// `(p50, p99)` of the durations (ms) of spans named `name`.
fn span_percentiles(spans: &[Span], name: &str) -> (f64, f64) {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect();
    (percentile(&d, 0.50), percentile(&d, 0.99))
}

fn overhead_pct(untraced_qps: f64, traced_qps: f64) -> f64 {
    ratio(untraced_qps - traced_qps, untraced_qps) * 100.0
}

/// The summary line: rounds, requests (latency samples) per round,
/// queries and timed seconds over all rounds, each round's rate and
/// latency percentiles, the answer digest of a round, and the RSS once the
/// inputs are prepared, its peak during set-up and its peak during the
/// rounds.
fn summary_note(workload: Workload, t: &Timed, requests: usize, digest: u64) -> String {
    let queries: u64 = t.rounds.iter().map(|r| r.queries).sum();
    let timed_s: f64 = t.rounds.iter().map(|r| r.wall_s).sum();
    let list = |f: fn(&Round) -> String| t.rounds.iter().map(f).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"summary\": {{\"workload\": \"{}\", \"rounds\": {}, \"requests_per_round\": {requests}, \
         \"queries\": {queries}, \"timed_s\": {timed_s}, \"round_qps\": [{}], \
         \"round_p50_ms\": [{}], \"round_p99_ms\": [{}], \"answer_digest\": \"{digest:016x}\", \
         \"rss_mb\": {{\"prepared\": {}, \"setup_peak\": {}, \"rounds_peak\": {}}}}}}}",
        workload.name(),
        t.rounds.len(),
        list(|r| format!("{:.0}", r.qps)),
        list(|r| format!("{:.4}", r.p50_ms)),
        list(|r| format!("{:.4}", r.p99_ms)),
        t.rss_mb[0],
        t.rss_mb[1],
        t.rss_mb[2]
    )
}

/// The peak RSS since the last reset, 0 where the platform does not
/// report it.
fn peak_rss() -> f64 {
    host::peak_rss_mb().unwrap_or(0.0)
}

/// Merges a check phase's failures into the run's verdicts without
/// counting its queries twice.
fn absorb_failures(into: &mut Verdicts, other: Verdicts) {
    into.failed += other.failed;
    into.failures.extend(other.failures);
}

/// Plants a wrong NOREFINE reference for the first answered query
/// whose reference resolved (the first query when none did); returns
/// the note naming it.
fn plant(progs: &mut [Prepared], slots: impl Iterator<Item = Slot>) -> String {
    let mut first = None;
    let mut chosen = None;
    for slot in slots {
        first.get_or_insert(slot);
        let p = &progs[slot.program];
        if p.norefine[&p.pool[slot.entry as usize].var].resolved {
            chosen = Some(slot);
            break;
        }
    }
    let slot = chosen.or(first).expect("every workload answers queries");
    let label = plant_wrong_reference(&mut progs[slot.program], slot.entry);
    format!(
        "{{\"planted_wrong_reference\": {}}}",
        report::json_string(&label)
    )
}

/// The answer slots of a batch sequence, in request order.
fn batch_slots(seq: &[BatchRequest]) -> impl Iterator<Item = Slot> + '_ {
    seq.iter().flat_map(|r| {
        r.entries.iter().map(move |&entry| Slot {
            program: r.program,
            engine: 0,
            entry,
        })
    })
}

/// The answer slots of a service client's frames, in request order.
fn frame_slots(frames: &[Frame]) -> impl Iterator<Item = Slot> + '_ {
    frames
        .iter()
        .flat_map(|f| match f {
            Frame::Query(entry) => std::slice::from_ref(entry),
            Frame::Batch(entries) => entries.as_slice(),
            Frame::Invalidate(_) | Frame::Health => &[],
        })
        .map(|&entry| Slot {
            program: 0,
            engine: 0,
            entry,
        })
}

/// What the untraced rounds of a run measured.
struct Timed {
    /// Seconds of each round's set-up repetition.
    setup_s: Vec<f64>,
    /// Each round's rate and latency.
    rounds: Vec<Round>,
    /// The slowest requests over all rounds.
    tail: Tail,
    /// RSS once the inputs were prepared, its peak during the set-up
    /// repetitions and its peak during the rounds.
    rss_mb: [f64; 3],
}

impl Timed {
    /// The median rate of the rounds.
    fn median_qps(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.qps).collect::<Vec<_>>())
    }
}

/// Runs `n` rounds. Every [`SETUP_EVERY`]th round first times one
/// set-up repetition (`setup`); every round answers the request sequence
/// on a fresh set-up (`round`, which also returns every request's
/// latency). Spreading the set-ups over the run exposes them to the same
/// host as the rounds. The peak RSS is reset before every set-up and
/// every round, so the two peaks are told apart and preparation sets
/// neither.
fn timed_rounds(
    n: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut round: impl FnMut() -> Result<(Round, Vec<f64>), String>,
) -> Result<Timed, String> {
    host::reset_peak_rss();
    let mut t = Timed {
        setup_s: Vec::with_capacity(n),
        rounds: Vec::with_capacity(n),
        tail: Tail::new(n),
        rss_mb: [peak_rss(), 0.0, 0.0],
    };
    for i in 0..n {
        if i % SETUP_EVERY == 0 {
            host::reset_peak_rss();
            t.setup_s.push(setup()?);
            t.rss_mb[1] = t.rss_mb[1].max(peak_rss());
        }
        host::reset_peak_rss();
        let (r, latencies_ms) = round()?;
        t.rss_mb[2] = t.rss_mb[2].max(peak_rss());
        t.tail.absorb(&latencies_ms);
        t.rounds.push(r);
    }
    Ok(t)
}

/// `dynsum_warm`. A traced run also replays a cold, capped edit
/// sequence (see [`edit_layers`]).
fn run_dynsum(opts: &Options, size: Size) -> Result<Run, String> {
    let name = opts.workload.name();
    let config = EngineConfig::default();
    let engines = [EngineKind::DynSum];
    let mut progs = check::prepare(&ANALYSIS_PROGRAMS, size.scale, config, &engines)?;

    // The working set of every program, from a cold pass over its
    // queries: restored from a snapshot by the rounds, capped at half
    // by the edit replay.
    let mut snapshots = Vec::new();
    let mut capped = Vec::new();
    for p in &progs {
        let mut session = Session::with_config(&p.work.pag, EngineKind::DynSum, config);
        session.run_batch_vars(&distinct_vars(&p.pool), 1);
        let mut bytes = Vec::new();
        session
            .save_snapshot(&mut bytes)
            .map_err(|e| format!("snapshot: {e}"))?;
        snapshots.push(bytes);
        capped.push(EngineConfig {
            max_cached_summaries: Some((session.summary_count() / 2).max(1)),
            ..config
        });
    }
    let configs = vec![config; progs.len()];
    let pools: Vec<_> = progs.iter().map(|p| p.pool.clone()).collect();
    let seq = batch_sequence(opts.seed, &pools, size.warm_batches, BATCH, None);
    let mut notes = Vec::new();
    if opts.plant {
        notes.push(plant(&mut progs, batch_slots(&seq)));
    }
    let expected = expected_digest(&progs, &engines, batch_slots(&seq));
    let check = |out: &PhaseOut| {
        verify(
            name,
            &progs,
            &engines,
            batch_slots(&seq),
            &out.fingerprints,
            &out.table,
            expected,
        )
    };

    let start = Start::Warm(&snapshots);
    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch, "main");
    let mut off = Tracer::new(false, epoch, "main");
    let mut verdicts = Verdicts::default();
    let mut batch_ms = Vec::with_capacity(size.rounds);
    let t = timed_rounds(
        size.rounds,
        || analysis::setup_dynsum(&progs, start, &configs, &mut tr),
        || {
            let out = analysis::dynsum_phase(&progs, &seq, start, &configs, 1, &mut off)?;
            verdicts.absorb(check(&out));
            batch_ms.push(out.batch_ms);
            Ok((out.round(), out.latencies_ms))
        },
    )?;
    notes.push(summary_note(opts.workload, &t, seq.len(), expected));
    if !opts.trace {
        return Ok(Run {
            metrics: end_to_end(&t, &verdicts),
            verdicts,
            notes,
            tracers: Vec::new(),
        });
    }

    let traced = analysis::dynsum_phase(&progs, &seq, start, &configs, 1, &mut tr)?;
    absorb_failures(&mut verdicts, check(&traced));
    let parallel =
        analysis::dynsum_phase(&progs, &seq, start, &configs, PARALLEL_THREADS, &mut off)?;
    absorb_failures(&mut verdicts, check(&parallel));
    let mut l = Layers {
        requests: seq.len() as f64,
        wire_parse_ms: median(&per_parent_ms(&tr.spans, "setup", "wire.parse_workload")),
        snapshot_load_ms: median(&per_parent_ms(&tr.spans, "setup", "core.load_snapshot")),
        summaries_restored: traced.restored as f64,
        batch_speedup_2t: ratio(median(&batch_ms), parallel.batch_ms),
        latency_p99_ms: t.tail.p99(),
        overhead_pct: overhead_pct(t.median_qps(), traced.round().qps),
        ..Layers::default()
    };
    l.set_engine_work(&engines, &traced);
    drop((traced, parallel));
    absorb_failures(
        &mut verdicts,
        edit_layers(opts, size, &progs, &capped, &mut tr, &mut l)?,
    );
    Ok(Run {
        verdicts,
        metrics: l.metrics(),
        notes,
        tracers: vec![tr],
    })
}

/// The edit replay of a traced `dynsum_warm` run: DYNSUM starts cold
/// with `max_cached_summaries` at half the working set, and a seeded
/// `invalidate_method` follows every batch; the same batches are then
/// replayed at 2 threads. Fills the summary-cache, eviction and edit
/// layers of `l`; returns the replays' check verdicts.
fn edit_layers(
    opts: &Options,
    size: Size,
    progs: &[Prepared],
    capped: &[EngineConfig],
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<Verdicts, String> {
    let name = opts.workload.name();
    let engines = [EngineKind::DynSum];
    let pools: Vec<_> = progs.iter().map(|p| p.pool.clone()).collect();
    let edits: Vec<_> = progs
        .iter()
        .map(|p| queried_methods(&p.work.pag, &p.pool))
        .collect();
    let seq = batch_sequence(opts.seed, &pools, size.edit_batches, BATCH, Some(&edits));
    let expected = expected_digest(progs, &engines, batch_slots(&seq));
    let check = |out: &PhaseOut| {
        verify(
            name,
            progs,
            &engines,
            batch_slots(&seq),
            &out.fingerprints,
            &out.table,
            expected,
        )
    };
    let mut off = Tracer::new(false, Instant::now(), "main");
    let edited = analysis::dynsum_phase(progs, &seq, Start::Cold, capped, 1, tr)?;
    let mut verdicts = check(&edited);
    let parallel =
        analysis::dynsum_phase(progs, &seq, Start::Cold, capped, PARALLEL_THREADS, &mut off)?;
    absorb_failures(&mut verdicts, check(&parallel));
    l.cache_hits = edited.cache.hits as f64;
    l.cache_lookups = edited.cache.lookups() as f64;
    l.cache_misses = edited.cache.misses as f64;
    l.duplicate_ppta_ratio = if edited.cache.misses == 0 {
        0.0
    } else {
        ratio(parallel.cache.misses as f64, edited.cache.misses as f64) - 1.0
    };
    l.evictions = edited.cache.evictions as f64;
    l.summaries_resident = edited.resident as f64;
    l.invalidate_ms = span_percentiles(&tr.spans, "core.invalidate_method");
    l.invalidated_summaries = edited.invalidated as f64;
    l.stale_rejections = edited.stale_rejections as f64;
    Ok(verdicts)
}

/// `baselines_cold`.
fn run_baselines(opts: &Options, size: Size) -> Result<Run, String> {
    let name = opts.workload.name();
    let config = EngineConfig::default();
    let mut progs = check::prepare(&ANALYSIS_PROGRAMS, size.scale, config, &BASELINES)?;
    let plan = analysis::baseline_plan(&progs, size.passes, opts.seed);
    let mut notes = Vec::new();
    if opts.plant {
        let slots: Vec<Slot> = analysis::baseline_slots(&progs, &plan).collect();
        notes.push(plant(&mut progs, slots.into_iter()));
    }
    let expected = expected_digest(&progs, &BASELINES, analysis::baseline_slots(&progs, &plan));
    let check = |out: &PhaseOut| {
        verify(
            name,
            &progs,
            &BASELINES,
            analysis::baseline_slots(&progs, &plan),
            &out.fingerprints,
            &out.table,
            expected,
        )
    };

    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch, "main");
    let mut off = Tracer::new(false, epoch, "main");
    let mut verdicts = Verdicts::default();
    let mut requests = 0;
    let t = timed_rounds(
        size.rounds,
        || Ok(analysis::setup_baselines(&progs, config, &mut tr)),
        || {
            let out = analysis::baselines_phase(&progs, &plan, config, &mut off);
            verdicts.absorb(check(&out));
            requests = out.latencies_ms.len();
            Ok((out.round(), out.latencies_ms))
        },
    )?;
    notes.push(summary_note(opts.workload, &t, requests, expected));
    if !opts.trace {
        return Ok(Run {
            metrics: end_to_end(&t, &verdicts),
            verdicts,
            notes,
            tracers: Vec::new(),
        });
    }

    let traced = analysis::baselines_phase(&progs, &plan, config, &mut tr);
    absorb_failures(&mut verdicts, check(&traced));
    let spans = &tr.spans;
    let mut l = Layers {
        requests: requests as f64,
        wire_parse_ms: median(&per_parent_ms(spans, "setup", "wire.parse_workload")),
        session_new_ms_stasum: median(&per_parent_ms(spans, "setup", "core.session_new.stasum")),
        summaries_resident: traced.resident as f64,
        stale_rejections: traced.stale_rejections as f64,
        latency_p99_ms: t.tail.p99(),
        overhead_pct: overhead_pct(t.median_qps(), traced.round().qps),
        ..Layers::default()
    };
    for (i, span) in analysis::STREAMS_SPANS.iter().enumerate() {
        l.stream_ms[i] = median(&per_parent_ms(spans, "baselines.pass", span));
    }
    l.set_engine_work(&BASELINES, &traced);
    Ok(Run {
        verdicts,
        metrics: l.metrics(),
        notes,
        tracers: vec![tr],
    })
}

/// `service_mix`.
fn run_service(opts: &Options, size: Size) -> Result<Run, String> {
    let name = opts.workload.name();
    let config = EngineConfig::default();
    let engines = [EngineKind::DynSum];
    let mut progs = check::prepare(&[SERVICE_PROGRAM], size.service_scale, config, &engines)?;
    let methods = queried_methods(&progs[0].work.pag, &progs[0].pool);
    let plans: Vec<Vec<Frame>> = (0..service::CLIENTS)
        .map(|c| {
            frame_sequence(
                opts.seed,
                c as u64,
                progs[0].pool.len(),
                &methods,
                size.frames,
                SERVICE_BATCH,
            )
        })
        .collect();
    let mut notes = Vec::new();
    if opts.plant {
        notes.push(plant(&mut progs, frame_slots(&plans[0])));
    }
    let expected: Vec<u64> = plans
        .iter()
        .map(|p| expected_digest(&progs, &engines, frame_slots(p)))
        .collect();
    let prog = &progs[0];
    let judge = |out: &service::ServiceOut| -> Verdicts {
        let mut v = Verdicts::default();
        for (c, log) in out.clients.iter().enumerate() {
            let mut cv = verify(
                name,
                &progs,
                &engines,
                frame_slots(&plans[c]),
                &log.fingerprints,
                &log.table,
                expected[c],
            );
            cv.failed += log.errors.len() as u64;
            cv.failures.extend(
                log.errors
                    .iter()
                    .map(|e| format!("workload {name}, client {c}: {e}")),
            );
            v.absorb(cv);
        }
        v
    };

    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch, "main");
    let mut off: Vec<Tracer> = ["client0", "client1", "daemon"]
        .iter()
        .map(|t| Tracer::new(false, epoch, t))
        .collect();
    let mut verdicts = Verdicts::default();
    let t = timed_rounds(
        size.rounds,
        || service::setup_service(prog, config, &mut tr),
        || {
            let out = service::service_phase(prog, &plans, config, &mut off)?;
            verdicts.absorb(judge(&out));
            Ok((out.round(), out.latencies_ms()))
        },
    )?;
    let requests = plans.iter().map(Vec::len).sum();
    let digest = expected.iter().fold(0, |d, e| d ^ e);
    notes.push(summary_note(opts.workload, &t, requests, digest));
    if !opts.trace {
        return Ok(Run {
            metrics: end_to_end(&t, &verdicts),
            verdicts,
            notes,
            tracers: Vec::new(),
        });
    }

    let mut on: Vec<Tracer> = ["client0", "client1", "daemon"]
        .iter()
        .map(|t| Tracer::new(true, epoch, t))
        .collect();
    let traced = service::service_phase(prog, &plans, config, &mut on)?;
    absorb_failures(&mut verdicts, judge(&traced));
    let traced_queries: u64 = traced.clients.iter().map(|c| c.queries).sum();
    let held: Vec<f64> = traced.in_daemon_us.iter().flatten().copied().collect();
    let transport: Vec<f64> = traced
        .clients
        .iter()
        .zip(&traced.in_daemon_us)
        .flat_map(|(c, held)| c.rtt_us.iter().zip(held).map(|(rtt, h)| rtt - h))
        .collect();
    let invalidate_rtt: Vec<f64> = traced
        .clients
        .iter()
        .zip(&plans)
        .flat_map(|(c, frames)| {
            c.rtt_us
                .iter()
                .zip(frames)
                .filter(|(_, f)| matches!(f, Frame::Invalidate(_)))
                .map(|(rtt, _)| *rtt)
        })
        .collect();
    let edges: u64 = traced.clients.iter().map(|c| c.edges).sum();
    let mut l = Layers {
        requests: requests as f64,
        wire_parse_ms: median(&per_parent_ms(&tr.spans, "setup", "wire.parse_workload")),
        invalidated_summaries: traced.clients.iter().map(|c| c.invalidated).sum::<u64>() as f64,
        stale_rejections: traced
            .clients
            .iter()
            .map(|c| c.stale_rejections)
            .max()
            .unwrap_or(0) as f64,
        in_daemon_us: (percentile(&held, 0.50), percentile(&held, 0.99)),
        transport_us: (percentile(&transport, 0.50), percentile(&transport, 0.99)),
        invalidate_rtt_us_p50: percentile(&invalidate_rtt, 0.50),
        latency_p99_ms: t.tail.p99(),
        overhead_pct: overhead_pct(t.median_qps(), traced.round().qps),
        ..Layers::default()
    };
    l.edges_per_query[0] = ratio(edges as f64, traced_queries as f64);
    let mut tracers = vec![tr];
    tracers.extend(on);
    Ok(Run {
        verdicts,
        metrics: l.metrics(),
        notes,
        tracers,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("oracle") {
        return match check::oracle_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("layerbench oracle: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::measure(opts.seed);
    println!("{{\"host\": {}}}", host.to_json());
    let size = Size::of(&opts);
    let run = match opts.workload {
        Workload::DynsumWarm => run_dynsum(&opts, size),
        Workload::BaselinesCold => run_baselines(&opts, size),
        Workload::ServiceMix => run_service(&opts, size),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench: workload {}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    for note in &run.notes {
        println!("{note}");
    }
    if opts.trace {
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        let header = format!(
            "{{\"workload\": \"{}\", \"host\": {}}}",
            opts.workload.name(),
            host.to_json()
        );
        let tracers: Vec<&Tracer> = run.tracers.iter().collect();
        if let Err(e) = trace::write_spans(&path, &header, &tracers) {
            eprintln!("layerbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let v = &run.verdicts;
    let correct = v.failed == 0 && v.failures.is_empty() && v.attempted > 0;
    for failure in v.failures.iter().take(20) {
        eprintln!("answer check failed: {failure}");
    }
    if v.failures.len() > 20 {
        eprintln!("answer check failed: … and {} more", v.failures.len() - 20);
    }
    println!(
        "{}",
        result_line(correct, v.attempted, v.failed, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let o = parse_options(&args(
            "--workload service_mix --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::ServiceMix);
        assert_eq!((o.seed, o.seconds, o.trace, o.tiny), (3, 5, true, false));
        assert!(parse_options(&args("--workload nope --seed 3 --seconds 5 --trace 1")).is_err());
        assert!(parse_options(&args(
            "--workload service_mix --seed 3 --seconds 0 --trace 1"
        ))
        .is_err());
        assert!(parse_options(&args("--workload service_mix --seed 3 --seconds 5")).is_err());
    }

    #[test]
    fn per_parent_sums_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: trace::NO_REQUEST,
        };
        let spans = vec![
            span("setup", 0, 10_000_000, trace::NO_SPAN),
            span("parse", 0, 2_000_000, 0),
            span("parse", 2_000_000, 5_000_000, 0),
            span("setup", 10_000_000, 20_000_000, trace::NO_SPAN),
        ];
        assert_eq!(per_parent_ms(&spans, "setup", "parse"), vec![5.0, 0.0]);
    }
}
