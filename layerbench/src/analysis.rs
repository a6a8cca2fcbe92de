//! The in-process workloads: set-up and timed phases over `Session`.
//!
//! Every call into the library that a layer metric attributes is made
//! here and, in a traced phase, wrapped in a span: `parse_workload`,
//! `Session::{load_snapshot, with_config, run_batch, invalidate_method,
//! cache_stats, health}`.

use std::time::Instant;

use dynsum_cfl::{PointsToSet, QueryStats};
use dynsum_clients::site_satisfied;
use dynsum_core::{CacheStats, EngineConfig, EngineKind, Session, SessionQuery};
use dynsum_workloads::wire::parse_workload;
use dynsum_workloads::Workload;

use crate::check::{AnswerTable, Prepared, Slot};
use crate::inputs::{client_streams, BatchRequest, Rng};
use crate::report::Round;
use crate::trace::{SpanId, Tracer, NO_REQUEST, NO_SPAN};

/// The comparison engines of `baselines_cold`, in stream order.
pub const BASELINES: [EngineKind; 3] = [
    EngineKind::NoRefine,
    EngineKind::RefinePts,
    EngineKind::StaSum,
];

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How a DYNSUM session starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// Restored from each program's snapshot bytes.
    Warm(&'a [Vec<u8>]),
    /// Cold, under each program's configuration.
    Cold,
}

/// What one timed phase measured and answered.
#[derive(Debug)]
pub struct PhaseOut {
    /// Wall time of the timed loop.
    pub wall_s: f64,
    /// Queries answered.
    pub queries: u64,
    /// Every request's latency (one `run_batch` call), in request order.
    pub latencies_ms: Vec<f64>,
    /// Time inside `run_batch` calls.
    pub batch_ms: f64,
    /// Every answer's fingerprint, in request order.
    pub fingerprints: Vec<u64>,
    /// First answer of each distinct query.
    pub table: AnswerTable,
    /// Work counters per engine index.
    pub stats: Vec<QueryStats>,
    /// Queries per engine index.
    pub engine_queries: Vec<u64>,
    /// Summary-cache counters accumulated during the loop.
    pub cache: CacheStats,
    /// Summaries held at the end.
    pub resident: u64,
    /// Stale shard entries rejected during the loop.
    pub stale_rejections: u64,
    /// Summaries evicted by edits.
    pub invalidated: u64,
    /// Summaries restored from snapshots at set-up.
    pub restored: u64,
}

impl PhaseOut {
    fn new(progs: &[Prepared], engines: usize) -> PhaseOut {
        PhaseOut {
            wall_s: 0.0,
            queries: 0,
            latencies_ms: Vec::new(),
            batch_ms: 0.0,
            fingerprints: Vec::new(),
            table: AnswerTable::new(progs, engines),
            stats: vec![QueryStats::default(); engines],
            engine_queries: vec![0; engines],
            cache: CacheStats::default(),
            resident: 0,
            stale_rejections: 0,
            invalidated: 0,
            restored: 0,
        }
    }

    /// The phase's rate and latency.
    pub fn round(&self) -> Round {
        Round::new(self.queries, self.wall_s, &self.latencies_ms)
    }

    fn answer(&mut self, slot: Slot, r: dynsum_cfl::QueryResult) {
        self.queries += 1;
        self.engine_queries[slot.engine] += 1;
        self.stats[slot.engine].absorb(&r.stats);
        self.fingerprints.push(r.fingerprint());
        self.table.offer(slot, r);
    }
}

/// Parses every program's document (the wire layer, CSR freeze
/// included).
fn parse_all(progs: &[Prepared], tr: &mut Tracer, parent: SpanId) -> Vec<Workload> {
    progs
        .iter()
        .map(|p| {
            let span = tr.open("wire.parse_workload", parent, NO_REQUEST);
            let work = parse_workload(&p.text).expect("prepared documents parse");
            tr.close(span);
            work
        })
        .collect()
}

/// Opens one DYNSUM session per program; returns the summaries
/// restored from snapshots.
fn open_dynsum<'w>(
    works: &'w [Workload],
    start: Start<'_>,
    configs: &[EngineConfig],
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<(Vec<Session<'w>>, u64), String> {
    let mut restored = 0u64;
    let mut sessions = Vec::with_capacity(works.len());
    for (i, w) in works.iter().enumerate() {
        let session = match start {
            Start::Warm(snapshots) => {
                let span = tr.open("core.load_snapshot", parent, NO_REQUEST);
                let (session, load) = Session::load_snapshot(
                    &snapshots[i][..],
                    &w.pag,
                    EngineKind::DynSum,
                    configs[i],
                );
                tr.close(span);
                if let Some(reason) = load.reject() {
                    return Err(format!("{}: snapshot rejected: {reason}", w.name));
                }
                restored += load.summaries() as u64;
                session
            }
            Start::Cold => {
                let span = tr.open("core.session_new.dynsum", parent, NO_REQUEST);
                let session = Session::with_config(&w.pag, EngineKind::DynSum, configs[i]);
                tr.close(span);
                session
            }
        };
        sessions.push(session);
    }
    Ok((sessions, restored))
}

/// Opens every baseline engine's session on every program.
fn open_baselines<'w>(
    works: &'w [Workload],
    config: EngineConfig,
    tr: &mut Tracer,
    parent: SpanId,
) -> Vec<Vec<Session<'w>>> {
    works
        .iter()
        .map(|w| {
            BASELINES
                .iter()
                .zip(SESSION_NEW_SPANS)
                .map(|(&kind, name)| {
                    let span = tr.open(name, parent, NO_REQUEST);
                    let session = Session::with_config(&w.pag, kind, config);
                    tr.close(span);
                    session
                })
                .collect()
        })
        .collect()
}

/// Span names of opening a session of each engine of [`BASELINES`].
const SESSION_NEW_SPANS: [&str; 3] = [
    "core.session_new.norefine",
    "core.session_new.refinepts",
    "core.session_new.stasum",
];

/// Span names of one pass's streams on each engine of [`BASELINES`].
pub const STREAMS_SPANS: [&str; 3] = [
    "baselines.streams.norefine",
    "baselines.streams.refinepts",
    "baselines.streams.stasum",
];

/// Times one set-up of the DYNSUM workloads (parse every program, open
/// its session); returns seconds.
pub fn setup_dynsum(
    progs: &[Prepared],
    start: Start<'_>,
    configs: &[EngineConfig],
    tr: &mut Tracer,
) -> Result<f64, String> {
    let rep = tr.open("setup", NO_SPAN, NO_REQUEST);
    let started = Instant::now();
    let works = parse_all(progs, tr, rep);
    let (sessions, _) = open_dynsum(&works, start, configs, tr, rep)?;
    let took = started.elapsed().as_secs_f64();
    tr.close(rep);
    drop(sessions);
    Ok(took)
}

/// Times one set-up of `baselines_cold` (parse every program, open
/// every baseline session, STASUM's precompute included); returns
/// seconds.
pub fn setup_baselines(progs: &[Prepared], config: EngineConfig, tr: &mut Tracer) -> f64 {
    let rep = tr.open("setup", NO_SPAN, NO_REQUEST);
    let started = Instant::now();
    let works = parse_all(progs, tr, rep);
    let sessions = open_baselines(&works, config, tr, rep);
    let took = started.elapsed().as_secs_f64();
    tr.close(rep);
    drop(sessions);
    took
}

/// Totals of every session's summary-cache counters.
fn cache_totals(sessions: &[Session<'_>], tr: &mut Tracer, parent: SpanId) -> CacheStats {
    let span = tr.open("core.cache_stats", parent, NO_REQUEST);
    let total = sessions.iter().fold(CacheStats::default(), |acc, s| {
        let c = s.cache_stats();
        CacheStats {
            hits: acc.hits + c.hits,
            misses: acc.misses + c.misses,
            evictions: acc.evictions + c.evictions,
        }
    });
    tr.close(span);
    total
}

/// Sets up fresh DYNSUM sessions and answers `seq` on them, one
/// closed-loop caller, `run_batch` at `threads` threads; edits follow
/// the batches that carry one.
pub fn dynsum_phase(
    progs: &[Prepared],
    seq: &[BatchRequest],
    start: Start<'_>,
    configs: &[EngineConfig],
    threads: usize,
    tr: &mut Tracer,
) -> Result<PhaseOut, String> {
    let phase = tr.open("phase", NO_SPAN, NO_REQUEST);
    let works = parse_all(progs, tr, phase);
    let (mut sessions, restored) = open_dynsum(&works, start, configs, tr, phase)?;
    let mut out = PhaseOut::new(progs, 1);
    out.restored = restored;
    out.latencies_ms.reserve(seq.len());
    out.fingerprints
        .reserve(seq.iter().map(|r| r.entries.len()).sum());
    let before = cache_totals(&sessions, tr, phase);
    let mut queries: Vec<SessionQuery<'static>> = Vec::new();
    let started = Instant::now();
    for (rid, req) in seq.iter().enumerate() {
        let prog = &progs[req.program];
        queries.clear();
        queries.extend(
            req.entries
                .iter()
                .map(|&e| SessionQuery::new(prog.pool[e as usize].var)),
        );
        let span = tr.open("core.run_batch", phase, rid as u64);
        let sent = Instant::now();
        let results = sessions[req.program].run_batch(&queries, threads);
        let done = Instant::now();
        tr.close(span);
        let took = ms(done - sent);
        out.latencies_ms.push(took);
        out.batch_ms += took;
        for (&entry, r) in req.entries.iter().zip(results) {
            let slot = Slot {
                program: req.program,
                engine: 0,
                entry,
            };
            out.answer(slot, r);
        }
        if let Some(method) = req.invalidate {
            let span = tr.open("core.invalidate_method", phase, rid as u64);
            out.invalidated += sessions[req.program].invalidate_method(method) as u64;
            tr.close(span);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let after = cache_totals(&sessions, tr, phase);
    out.cache = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    };
    let span = tr.open("core.health", phase, NO_REQUEST);
    out.stale_rejections = sessions.iter().map(|s| s.health().stale_rejections).sum();
    tr.close(span);
    out.resident = sessions.iter().map(|s| s.summary_count() as u64).sum();
    tr.close(phase);
    Ok(out)
}

/// One client stream answered by one engine on one program.
#[derive(Debug, Clone, Copy)]
pub struct StreamRun {
    /// Program index.
    pub program: usize,
    /// Engine index into [`BASELINES`].
    pub engine: usize,
    /// Client stream index (see [`client_streams`]).
    pub stream: usize,
    /// Position the stream starts at (it wraps around).
    pub offset: usize,
}

/// The `baselines_cold` plan: `passes` passes, each answering every
/// client stream of every program on every baseline engine, in order,
/// from a seeded starting position.
pub fn baseline_plan(progs: &[Prepared], passes: usize, seed: u64) -> Vec<Vec<StreamRun>> {
    let mut rng = Rng::new(seed, 2);
    let streams: Vec<Vec<Vec<u32>>> = progs.iter().map(|p| client_streams(&p.pool)).collect();
    (0..passes)
        .map(|_| {
            let mut runs = Vec::new();
            for (program, prog_streams) in streams.iter().enumerate() {
                for engine in 0..BASELINES.len() {
                    for (stream, entries) in prog_streams.iter().enumerate() {
                        if entries.is_empty() {
                            continue;
                        }
                        let offset = rng.below(entries.len());
                        runs.push(StreamRun {
                            program,
                            engine,
                            stream,
                            offset,
                        });
                    }
                }
            }
            runs
        })
        .collect()
}

/// The answer slots of a baseline plan, in request order.
pub fn baseline_slots<'a>(
    progs: &'a [Prepared],
    plan: &'a [Vec<StreamRun>],
) -> impl Iterator<Item = Slot> + 'a {
    let streams: Vec<Vec<Vec<u32>>> = progs.iter().map(|p| client_streams(&p.pool)).collect();
    plan.iter().flatten().flat_map(move |run| {
        let entries = streams[run.program][run.stream].clone();
        let n = entries.len();
        (0..n).map(move |k| Slot {
            program: run.program,
            engine: run.engine,
            entry: entries[(run.offset + k) % n],
        })
    })
}

/// Sets up fresh baseline sessions and answers the plan, one query per
/// `run_batch` call at one thread, each with its client's predicate
/// (REFINEPTS stops refining once it holds, as in Table 4).
pub fn baselines_phase(
    progs: &[Prepared],
    plan: &[Vec<StreamRun>],
    config: EngineConfig,
    tr: &mut Tracer,
) -> PhaseOut {
    let phase = tr.open("phase", NO_SPAN, NO_REQUEST);
    let works = parse_all(progs, tr, phase);
    let mut sessions = open_baselines(&works, config, tr, phase);
    let streams: Vec<Vec<Vec<u32>>> = progs.iter().map(|p| client_streams(&p.pool)).collect();
    type Check<'w> = Box<dyn Fn(&PointsToSet) -> bool + Sync + 'w>;
    let checks: Vec<Vec<Check<'_>>> = progs
        .iter()
        .zip(&works)
        .map(|(p, w)| {
            p.pool
                .iter()
                .map(|e| {
                    let site = e.site.clone();
                    let pag = &w.pag;
                    Box::new(move |pts: &PointsToSet| site_satisfied(pag, &site, pts)) as Check<'_>
                })
                .collect()
        })
        .collect();
    let mut out = PhaseOut::new(progs, BASELINES.len());
    let total: usize = plan
        .iter()
        .flatten()
        .map(|r| streams[r.program][r.stream].len())
        .sum();
    out.latencies_ms.reserve(total);
    out.fingerprints.reserve(total);
    let mut rid = 0u64;
    let started = Instant::now();
    for pass in plan {
        let pass_span = tr.open("baselines.pass", phase, NO_REQUEST);
        for run in pass {
            let prog = &progs[run.program];
            let session = &mut sessions[run.program][run.engine];
            let entries = &streams[run.program][run.stream];
            let stream_span = tr.open(STREAMS_SPANS[run.engine], pass_span, NO_REQUEST);
            for k in 0..entries.len() {
                let entry = entries[(run.offset + k) % entries.len()];
                let var = prog.pool[entry as usize].var;
                let query = [SessionQuery::with_check(
                    var,
                    &*checks[run.program][entry as usize],
                )];
                let span = tr.open("core.run_batch", stream_span, rid);
                let sent = Instant::now();
                let mut results = session.run_batch(&query, 1);
                let done = Instant::now();
                tr.close(span);
                let took = ms(done - sent);
                out.latencies_ms.push(took);
                out.batch_ms += took;
                rid += 1;
                let r = results.pop().expect("one result per query");
                let slot = Slot {
                    program: run.program,
                    engine: run.engine,
                    entry,
                };
                out.answer(slot, r);
            }
            tr.close(stream_span);
        }
        tr.close(pass_span);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let span = tr.open("core.health", phase, NO_REQUEST);
    out.stale_rejections = sessions
        .iter()
        .flatten()
        .map(|s| s.health().stale_rejections)
        .sum();
    tr.close(span);
    out.resident = sessions
        .iter()
        .flatten()
        .map(|s| s.summary_count() as u64)
        .sum();
    tr.close(phase);
    out
}
