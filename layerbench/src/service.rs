//! `service_mix`: two closed-loop clients on one daemon over
//! socketpairs, served by `serve_pair`.
//!
//! In a traced phase the daemon's stream halves are wrapped so every
//! line read and every reply flushed is timestamped; per connection the
//! k-th reply answers the k-th line (each client waits for its reply),
//! so the pair gives the time the daemon held each frame.

use std::io::{BufRead as _, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use dynsum_cfl::{CtxId, Outcome, PointsToSet, QueryResult, QueryStats};
use dynsum_core::EngineConfig;
use dynsum_pag::ObjId;
use dynsum_service::json::{parse, Json};
use dynsum_service::{serve_pair, Daemon, ServedWorkload, ServiceConfig};
use dynsum_workloads::wire::parse_workload;

use crate::check::{AnswerTable, Prepared, Slot};
use crate::inputs::Frame;
use crate::report::Round;
use crate::trace::{Tracer, NO_REQUEST, NO_SPAN};

/// Connections (and client threads) of the workload.
pub const CLIENTS: usize = 2;

/// Request id of a client's first timed frame.
const FIRST_ID: u64 = 1_000;

/// Timestamps shared between a wrapped stream half and the benchmark.
type Stamps = Arc<Mutex<Vec<Instant>>>;

/// A daemon-side stream half that timestamps each line it delivers
/// (read side) or each frame it flushes (write side).
struct Stamped<S> {
    inner: S,
    stamps: Stamps,
}

impl<R: Read> Read for Stamped<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        let lines = buf[..n].iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            let mut stamps = self.stamps.lock().expect("stamp lock is never poisoned");
            stamps.extend(std::iter::repeat(now).take(lines));
        }
        Ok(n)
    }
}

impl<W: Write> Write for Stamped<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        let now = Instant::now();
        self.stamps
            .lock()
            .expect("stamp lock is never poisoned")
            .push(now);
        Ok(())
    }
}

/// One client's view of a phase.
#[derive(Debug)]
pub struct ClientLog {
    /// Round trip of every timed frame, in microseconds.
    pub rtt_us: Vec<f64>,
    /// Fingerprint of every answer, in request order.
    pub fingerprints: Vec<u64>,
    /// First answer of each distinct query.
    pub table: AnswerTable,
    /// Frames answered with an error or an unreadable reply.
    pub errors: Vec<String>,
    /// Queries answered.
    pub queries: u64,
    /// Edges the daemon reported for this client's answers.
    pub edges: u64,
    /// Summaries the client's invalidations evicted.
    pub invalidated: u64,
    /// The session's stale rejections, as of the last health report.
    pub stale_rejections: u64,
    /// When the timed frames started and ended.
    pub span: (Instant, Instant),
}

/// What one service phase measured.
#[derive(Debug)]
pub struct ServiceOut {
    /// Wall time from both clients' start to the last reply.
    pub wall_s: f64,
    /// Per-client logs.
    pub clients: Vec<ClientLog>,
    /// Daemon hold time of every timed frame (traced phases), per
    /// client, in microseconds.
    pub in_daemon_us: Vec<Vec<f64>>,
}

impl ServiceOut {
    /// The phase's rate and latency (a frame is one request).
    pub fn round(&self) -> Round {
        let queries = self.clients.iter().map(|c| c.queries).sum();
        Round::new(queries, self.wall_s, &self.latencies_ms())
    }

    /// Every timed frame's round trip in milliseconds, client by client.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.rtt_us.iter().map(|us| us / 1e3))
            .collect()
    }
}

/// Renders one frame as a request line.
fn render(frame: &Frame, id: u64, prog: &Prepared) -> String {
    let var = |e: &u32| prog.pool[*e as usize].var.as_raw().to_string();
    match frame {
        Frame::Query(e) => format!("{{\"op\":\"query\",\"id\":{id},\"var\":{}}}\n", var(e)),
        Frame::Batch(entries) => {
            let vars: Vec<String> = entries.iter().map(var).collect();
            format!(
                "{{\"op\":\"batch\",\"id\":{id},\"vars\":[{}]}}\n",
                vars.join(",")
            )
        }
        Frame::Invalidate(m) => {
            format!("{{\"op\":\"invalidate_method\",\"id\":{id},\"method\":{m}}}\n")
        }
        Frame::Health => format!("{{\"op\":\"health\",\"id\":{id}}}\n"),
    }
}

fn hello_line(client: usize, workload: &str) -> String {
    format!(
        "{{\"op\":\"hello\",\"id\":1,\"name\":\"bench{client}\",\"engine\":\"dynsum\",\"workload\":\"{workload}\"}}\n"
    )
}

/// Decodes one wire result object, checking its fingerprint against
/// the one recomputed from the decoded points-to set.
fn decode_result(j: &Json) -> Result<QueryResult, String> {
    let outcome = match j.get("outcome").and_then(Json::as_str) {
        Some("resolved") => Outcome::Resolved,
        Some("over-budget") => Outcome::OverBudget,
        Some("cancelled") => Outcome::Cancelled,
        Some("deadline-exceeded") => Outcome::DeadlineExceeded,
        Some("panicked") => Outcome::Panicked,
        other => return Err(format!("unknown outcome {other:?}")),
    };
    let mut pts = PointsToSet::new();
    for pair in j.get("pts").and_then(Json::as_arr).ok_or("missing pts")? {
        let ids = pair.as_arr().ok_or("malformed pts entry")?;
        let id = |k: usize| {
            ids.get(k)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("malformed pts entry")
        };
        pts.insert(ObjId::from_raw(id(0)?), CtxId::from_raw(id(1)?));
    }
    let stats = QueryStats {
        edges_traversed: j.get("edges").and_then(Json::as_u64).unwrap_or(0),
        ..QueryStats::default()
    };
    let result = QueryResult {
        pts,
        resolved: outcome == Outcome::Resolved,
        outcome,
        stats,
    };
    let wire_fp = j.get("fingerprint").and_then(Json::as_str).unwrap_or("");
    if wire_fp != format!("{:016x}", result.fingerprint()) {
        return Err(format!(
            "wire fingerprint {wire_fp} does not match the decoded answer"
        ));
    }
    Ok(result)
}

/// Sends `hello` and checks the daemon accepted it.
fn handshake(
    writer: &mut impl Write,
    reader: &mut impl std::io::BufRead,
    client: usize,
    workload: &str,
) -> Result<(), String> {
    writer
        .write_all(hello_line(client, workload).as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    match parse(reply.trim_end()) {
        Ok(j) if j.get("ok").and_then(Json::as_bool) == Some(true) => Ok(()),
        _ => Err(format!("hello refused: {}", reply.trim_end())),
    }
}

/// Plays one closed-loop client: hello, then its frames, each sent only
/// once the previous reply arrived.
fn client_loop(
    stream: UnixStream,
    client: usize,
    frames: &[Frame],
    prog: &Prepared,
    start: &Barrier,
    tr: &mut Tracer,
) -> Result<ClientLog, String> {
    let reader = stream.try_clone().map_err(|e| e.to_string());
    let mut writer = stream;
    let mut reader = reader.map(BufReader::new);
    let hello = match &mut reader {
        Ok(reader) => handshake(&mut writer, reader, client, prog.name),
        Err(e) => Err(e.clone()),
    };
    // Both clients pass the barrier even when their set-up failed, so
    // neither waits forever for the other.
    start.wait();
    hello?;
    let mut reader = reader?;
    let mut reply = String::new();
    let mut log = ClientLog {
        rtt_us: Vec::with_capacity(frames.len()),
        fingerprints: Vec::new(),
        table: AnswerTable::new(std::slice::from_ref(prog), 1),
        errors: Vec::new(),
        queries: 0,
        edges: 0,
        invalidated: 0,
        stale_rejections: 0,
        span: (Instant::now(), Instant::now()),
    };
    start.wait();
    let started = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        let id = FIRST_ID + i as u64;
        let line = render(frame, id, prog);
        reply.clear();
        let span = tr.open("service.round_trip", NO_SPAN, id);
        let sent = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let done = Instant::now();
        tr.close(span);
        log.rtt_us.push((done - sent).as_secs_f64() * 1e6);
        if let Err(why) = absorb_reply(&mut log, frame, id, &reply) {
            log.errors.push(format!("frame {id}: {why}"));
        }
    }
    log.span = (started, Instant::now());
    Ok(log)
}

/// Records one reply's answers (or its error) in the client's log.
fn absorb_reply(log: &mut ClientLog, frame: &Frame, id: u64, reply: &str) -> Result<(), String> {
    let j = parse(reply.trim_end()).map_err(|e| format!("unreadable reply: {e:?}"))?;
    if j.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("reply carries the wrong id: {}", reply.trim_end()));
    }
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {}", reply.trim_end()));
    }
    let answer = |log: &mut ClientLog, entry: u32, r: &Json| -> Result<(), String> {
        let result = decode_result(r)?;
        log.queries += 1;
        log.edges += result.stats.edges_traversed;
        log.fingerprints.push(result.fingerprint());
        let slot = Slot {
            program: 0,
            engine: 0,
            entry,
        };
        log.table.offer(slot, result);
        Ok(())
    };
    match frame {
        Frame::Query(entry) => answer(log, *entry, j.get("result").ok_or("missing result")?),
        Frame::Batch(entries) => {
            let results = j
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("missing results")?;
            if results.len() != entries.len() {
                return Err(format!(
                    "{} results for {} vars",
                    results.len(),
                    entries.len()
                ));
            }
            entries
                .iter()
                .zip(results)
                .try_for_each(|(e, r)| answer(log, *e, r))
        }
        Frame::Invalidate(_) => {
            log.invalidated += j
                .get("evicted")
                .and_then(Json::as_u64)
                .ok_or("missing evicted")?;
            Ok(())
        }
        Frame::Health => {
            log.stale_rejections = j
                .get("session")
                .and_then(|s| s.get("stale_rejections"))
                .and_then(Json::as_u64)
                .ok_or("missing session health")?;
            Ok(())
        }
    }
}

/// The daemon configuration of the workload.
fn service_config(config: EngineConfig) -> ServiceConfig {
    ServiceConfig {
        engine_config: config,
        ..ServiceConfig::default()
    }
}

/// Times one daemon set-up: parse the program, create the daemon,
/// start `serve_pair` on two connections and complete both `hello`
/// handshakes (which opens the shared session); returns seconds.
pub fn setup_service(
    prog: &Prepared,
    config: EngineConfig,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let rep = tr.open("setup", NO_SPAN, NO_REQUEST);
    let started = Instant::now();
    let span = tr.open("wire.parse_workload", rep, NO_REQUEST);
    let work = parse_workload(&prog.text).map_err(|e| e.to_string())?;
    tr.close(span);
    let span = tr.open("service.daemon_new", rep, NO_REQUEST);
    let served = vec![ServedWorkload {
        name: prog.name,
        pag: &work.pag,
    }];
    let mut daemon = Daemon::new(served, service_config(config));
    tr.close(span);
    let (clients, conns) = socket_pairs()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_pair(&mut daemon, conns));
        let span = tr.open("service.hello", rep, NO_REQUEST);
        let handshakes: Result<(), String> =
            clients.iter().enumerate().try_for_each(|(i, stream)| {
                let mut writer = stream;
                handshake(&mut writer, &mut BufReader::new(stream), i, prog.name)
            });
        let took = started.elapsed().as_secs_f64();
        tr.close(span);
        tr.close(rep);
        drop(clients);
        server.join().expect("the daemon loop does not panic");
        handshakes.map(|()| took)
    })
}

type Conn = (UnixStream, UnixStream);

/// Client ends and daemon (read, write) halves of [`CLIENTS`]
/// socketpairs.
fn socket_pairs() -> Result<(Vec<UnixStream>, Vec<Conn>), String> {
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut conns = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let (client, server) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        let read_half = server.try_clone().map_err(|e| e.to_string())?;
        clients.push(client);
        conns.push((read_half, server));
    }
    Ok((clients, conns))
}

/// Sets up a fresh daemon and plays every client's frames against it.
/// `tracers` holds one tracer per client plus one for the daemon's
/// hold times; they are enabled together or not at all.
pub fn service_phase(
    prog: &Prepared,
    plans: &[Vec<Frame>],
    config: EngineConfig,
    tracers: &mut [Tracer],
) -> Result<ServiceOut, String> {
    let traced = tracers[0].enabled();
    let work = parse_workload(&prog.text).map_err(|e| e.to_string())?;
    let served = vec![ServedWorkload {
        name: prog.name,
        pag: &work.pag,
    }];
    let mut daemon = Daemon::new(served, service_config(config));
    let (clients, conns) = socket_pairs()?;
    let stamps: Vec<(Stamps, Stamps)> = (0..CLIENTS).map(|_| Default::default()).collect();
    let start = Barrier::new(CLIENTS);
    let (client_tracers, daemon_tracer) = tracers.split_at_mut(CLIENTS);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let daemon = &mut daemon;
        let server = if traced {
            let stamped: Vec<_> = conns
                .into_iter()
                .zip(&stamps)
                .map(|((r, w), (reads, writes))| {
                    let r = Stamped {
                        inner: r,
                        stamps: Arc::clone(reads),
                    };
                    let w = Stamped {
                        inner: w,
                        stamps: Arc::clone(writes),
                    };
                    (r, w)
                })
                .collect();
            scope.spawn(move || serve_pair(daemon, stamped))
        } else {
            scope.spawn(move || serve_pair(daemon, conns))
        };
        let handles: Vec<_> = clients
            .into_iter()
            .zip(plans)
            .zip(client_tracers.iter_mut())
            .enumerate()
            .map(|(i, ((stream, frames), tr))| {
                let start = &start;
                scope.spawn(move || client_loop(stream, i, frames, prog, start, tr))
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        server.join().expect("the daemon loop does not panic");
        logs
    });
    let clients: Vec<ClientLog> = logs.into_iter().collect::<Result<_, _>>()?;
    let first = clients.iter().map(|c| c.span.0).min().expect("two clients");
    let last = clients.iter().map(|c| c.span.1).max().expect("two clients");
    let mut in_daemon_us = Vec::new();
    if traced {
        for (client, (reads, writes)) in stamps.iter().enumerate() {
            let reads = reads.lock().expect("stamp lock is never poisoned");
            let writes = writes.lock().expect("stamp lock is never poisoned");
            // Line 0 is the hello; the timed frames follow.
            let held: Vec<f64> = reads
                .iter()
                .zip(writes.iter())
                .enumerate()
                .skip(1)
                .map(|(k, (&r, &w))| {
                    daemon_tracer[0].record("service.in_daemon", r, w, FIRST_ID + k as u64 - 1);
                    w.saturating_duration_since(r).as_secs_f64() * 1e6
                })
                .collect();
            if held.len() != plans[client].len() {
                return Err(format!(
                    "client {client}: {} daemon hold times for {} frames",
                    held.len(),
                    plans[client].len()
                ));
            }
            in_daemon_us.push(held);
        }
    }
    Ok(ServiceOut {
        wall_s: last.saturating_duration_since(first).as_secs_f64(),
        clients,
        in_daemon_us,
    })
}
