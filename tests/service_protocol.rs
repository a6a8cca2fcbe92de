//! Integration suite for the daemon protocol: every frame type
//! round-trips, every malformed/truncated/oversized input is answered
//! with a structured error frame — never a panic, never a dropped
//! connection — and the round-robin scheduler keeps a one-query client
//! ahead of a neighbour's bulk batch.

use dynsum::service::json::{parse, Json};
use dynsum::service::{Daemon, ServedWorkload, ServiceConfig, MAX_BATCH_VARS, MAX_FRAME_BYTES};
use dynsum::workloads::{motivating_pag, Motivating};
use dynsum::{EngineKind, Session};

fn daemon_over(m: &Motivating, config: ServiceConfig) -> Daemon<'_> {
    Daemon::new(
        vec![ServedWorkload {
            name: "motivating",
            pag: &m.pag,
        }],
        config,
    )
}

/// Ingests one frame and drains the scheduler, returning every response
/// frame (immediate and scheduled) parsed as JSON.
fn drive(daemon: &mut Daemon<'_>, client: u64, line: &str) -> Vec<Json> {
    let mut frames: Vec<String> = daemon.ingest(client, line);
    frames.extend(
        daemon
            .drain()
            .into_iter()
            .filter(|(c, _)| *c == client)
            .map(|(_, f)| f),
    );
    frames
        .iter()
        .map(|f| parse(f).expect("daemon emits valid JSON"))
        .collect()
}

fn is_ok(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(frame: &Json) -> &str {
    assert_eq!(
        frame.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected an error frame: {frame:?}"
    );
    frame
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error frames carry a code")
}

fn hello(daemon: &mut Daemon<'_>, client: u64) {
    let frames = drive(
        daemon,
        client,
        r#"{"op":"hello","id":1,"name":"t","engine":"dynsum"}"#,
    );
    assert!(is_ok(&frames[0]), "hello failed: {:?}", frames[0]);
}

#[test]
fn every_op_round_trips() {
    let m = motivating_pag();
    let dir = std::env::temp_dir().join(format!("dynsum-svc-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut daemon = daemon_over(
        &m,
        ServiceConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    );
    let c = daemon.connect();

    // hello: negotiates and reports session identity.
    let frames = drive(
        &mut daemon,
        c,
        r#"{"op":"hello","id":1,"name":"suite","engine":"dynsum","workload":"motivating","config":{"budget":50000}}"#,
    );
    assert!(is_ok(&frames[0]));
    assert_eq!(
        frames[0].get("engine").and_then(Json::as_str),
        Some("dynsum")
    );
    assert_eq!(frames[0].get("warm").and_then(Json::as_bool), Some(false));

    // query, by raw id and by the same semantics a direct Session run
    // gives (the byte-identity surface).
    let frames = drive(
        &mut daemon,
        c,
        &format!(r#"{{"op":"query","id":2,"var":{}}}"#, m.s1.as_raw()),
    );
    let result = frames[0].get("result").expect("query result");
    assert_eq!(
        result.get("outcome").and_then(Json::as_str),
        Some("resolved")
    );
    let wire_fp = result
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_owned();
    let mut reference = Session::new(&m.pag, EngineKind::DynSum);
    let direct = reference.run_batch_vars(&[m.s1], 1);
    assert_eq!(
        wire_fp,
        format!("{:016x}", direct[0].fingerprint()),
        "daemon answers must be byte-identical to a direct session run"
    );

    // batch: results in input order.
    let frames = drive(
        &mut daemon,
        c,
        &format!(
            r#"{{"op":"batch","id":3,"vars":[{},{}]}}"#,
            m.s2.as_raw(),
            m.s1.as_raw(),
        ),
    );
    let results = frames[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("batch results");
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[1].get("fingerprint").and_then(Json::as_str),
        Some(wire_fp.as_str()),
        "second batch slot is s1 again"
    );

    // cancel: unknown target is acknowledged as inactive.
    let frames = drive(&mut daemon, c, r#"{"op":"cancel","id":4,"target":999}"#);
    assert!(is_ok(&frames[0]));
    assert_eq!(frames[0].get("active").and_then(Json::as_bool), Some(false));

    // invalidate_method: a real method id is accepted.
    let frames = drive(
        &mut daemon,
        c,
        r#"{"op":"invalidate_method","id":5,"method":0}"#,
    );
    assert!(is_ok(&frames[0]));
    assert!(frames[0].get("evicted").and_then(Json::as_u64).is_some());

    // health: daemon, client, and session sections all present.
    let frames = drive(&mut daemon, c, r#"{"op":"health","id":6}"#);
    let health = &frames[0];
    assert!(is_ok(health));
    assert_eq!(
        health
            .get("daemon")
            .and_then(|d| d.get("sessions"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert!(
        health
            .get("client")
            .and_then(|cl| cl.get("queries"))
            .and_then(Json::as_u64)
            .expect("client counters")
            >= 3
    );
    assert!(health
        .get("session")
        .and_then(|s| s.get("engine"))
        .is_some());

    // save_snapshot: writes the keyed file into the directory.
    let frames = drive(&mut daemon, c, r#"{"op":"save_snapshot","id":7}"#);
    assert!(is_ok(&frames[0]));
    let path = frames[0]
        .get("path")
        .and_then(Json::as_str)
        .expect("snapshot path");
    assert!(std::path::Path::new(path).exists());

    // shutdown: acknowledged, and every later op is refused.
    let frames = drive(&mut daemon, c, r#"{"op":"shutdown","id":8}"#);
    assert!(is_ok(&frames[0]));
    assert!(daemon.shutdown_requested());
    let frames = drive(&mut daemon, c, r#"{"op":"health","id":9}"#);
    assert_eq!(error_code(&frames[0]), "shutting-down");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_truncated_and_oversized_frames_get_structured_errors() {
    let m = motivating_pag();
    let mut daemon = daemon_over(&m, ServiceConfig::default());
    let c = daemon.connect();
    hello(&mut daemon, c);

    let big_batch = format!(
        r#"{{"op":"batch","id":40,"vars":[{}]}}"#,
        vec!["1"; MAX_BATCH_VARS + 1].join(",")
    );
    let deep = format!(
        r#"{{"op":"query","id":41,"var":{}{}}}"#,
        "[".repeat(40),
        "]".repeat(40)
    );
    let oversized = " ".repeat(MAX_FRAME_BYTES + 1);
    let cases: Vec<(&str, &str)> = vec![
        ("", "parse"),
        ("{", "parse"),
        ("not json at all", "parse"),
        (r#"{"op":"query","id":42,"va"#, "parse"),
        (r#"{"op":"health","id":1,"id":2}"#, "parse"),
        ("[1,2,3]", "bad-frame"),
        ("{}", "bad-frame"),
        (r#"{"op":"query"}"#, "bad-frame"),
        (r#"{"op":"query","id":43}"#, "bad-frame"),
        (r#"{"op":"query","id":44,"var":true}"#, "bad-frame"),
        (r#"{"op":"query","id":45,"var":1,"extra":1}"#, "bad-frame"),
        (r#"{"op":"batch","id":46,"vars":[]}"#, "bad-frame"),
        (r#"{"op":"cancel","id":47}"#, "bad-frame"),
        (r#"{"op":"warp","id":48}"#, "unknown-op"),
        (r#"{"op":"hello","id":49,"engine":"zoom"}"#, "bad-config"),
        (
            r#"{"op":"hello","id":50,"config":{"nope":1}}"#,
            "bad-config",
        ),
        (
            r#"{"op":"hello","id":51,"config":{"deterministic_reuse":false}}"#,
            "bad-config",
        ),
        (r#"{"op":"query","id":53,"var":999999}"#, "unknown-var"),
        (
            r#"{"op":"query","id":54,"var":"no.such#var"}"#,
            "unknown-var",
        ),
        (
            r#"{"op":"invalidate_method","id":55,"method":999999}"#,
            "unknown-method",
        ),
        (big_batch.as_str(), "bad-frame"),
        (deep.as_str(), "parse"),
        (oversized.as_str(), "oversized"),
    ];
    for (line, want) in cases {
        let frames = drive(&mut daemon, c, line);
        assert_eq!(
            frames.len(),
            1,
            "exactly one error frame for {:?}",
            &line[..line.len().min(60)]
        );
        assert_eq!(
            error_code(&frames[0]),
            want,
            "wrong code for {:?}",
            &line[..line.len().min(60)]
        );
        // The connection survives: a well-formed query still answers.
        let frames = drive(
            &mut daemon,
            c,
            &format!(r#"{{"op":"query","id":99,"var":{}}}"#, m.s1.as_raw()),
        );
        assert!(
            is_ok(&frames[0]),
            "connection died after {:?}",
            &line[..line.len().min(60)]
        );
    }
}

#[test]
fn need_hello_duplicate_id_and_budget_exhaustion() {
    let m = motivating_pag();
    let mut daemon = daemon_over(&m, ServiceConfig::default());
    let c = daemon.connect();

    // Querying before hello is refused, and the connection stays up.
    let frames = drive(&mut daemon, c, r#"{"op":"query","id":1,"var":0}"#);
    assert_eq!(error_code(&frames[0]), "need-hello");
    let frames = drive(&mut daemon, c, r#"{"op":"save_snapshot","id":2}"#);
    assert_eq!(error_code(&frames[0]), "need-hello");

    // Config values of the wrong type are a bad-config error (the key
    // set is validated at parse time, the value types at apply time).
    let frames = drive(
        &mut daemon,
        c,
        r#"{"op":"hello","id":0,"config":{"budget":true}}"#,
    );
    assert_eq!(error_code(&frames[0]), "bad-config");
    hello(&mut daemon, c);

    // A second hello on the same connection is refused.
    let frames = drive(&mut daemon, c, r#"{"op":"hello","id":3}"#);
    assert_eq!(error_code(&frames[0]), "bad-frame");

    // Reusing an id that is still in flight is refused. Ingest both
    // frames before draining so the first is genuinely in flight.
    let line = format!(r#"{{"op":"query","id":7,"var":{}}}"#, m.s1.as_raw());
    assert!(daemon.ingest(c, &line).is_empty());
    let dup = daemon.ingest(c, &line);
    assert_eq!(error_code(&parse(&dup[0]).unwrap()), "duplicate-id");
    let finished = daemon.drain();
    assert_eq!(finished.len(), 1, "the original id 7 still answers");

    // save_snapshot without a configured directory is a snapshot-io
    // error, not a panic.
    let frames = drive(&mut daemon, c, r#"{"op":"save_snapshot","id":8}"#);
    assert_eq!(error_code(&frames[0]), "snapshot-io");

    // A client with a 1-edge allowance gets one query admitted, then
    // structured budget-exhausted errors.
    let c2 = daemon.connect();
    let frames = drive(
        &mut daemon,
        c2,
        r#"{"op":"hello","id":1,"name":"starved","budget":1}"#,
    );
    assert!(is_ok(&frames[0]));
    let line = format!(r#"{{"op":"query","id":2,"var":{}}}"#, m.s1.as_raw());
    let frames = drive(&mut daemon, c2, &line);
    assert!(is_ok(&frames[0]), "first query is admitted");
    let frames = drive(&mut daemon, c2, &line);
    assert_eq!(error_code(&frames[0]), "budget-exhausted");
    // The exhausted client can still ask for health.
    let frames = drive(&mut daemon, c2, r#"{"op":"health","id":3}"#);
    assert!(is_ok(&frames[0]));
    assert_eq!(
        frames[0]
            .get("client")
            .and_then(|cl| cl.get("rejected"))
            .and_then(Json::as_u64),
        Some(1)
    );
}

#[test]
fn round_robin_keeps_small_clients_ahead_of_bulk_batches() {
    let m = motivating_pag();
    let mut daemon = daemon_over(&m, ServiceConfig::default());
    let bulk = daemon.connect();
    let quick = daemon.connect();
    hello(&mut daemon, bulk);
    hello(&mut daemon, quick);

    // The bulk client enqueues 50 queries first; the quick client's
    // single query still completes on the second scheduler turn.
    let vars = vec![m.s1.as_raw().to_string(); 50].join(",");
    assert!(daemon
        .ingest(
            bulk,
            &format!(r#"{{"op":"batch","id":10,"vars":[{vars}]}}"#)
        )
        .is_empty());
    assert!(daemon
        .ingest(
            quick,
            &format!(r#"{{"op":"query","id":11,"var":{}}}"#, m.s1.as_raw())
        )
        .is_empty());
    let finished = daemon.drain();
    assert_eq!(finished.len(), 2);
    assert_eq!(
        finished[0].0, quick,
        "round-robin answers the one-query client before the 50-query batch"
    );
    assert_eq!(finished[1].0, bulk);

    // Both clients observed identical answers for the same variable —
    // multiplexing never bleeds one client's traffic into another's
    // results.
    let bulk_frame = parse(&finished[1].1).unwrap();
    let quick_frame = parse(&finished[0].1).unwrap();
    let bulk_fp = bulk_frame.get("results").and_then(Json::as_arr).unwrap()[0]
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(
        quick_frame
            .get("result")
            .and_then(|r| r.get("fingerprint"))
            .and_then(Json::as_str),
        Some(bulk_fp.as_str())
    );
}

#[cfg(unix)]
#[test]
fn serve_pair_transport_survives_malformed_lines_and_shuts_down() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let m = motivating_pag();
    let (client_half, server_half) = UnixStream::pair().expect("socketpair");
    dynsum_cfl::sync::thread::scope(|scope| {
        scope.spawn(|| {
            let mut daemon = daemon_over(&m, ServiceConfig::default());
            let reader = server_half.try_clone().expect("clone");
            dynsum::service::serve_pair(&mut daemon, vec![(reader, server_half)]);
        });
        let mut writer = client_half.try_clone().expect("clone");
        let mut reader = BufReader::new(client_half);
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read frame");
            parse(line.trim_end()).expect("valid JSON frame")
        };

        // Garbage first: structured parse error, connection stays up.
        writeln!(writer, "$$$ not a frame $$$").unwrap();
        assert_eq!(error_code(&recv()), "parse");

        // An oversized line is truncated by the reader and classified,
        // and the *next* line still parses cleanly.
        writeln!(writer, "{}", "x".repeat(MAX_FRAME_BYTES + 100)).unwrap();
        assert_eq!(error_code(&recv()), "oversized");

        writeln!(writer, r#"{{"op":"hello","id":1,"name":"wire"}}"#).unwrap();
        assert!(is_ok(&recv()));
        writeln!(writer, r#"{{"op":"query","id":2,"var":{}}}"#, m.s1.as_raw()).unwrap();
        let frame = recv();
        assert!(is_ok(&frame));
        assert_eq!(
            frame
                .get("result")
                .and_then(|r| r.get("outcome"))
                .and_then(Json::as_str),
            Some("resolved")
        );
        writeln!(writer, r#"{{"op":"shutdown","id":3}}"#).unwrap();
        assert!(is_ok(&recv()));
        // The serve loop exits; the scope joins the daemon thread.
    });
}

/// Two OS-thread clients, each on its own socketpair connection into one
/// `serve_pair` event loop, send closed-loop single-query frames over a
/// generated workload; every wire answer must carry exactly the
/// `(resolved, pts)` a clean single-client DYNSUM session computes — the
/// daemon is a transparent multiplexer even while its shared session
/// warms up under interleaved traffic.
#[cfg(unix)]
#[test]
fn concurrent_socketpair_clients_match_a_clean_session() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::Barrier;

    use dynsum::EngineConfig;
    use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};

    type Answer = (bool, Vec<(u64, u64)>);

    let w = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 5,
            ..GeneratorOptions::default()
        },
    );
    // Every 37th variable gives empty, one-object and several-object
    // sets, and a starved budget leaves some answers as unresolved
    // partial sets: all of them must cross the wire intact.
    let vars: Vec<_> = w.pag.vars().map(|(v, _)| v).step_by(37).collect();
    let config = ServiceConfig {
        engine_config: EngineConfig {
            budget: 100,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let mut clean = Session::with_config(&w.pag, EngineKind::DynSum, config.engine_config);
    let want: Vec<Answer> = clean
        .run_batch_vars(&vars, 1)
        .iter()
        .map(|r| {
            let pts = r
                .pts
                .iter()
                .map(|(o, c)| (u64::from(o.as_raw()), u64::from(c.as_raw())))
                .collect();
            (r.resolved, pts)
        })
        .collect();
    assert!(want.iter().any(|(resolved, _)| !resolved));
    assert!(want.iter().any(|(_, pts)| pts.len() > 1));

    let (clients, servers): (Vec<UnixStream>, Vec<(UnixStream, UnixStream)>) = (0..2)
        .map(|_| {
            let (client_half, server_half) = UnixStream::pair().expect("socketpair");
            let reader = server_half.try_clone().expect("clone");
            (client_half, (reader, server_half))
        })
        .unzip();
    let mut daemon = Daemon::new(
        vec![ServedWorkload {
            name: &w.name,
            pag: &w.pag,
        }],
        config,
    );
    let both_connected = Barrier::new(2);
    dynsum_cfl::sync::thread::scope(|scope| {
        let server = scope.spawn(|| dynsum::service::serve_pair(&mut daemon, servers));
        let runs: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(slot, stream)| {
                let (vars, name, both_connected) = (&vars, &w.name, &both_connected);
                scope.spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut recv = || {
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("read frame");
                        parse(line.trim_end()).expect("valid JSON frame")
                    };
                    writeln!(
                        writer,
                        r#"{{"op":"hello","id":1,"name":"c{slot}","engine":"dynsum","workload":"{name}"}}"#
                    )
                    .unwrap();
                    assert!(is_ok(&recv()), "client {slot} hello");
                    // Neither client queries until both share the session,
                    // so their query streams overlap in the event loop.
                    both_connected.wait();
                    // The clients walk the stream from opposite ends so
                    // their queries interleave on distinct variables.
                    let order: Vec<usize> = if slot == 0 {
                        (0..vars.len()).collect()
                    } else {
                        (0..vars.len()).rev().collect()
                    };
                    let mut got = Vec::with_capacity(order.len());
                    for (n, &i) in order.iter().enumerate() {
                        let id = 2 + n as u64;
                        writeln!(
                            writer,
                            r#"{{"op":"query","id":{id},"var":{}}}"#,
                            vars[i].as_raw()
                        )
                        .unwrap();
                        let frame = recv();
                        assert!(is_ok(&frame), "client {slot} query {id}: {frame:?}");
                        assert_eq!(frame.get("id").and_then(Json::as_u64), Some(id));
                        let result = frame.get("result").expect("query frames carry a result");
                        let resolved = result.get("resolved").and_then(Json::as_bool).unwrap();
                        let pts = result
                            .get("pts")
                            .and_then(Json::as_arr)
                            .unwrap()
                            .iter()
                            .map(|pair| {
                                let pair = pair.as_arr().unwrap();
                                (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap())
                            })
                            .collect();
                        got.push((i, (resolved, pts)));
                    }
                    // Dropping the socket hangs up; the event loop drains
                    // out once both clients are gone.
                    got
                })
            })
            .collect();
        for run in runs {
            for (i, answer) in run.join().expect("client thread") {
                assert_eq!(answer, want[i], "wire answer for query {i} diverged");
            }
        }
        server.join().expect("server thread");
    });
}
