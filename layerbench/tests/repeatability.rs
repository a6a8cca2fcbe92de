//! The benchmark's own test: every workload, twice, at a tiny size.
//!
//! Asserts that two runs of the same seed attempt the same queries and
//! reproduce the same answer digest, that the work counters of the
//! 1-thread phases repeat exactly, that the answer check passes, that
//! every metric `BENCHMARK.json` names is printed, and that a planted
//! wrong reference answer fails the run naming the workload and query.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use dynsum_service::json::{parse, Json};

const WORKLOADS: [&str; 3] = ["dynsum_warm", "baselines_cold", "service_mix"];

struct Outcome {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark starts");
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The result line and the summary line of a run.
fn result(o: &Outcome) -> (Json, Json) {
    let last = o.stdout.lines().last().expect("a result line");
    let summary = o
        .stdout
        .lines()
        .find(|l| l.starts_with("{\"summary\""))
        .expect("a summary line");
    (
        parse(last).expect("the result line is JSON"),
        parse(summary).expect("the summary line is JSON"),
    )
}

fn metrics(r: &Json) -> BTreeMap<String, f64> {
    r.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value"),
            )
        })
        .collect()
}

/// Metric names a `BENCHMARK.json` section lists.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn assert_clean(workload: &str, o: &Outcome) -> (Json, Json) {
    assert_eq!(o.code, Some(0), "{workload}: {}", o.stderr);
    let (r, summary) = result(o);
    assert_eq!(
        r.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        r.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        r.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0,
        "{workload}"
    );
    (r, summary)
}

#[test]
fn every_workload_repeats_its_work_and_prints_every_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in WORKLOADS {
        let (plain, _) = assert_clean(workload, &run(workload, 0, &[]));
        let shown = metrics(&plain);
        for name in &end_to_end {
            assert!(shown.contains_key(name), "{workload}: {name} not printed");
            assert!(shown[name] > 0.0, "{workload}: {name} is 0");
        }

        let (a, sa) = assert_clean(workload, &run(workload, 1, &[]));
        let (b, sb) = assert_clean(workload, &run(workload, 1, &[]));
        assert_eq!(
            a.get("attempted"),
            b.get("attempted"),
            "{workload}: attempted"
        );
        let digest = |s: &Json| {
            s.get("summary")
                .and_then(|s| s.get("answer_digest"))
                .cloned()
        };
        assert_eq!(digest(&sa), digest(&sb), "{workload}: answer digest");
        let (ma, mb) = (metrics(&a), metrics(&b));
        for name in &per_layer {
            assert!(ma.contains_key(name), "{workload}: {name} not printed");
        }
        // Work counters of the 1-thread phases. The daemon's two clients
        // interleave their edits with each other's queries, so on
        // `service_mix` only the request count is fixed.
        let exact: Vec<&String> = per_layer
            .iter()
            .filter(|n| {
                *n == "bench.requests"
                    || workload != "service_mix"
                        && (n.starts_with("cfl.")
                            || [
                                "core.cache_hits",
                                "core.cache_lookups",
                                "core.cache_misses",
                                "core.evictions",
                                "core.summaries_resident",
                                "core.summaries_restored",
                                "core.invalidated_summaries",
                            ]
                            .contains(&n.as_str()))
            })
            .collect();
        for name in exact {
            assert_eq!(
                ma[name], mb[name],
                "{workload}: {name} differs between runs"
            );
        }
    }
}

#[test]
fn a_planted_wrong_reference_fails_the_run() {
    for workload in WORKLOADS {
        let o = run(workload, 0, &["--plant-wrong-answer"]);
        assert_ne!(
            o.code,
            Some(0),
            "{workload}: the planted answer went unnoticed"
        );
        let (r, _) = result(&o);
        assert_eq!(
            r.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        let named = o
            .stderr
            .lines()
            .any(|l| l.contains(&format!("workload {workload}")) && l.contains("query"));
        assert!(
            named,
            "{workload}: failure does not name the workload and query:\n{}",
            o.stderr
        );
    }
}
