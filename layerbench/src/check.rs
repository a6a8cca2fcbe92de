//! Independent evidence for every answer, prepared before anything is
//! timed, and the check that holds each answer against it.
//!
//! Three kinds of evidence, none produced by the path being measured:
//!
//! - the **Andersen oracle**, computed in a child process (so its
//!   memory never counts towards the measured peak RSS): every answer,
//!   resolved or partial, must be a subset of its points-to set;
//! - a **NOREFINE reference** through the standalone engine (no cache,
//!   no batching, no summaries) at 16x the query budget: a resolved
//!   answer must equal it, a partial answer must lie inside it;
//! - the **expected answer fingerprint** of every query, from the
//!   standalone engine of the engine under test, folded over the
//!   request sequence into the digest the run must reproduce.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher as _;
use std::io::{BufRead as _, Read as _, Write as _};
use std::process::{Child, Command, Stdio};

use dynsum_cfl::{PointsToSet, QueryResult, StableHasher};
use dynsum_clients::{site_satisfied, QuerySite};
use dynsum_core::{EngineConfig, EngineKind};
use dynsum_pag::{ObjId, VarId};
use dynsum_workloads::wire::parse_workload;
use dynsum_workloads::Workload;

use crate::inputs::{program_text, query_pool, PoolEntry};

/// The NOREFINE answer for one variable.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Whether NOREFINE resolved within its (generous) budget.
    pub resolved: bool,
    /// Objects of its points-to set (partial when unresolved).
    pub objs: BTreeSet<ObjId>,
}

/// One analysed program with its prepared evidence.
#[derive(Debug)]
pub struct Prepared {
    /// Table-3 profile name.
    pub name: &'static str,
    /// The workload document every setup parses.
    pub text: String,
    /// The document parsed once at preparation (same ids as every
    /// later parse: parsing is deterministic).
    pub work: Workload,
    /// Client query sites.
    pub pool: Vec<PoolEntry>,
    /// Andersen points-to set of every queried variable.
    pub oracle: HashMap<VarId, BTreeSet<ObjId>>,
    /// NOREFINE reference of every queried variable.
    pub norefine: HashMap<VarId, Reference>,
    /// Expected answer fingerprint per engine, per pool entry.
    pub expected: Vec<(EngineKind, Vec<u64>)>,
}

impl Prepared {
    /// Expected fingerprints of `engine`'s answers, per pool entry.
    pub fn expected(&self, engine: EngineKind) -> &[u64] {
        &self
            .expected
            .iter()
            .find(|(kind, _)| *kind == engine)
            .expect("fingerprints prepared for every engine the workload runs")
            .1
    }

    /// A readable name for pool entry `entry`.
    pub fn label(&self, entry: u32) -> String {
        let pag = &self.work.pag;
        let e = &self.pool[entry as usize];
        let site = match &e.site {
            QuerySite::Cast { location, .. } => format!("cast at {location}"),
            QuerySite::Deref { location } => format!("deref at {location}"),
            QuerySite::Factory { method } => format!("factory {}", pag.method(*method).name),
        };
        format!(
            "{}:{} ({} {site}, pool entry {entry})",
            self.name,
            pag.var(e.var).name,
            e.client
        )
    }
}

/// The queried variables of a pool, sorted and deduplicated.
pub fn distinct_vars(pool: &[PoolEntry]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = pool.iter().map(|e| e.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Kills and reaps oracle children that were not collected, so an
/// early error never leaves a process behind.
struct Children(Vec<Option<Child>>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in self.0.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Generates the programs and prepares their evidence: the Andersen
/// oracle (in child processes, concurrently with the rest), the
/// NOREFINE references, and the expected fingerprints of `engines`.
pub fn prepare(
    names: &[&'static str],
    scale: f64,
    config: EngineConfig,
    engines: &[EngineKind],
) -> Result<Vec<Prepared>, String> {
    let texts: Vec<String> = names.iter().map(|n| program_text(n, scale)).collect();
    let mut children = Children(Vec::new());
    for text in &texts {
        children.0.push(Some(spawn_oracle(text)?));
    }
    let generous = EngineConfig {
        budget: config.budget.saturating_mul(16),
        ..config
    };
    let mut out = Vec::with_capacity(names.len());
    for (i, (name, text)) in names.iter().zip(texts).enumerate() {
        let work = parse_workload(&text).map_err(|e| format!("{name}: {e}"))?;
        let pool = query_pool(&work.info);
        let vars = distinct_vars(&pool);
        let norefine = {
            let mut engine = EngineKind::NoRefine.build(&work.pag, generous);
            vars.iter()
                .map(|&v| {
                    let r = engine.points_to(v);
                    let reference = Reference {
                        resolved: r.resolved,
                        objs: r.pts.objects(),
                    };
                    (v, reference)
                })
                .collect()
        };
        let expected = engines
            .iter()
            .map(|&kind| {
                let pag = &work.pag;
                let mut engine = kind.build(pag, config);
                let fps = pool
                    .iter()
                    .map(|e| {
                        let site = &e.site;
                        let check = |pts: &PointsToSet| site_satisfied(pag, site, pts);
                        engine.query(e.var, &check).fingerprint()
                    })
                    .collect();
                (kind, fps)
            })
            .collect();
        let child = children.0[i].take().expect("one oracle child per program");
        let oracle = collect_oracle(child).map_err(|e| format!("{name}: Andersen oracle: {e}"))?;
        out.push(Prepared {
            name,
            text,
            work,
            pool,
            oracle,
            norefine,
            expected,
        });
    }
    Ok(out)
}

/// Starts `layerbench oracle` on one workload document.
fn spawn_oracle(text: &str) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .arg("oracle")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the oracle: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let written = stdin.write_all(text.as_bytes());
    drop(stdin);
    if let Err(e) = written {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("cannot feed the oracle: {e}"));
    }
    Ok(child)
}

/// Reads an oracle child's answer: one line per variable, the raw
/// variable id followed by its objects' raw ids.
fn collect_oracle(child: Child) -> Result<HashMap<VarId, BTreeSet<ObjId>>, String> {
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let mut sets = HashMap::new();
    for line in out.stdout.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut ids = line.split_ascii_whitespace().map(str::parse::<u32>);
        let var = match ids.next() {
            Some(Ok(v)) => VarId::from_raw(v),
            _ => return Err(format!("malformed line `{line}`")),
        };
        let objs = ids
            .map(|id| id.map(ObjId::from_raw))
            .collect::<Result<BTreeSet<ObjId>, _>>()
            .map_err(|e| format!("malformed line `{line}`: {e}"))?;
        sets.insert(var, objs);
    }
    Ok(sets)
}

/// The `oracle` subcommand: reads a workload document on stdin and
/// prints the Andersen points-to set of each queried variable.
pub fn oracle_main() -> Result<(), String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let work = parse_workload(&text).map_err(|e| e.to_string())?;
    let andersen = dynsum_andersen::Andersen::analyze(&work.pag);
    let vars = distinct_vars(&query_pool(&work.info));
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for v in vars {
        let mut line = v.as_raw().to_string();
        for o in andersen.var_pts(v) {
            line.push(' ');
            line.push_str(&o.as_raw().to_string());
        }
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Corrupts the NOREFINE reference of pool entry `entry` (drops an
/// object, or adds one to an empty set) and marks it resolved: the
/// check's self-test. Returns the entry's label.
pub fn plant_wrong_reference(prog: &mut Prepared, entry: u32) -> String {
    let var = prog.pool[entry as usize].var;
    let reference = prog.norefine.get_mut(&var).expect("reference prepared");
    reference.resolved = true;
    match reference.objs.iter().next().copied() {
        Some(first) => {
            reference.objs.remove(&first);
        }
        None => {
            reference.objs.insert(ObjId::from_raw(0));
        }
    }
    prog.label(entry)
}

/// Folds answer fingerprints, in request order, into one digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(StableHasher);

impl Digest {
    /// Adds the next answer.
    pub fn push(&mut self, fingerprint: u64) {
        self.0.write_u64(fingerprint);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// The digest the prepared fingerprints give over `slots`: what a run
/// answering that sequence correctly must reproduce.
pub fn expected_digest(
    progs: &[Prepared],
    engines: &[EngineKind],
    slots: impl Iterator<Item = Slot>,
) -> u64 {
    let mut digest = Digest::default();
    for slot in slots {
        digest.push(progs[slot.program].expected(engines[slot.engine])[slot.entry as usize]);
    }
    digest.value()
}

/// Which answer a query produced: program, engine (index into the
/// workload's engine list) and pool entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Program index.
    pub program: usize,
    /// Engine index.
    pub engine: usize,
    /// Pool entry.
    pub entry: u32,
}

/// The first answer of every distinct query, kept for the set checks
/// (later answers to the same query are held to it by fingerprint).
#[derive(Debug)]
pub struct AnswerTable {
    engines: usize,
    base: Vec<usize>,
    answers: Vec<Option<QueryResult>>,
}

impl AnswerTable {
    /// An empty table for `engines` engines over these programs.
    pub fn new(progs: &[Prepared], engines: usize) -> AnswerTable {
        let mut base = Vec::with_capacity(progs.len() * engines);
        let mut next = 0;
        for p in progs {
            for _ in 0..engines {
                base.push(next);
                next += p.pool.len();
            }
        }
        AnswerTable {
            engines,
            base,
            answers: (0..next).map(|_| None).collect(),
        }
    }

    fn key(&self, slot: Slot) -> usize {
        self.base[slot.program * self.engines + slot.engine] + slot.entry as usize
    }

    /// Keeps `result` if it is the slot's first answer.
    #[inline]
    pub fn offer(&mut self, slot: Slot, result: QueryResult) {
        let key = self.key(slot);
        if self.answers[key].is_none() {
            self.answers[key] = Some(result);
        }
    }

    /// The slot's first answer.
    pub fn get(&self, slot: Slot) -> Option<&QueryResult> {
        self.answers[self.key(slot)].as_ref()
    }
}

/// Outcome of checking one phase's answers.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Queries answered.
    pub attempted: u64,
    /// Queries whose answer failed a check.
    pub failed: u64,
    /// Queries answered resolved.
    pub resolved: u64,
    /// Queries whose client property was proven.
    pub proven: u64,
    /// One line per failed check, naming workload and query.
    pub failures: Vec<String>,
}

impl Verdicts {
    /// Adds another phase's (or client's) verdicts.
    pub fn absorb(&mut self, other: Verdicts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.resolved += other.resolved;
        self.proven += other.proven;
        self.failures.extend(other.failures);
    }
}

/// Checks one answer against the oracle and the NOREFINE reference;
/// `Ok(proven)`.
fn check_answer(
    prog: &Prepared,
    engine: EngineKind,
    entry: u32,
    r: &QueryResult,
) -> Result<bool, String> {
    let e = &prog.pool[entry as usize];
    let objs = r.pts.objects();
    let oracle = &prog.oracle[&e.var];
    if !objs.is_subset(oracle) {
        let extra: Vec<u32> = objs.difference(oracle).map(|o| o.as_raw()).collect();
        return Err(format!("objects {extra:?} are not in the Andersen oracle"));
    }
    let reference = &prog.norefine[&e.var];
    let satisfied = r.resolved && site_satisfied(&prog.work.pag, &e.site, &r.pts);
    if reference.resolved {
        if r.resolved && objs != reference.objs {
            // REFINEPTS may stop refining as soon as the client is
            // satisfied: a coarser, but still sound, resolved answer.
            let early =
                engine == EngineKind::RefinePts && satisfied && reference.objs.is_subset(&objs);
            if !early {
                return Err(format!(
                    "resolved answer ({} objects) differs from the NOREFINE reference ({} objects)",
                    objs.len(),
                    reference.objs.len()
                ));
            }
        } else if !r.resolved && !objs.is_subset(&reference.objs) {
            return Err("partial answer exceeds the NOREFINE reference".to_owned());
        }
    } else if r.resolved && !reference.objs.is_subset(&objs) {
        return Err("resolved answer misses objects of the partial NOREFINE reference".to_owned());
    }
    Ok(satisfied)
}

/// Checks a phase: every answered query's fingerprint against the
/// prepared one, the run's digest against `expected_digest`, and every
/// distinct answer against the oracle and the NOREFINE reference.
pub fn verify(
    workload: &str,
    progs: &[Prepared],
    engines: &[EngineKind],
    slots: impl Iterator<Item = Slot>,
    fingerprints: &[u64],
    table: &AnswerTable,
    expected_digest: u64,
) -> Verdicts {
    let mut v = Verdicts::default();
    // Per distinct query: Some(proven) when its answer passed.
    let mut judged: HashMap<(usize, usize, u32), Option<bool>> = HashMap::new();
    let mut digest = Digest::default();
    for (i, slot) in slots.enumerate() {
        v.attempted += 1;
        let prog = &progs[slot.program];
        let engine = engines[slot.engine];
        let describe = |why: String| {
            format!(
                "workload {workload}, {} query {}: {why}",
                engine.name(),
                prog.label(slot.entry)
            )
        };
        let Some(&fp) = fingerprints.get(i) else {
            v.failed += 1;
            continue;
        };
        digest.push(fp);
        let expected = prog.expected(engine)[slot.entry as usize];
        if fp != expected {
            v.failed += 1;
            v.failures.push(describe(format!(
                "answer fingerprint {fp:016x} differs from the prepared {expected:016x}"
            )));
            continue;
        }
        let key = (slot.program, slot.engine, slot.entry);
        let verdict = match judged.get(&key) {
            Some(&verdict) => verdict,
            None => {
                let checked = table
                    .get(slot)
                    .ok_or_else(|| "no answer kept".to_owned())
                    .and_then(|r| check_answer(prog, engine, slot.entry, r));
                let verdict = checked.map_err(|why| v.failures.push(describe(why))).ok();
                judged.insert(key, verdict);
                verdict
            }
        };
        match verdict {
            Some(proven) => {
                let r = table.get(slot).expect("judged answers exist");
                v.resolved += u64::from(r.resolved);
                v.proven += u64::from(proven);
            }
            None => v.failed += 1,
        }
    }
    if v.attempted != fingerprints.len() as u64 {
        v.failures.push(format!(
            "workload {workload}: {} answers for {} queries",
            fingerprints.len(),
            v.attempted
        ));
        v.failed += 1;
    }
    if digest.value() != expected_digest {
        v.failures.push(format!(
            "workload {workload}: answer digest {:016x} differs from the prepared {expected_digest:016x}",
            digest.value()
        ));
        v.failed = v.failed.max(1);
    }
    v
}
