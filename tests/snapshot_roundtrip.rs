//! Robustness properties of the persistent snapshot subsystem
//! (`Session::save_snapshot` / `Session::load_snapshot`) on generated
//! workloads: a warm restart is outcome-invisible (byte-identical
//! per-query results at 1/2/4 threads), every truncated / corrupted /
//! version-bumped / PAG-mismatched image degrades to a clean cold start
//! without panicking, and saving after `invalidate_method` never
//! resurrects fenced summaries.

use dynsum::cfl::CtxId;
use dynsum::pag::ObjId;
use dynsum::{
    ClientKind, DemandPointsTo, EngineConfig, EngineKind, QueryResult, Session, SessionQuery,
    SnapshotReject,
};
use dynsum_clients::queries_for;
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions, PROFILES};
use proptest::prelude::*;

/// The byte-level identity the snapshot guarantees: resolution flag plus
/// the sorted `(object, allocation context)` pairs.
fn fingerprint(r: &QueryResult) -> (bool, Vec<(ObjId, CtxId)>) {
    (r.resolved, r.pts.iter().collect())
}

/// Serves half the stream on a fresh session and returns its snapshot.
fn snapshot_after_half_stream(
    w: &dynsum_workloads::Workload,
    batch: &[SessionQuery<'_>],
    config: EngineConfig,
) -> Vec<u8> {
    let mut donor = Session::with_config(&w.pag, EngineKind::DynSum, config);
    donor.run_batch(&batch[..batch.len() / 2], 1);
    let mut bytes = Vec::new();
    donor.save_snapshot(&mut bytes).expect("Vec write");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The outcome-invisibility claim: (save → restart → load → run) at
    /// 1/2/4 threads answers every query byte-identically to a cold
    /// sequential run that never saw a snapshot.
    #[test]
    fn warm_restart_is_outcome_invisible(
        seed in 0u64..500,
        pidx in 0usize..PROFILES.len(),
    ) {
        let w = generate(&PROFILES[pidx], &GeneratorOptions { scale: 0.01, seed, ..GeneratorOptions::default() });
        let queries = queries_for(ClientKind::NullDeref, &w.info);
        let cold: Vec<_> = {
            let mut engine = Session::new(&w.pag, EngineKind::DynSum);
            queries.iter().map(|q| fingerprint(&engine.points_to(q.var))).collect()
        };
        let batch: Vec<SessionQuery<'_>> =
            queries.iter().map(|q| SessionQuery::new(q.var)).collect();
        let config = EngineConfig::default();
        let bytes = snapshot_after_half_stream(&w, &batch, config);
        for threads in [1usize, 2, 4] {
            let (mut session, load) =
                Session::load_snapshot(&bytes[..], &w.pag, EngineKind::DynSum, config);
            prop_assert!(load.is_warm(), "{}: self-saved snapshot rejected: {:?}", w.name, load);
            let results = session.run_batch(&batch, threads);
            prop_assert_eq!(results.len(), cold.len());
            for (i, (r, want)) in results.iter().zip(&cold).enumerate() {
                prop_assert_eq!(
                    &fingerprint(r),
                    want,
                    "{}: threads={} diverged on query {} after warm restart",
                    w.name,
                    threads,
                    i
                );
            }
        }
    }

    /// No byte stream can panic the loader or leak a partial restore:
    /// arbitrary truncations and flips of a genuine snapshot either load
    /// it intact (unreached by these mutations) or produce a working
    /// cold session.
    #[test]
    fn mutated_snapshots_degrade_to_working_cold_starts(
        seed in 0u64..500,
        cut_pm in 0u32..1000,
        flip_pm in 0u32..1000,
        flip_bits in 1u8..=255,
    ) {
        let w = generate(
            BenchmarkProfile::find("soot-c").unwrap(),
            &GeneratorOptions { scale: 0.01, seed, ..GeneratorOptions::default() },
        );
        let queries = queries_for(ClientKind::NullDeref, &w.info);
        let batch: Vec<SessionQuery<'_>> =
            queries.iter().map(|q| SessionQuery::new(q.var)).collect();
        let config = EngineConfig::default();
        let bytes = snapshot_after_half_stream(&w, &batch, config);

        let truncated = &bytes[..bytes.len() * cut_pm as usize / 1000];
        let (mut session, load) =
            Session::load_snapshot(truncated, &w.pag, EngineKind::DynSum, config);
        prop_assert!(!load.is_warm());
        prop_assert_eq!(session.summary_count(), 0);
        prop_assert_eq!(session.run_batch(&batch, 2).len(), batch.len());

        let mut flipped = bytes.clone();
        let at = (flipped.len() * flip_pm as usize / 1000).min(flipped.len() - 1);
        flipped[at] ^= flip_bits;
        let (mut session, load) =
            Session::load_snapshot(&flipped[..], &w.pag, EngineKind::DynSum, config);
        prop_assert!(!load.is_warm(), "flip of {flip_bits:#x} at byte {at} accepted");
        prop_assert_eq!(session.summary_count(), 0);
        prop_assert_eq!(session.run_batch(&batch, 2).len(), batch.len());
    }
}

/// A snapshot saved against one program must not load against another —
/// and the reason must say so.
#[test]
fn snapshots_do_not_cross_programs_or_versions() {
    let config = EngineConfig::default();
    let w1 = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 1,
            ..GeneratorOptions::default()
        },
    );
    let w2 = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 2,
            ..GeneratorOptions::default()
        },
    );
    let q1 = queries_for(ClientKind::NullDeref, &w1.info);
    let batch: Vec<SessionQuery<'_>> = q1.iter().map(|q| SessionQuery::new(q.var)).collect();
    let bytes = snapshot_after_half_stream(&w1, &batch, config);

    // Different program: rejected by fingerprint, session still works.
    let (mut cold, load) = Session::load_snapshot(&bytes[..], &w2.pag, EngineKind::DynSum, config);
    assert_eq!(load.reject(), Some(SnapshotReject::PagMismatch));
    let q2 = queries_for(ClientKind::NullDeref, &w2.info);
    let batch2: Vec<SessionQuery<'_>> = q2.iter().map(|q| SessionQuery::new(q.var)).collect();
    assert_eq!(cold.run_batch(&batch2, 2).len(), batch2.len());

    // Future format version: rejected, not misparsed.
    let mut bumped = bytes.clone();
    bumped[8..12].copy_from_slice(&(dynsum::SNAPSHOT_VERSION + 1).to_le_bytes());
    let (_, load) = Session::load_snapshot(&bumped[..], &w1.pag, EngineKind::DynSum, config);
    assert_eq!(
        load.reject(),
        Some(SnapshotReject::UnsupportedVersion {
            found: dynsum::SNAPSHOT_VERSION + 1
        })
    );

    // Different semantics: rejected by config digest.
    let other = EngineConfig {
        context_sensitive: false,
        ..config
    };
    let (_, load) = Session::load_snapshot(&bytes[..], &w1.pag, EngineKind::DynSum, other);
    assert_eq!(load.reject(), Some(SnapshotReject::ConfigMismatch));
}

/// Fencing survives persistence: a method invalidated before the save
/// has no summaries in the image, the restored session keeps its epoch
/// fence, and a pre-save stale shard still cannot resurrect them after
/// the restart.
#[test]
fn save_after_invalidation_never_resurrects_fenced_summaries() {
    let w = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.02,
            seed: 7,
            ..GeneratorOptions::default()
        },
    );
    let queries = queries_for(ClientKind::NullDeref, &w.info);
    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    let config = EngineConfig::default();

    let mut donor = Session::with_config(&w.pag, EngineKind::DynSum, config);
    // Detach a shard computed before the invalidation (the stale-state
    // hazard a long-lived process carries across an edit).
    let stale = {
        let mut h = donor.handle();
        for q in &queries {
            h.points_to(q.var);
        }
        h.into_summaries()
    };
    donor.run_batch(&batch, 1);
    let method = w
        .pag
        .methods()
        .map(|(m, _)| m)
        .find(|&m| {
            let mut probe = Session::with_config(&w.pag, EngineKind::DynSum, config);
            probe.run_batch(&batch, 1);
            probe.invalidate_method(m) > 0
        })
        .expect("some method has summaries");
    assert!(donor.invalidate_method(method) > 0);

    let mut bytes = Vec::new();
    donor.save_snapshot(&mut bytes).expect("Vec write");
    let (mut restored, load) =
        Session::load_snapshot(&bytes[..], &w.pag, EngineKind::DynSum, config);
    assert!(load.is_warm());
    // Nothing of the fenced method came back with the image...
    assert_eq!(restored.invalidate_method(method), 0);
    // ...and the restored epoch fence still rejects the pre-save shard's
    // entries for it (invalidate_method above bumped the epoch again,
    // which only widens the fence the snapshot already carried).
    let before = restored.stale_rejections();
    restored.absorb(stale);
    assert!(
        restored.stale_rejections() > before,
        "stale shard entries for the invalidated method must be fenced"
    );
    assert_eq!(restored.invalidate_method(method), 0);
    // Queries recompute the method correctly after all of that.
    let results = restored.run_batch(&batch, 2);
    let cold: Vec<_> = {
        let mut engine = Session::new(&w.pag, EngineKind::DynSum);
        queries
            .iter()
            .map(|q| fingerprint(&engine.points_to(q.var)))
            .collect()
    };
    for (r, want) in results.iter().zip(&cold) {
        assert_eq!(&fingerprint(r), want);
    }
}
