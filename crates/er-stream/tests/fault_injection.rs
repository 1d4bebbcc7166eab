//! Fault-injection tests at the streaming-blocker level: ENOSPC, fsync
//! failure, short writes and torn renames planted (one-shot, deterministic)
//! at every write-path VFS op of a mutation trace.
//!
//! The contract under injected faults:
//!
//! * the durable call that hits the fault returns a **typed**
//!   [`PersistError`] — no panic, no silent success;
//! * non-retryable faults (a full disk, a failed fsync) are *not* retried
//!   under [`RetryPolicy::none`]; re-issuing the failed call after the
//!   fault clears (they are one-shot) succeeds and the run converges on
//!   the fault-free final state;
//! * whatever the fault interrupted, the on-disk root stays recoverable:
//!   a fresh `recover_from` returns a prefix of the trace, never an error
//!   (the root was committed before any fault could fire);
//! * transient (EINTR-class) faults are absorbed by the default retry
//!   policy — the caller never sees them.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_blocking::TokenKeys;
use er_core::{Dataset, EntityId, EntityProfile, PersistError, PersistResult};
use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use er_features::FeatureSet;
use er_persist::{FaultKind, FaultVfs, InjectedFault, RetryPolicy, Vfs};
use er_stream::{DurableMetaBlocker, StreamingConfig, StreamingMetaBlocker};

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fault-injection-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
}

fn config(dataset: &Dataset) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads: 1,
        ..StreamingConfig::for_dataset(dataset)
    }
}

#[derive(Debug, Clone)]
enum Mutation {
    Ingest(Range<usize>),
    Remove(Vec<EntityId>),
    Update(Vec<(EntityId, EntityProfile)>),
}

#[derive(Debug, Clone)]
enum Step {
    Mutate(Mutation),
    Checkpoint,
}

fn build_trace(dataset: &Dataset) -> Vec<Step> {
    assert!(dataset.num_entities() >= 30);
    vec![
        Step::Mutate(Mutation::Ingest(0..10)),
        Step::Mutate(Mutation::Ingest(10..18)),
        Step::Mutate(Mutation::Remove(vec![EntityId(2), EntityId(11)])),
        Step::Checkpoint,
        Step::Mutate(Mutation::Ingest(18..26)),
        Step::Mutate(Mutation::Update(vec![(
            EntityId(7),
            dataset.profiles[27].clone(),
        )])),
        Step::Mutate(Mutation::Ingest(26..30)),
    ]
}

fn apply_step<G: er_blocking::KeyGenerator>(
    durable: &mut DurableMetaBlocker<G>,
    dataset: &Dataset,
    step: &Step,
) -> PersistResult<()> {
    match step {
        Step::Mutate(Mutation::Ingest(range)) => {
            durable.ingest_unscored(&dataset.profiles[range.clone()])?;
        }
        Step::Mutate(Mutation::Remove(ids)) => {
            durable.remove(ids)?;
        }
        Step::Mutate(Mutation::Update(updates)) => {
            durable.update(updates)?;
        }
        Step::Checkpoint => durable.checkpoint()?,
    };
    Ok(())
}

/// Digest of the logical streaming state.
fn state_digest<G: er_blocking::KeyGenerator>(durable: &DurableMetaBlocker<G>) -> u64 {
    let view = durable.view();
    let blocks: Vec<_> = (0..view.num_blocks())
        .map(|b| (view.key(b), view.entities(b)))
        .collect();
    er_core::crc64(
        format!(
            "{blocks:?}|{}|{}",
            durable.num_entities(),
            durable.num_alive()
        )
        .as_bytes(),
    )
}

/// Runs the trace on `vfs`/`policy`; a step that fails is re-issued once
/// (the injected faults are one-shot).  Returns the final digest and how
/// many typed errors surfaced.
fn run_with_single_retry(
    dataset: &Dataset,
    trace: &[Step],
    vfs: Arc<dyn Vfs>,
    policy: RetryPolicy,
    dir: &Path,
) -> (u64, usize, Vec<PersistError>) {
    let blocker = StreamingMetaBlocker::new(config(dataset), TokenKeys);
    let (mut durable, mut errors) = match blocker.persist_to_with(dir, vfs.clone(), policy) {
        Ok(durable) => (durable, Vec::new()),
        Err(err) => {
            // The root never materialised: re-issue the whole persist_to —
            // the one-shot fault has been consumed.
            let blocker = StreamingMetaBlocker::new(config(dataset), TokenKeys);
            let durable = blocker
                .persist_to_with(dir, vfs, policy)
                .expect("persist_to retry after a one-shot fault must succeed");
            (durable, vec![err])
        }
    };
    for step in trace {
        if let Err(err) = apply_step(&mut durable, dataset, step) {
            errors.push(err);
            apply_step(&mut durable, dataset, step)
                .expect("retry after a one-shot fault must succeed");
        }
    }
    let digest = state_digest(&durable);
    (digest, errors.len(), errors)
}

#[test]
fn every_write_op_fault_is_typed_retryable_and_recoverable() {
    let dataset = dataset();
    let trace = build_trace(&dataset);

    // Fault-free reference run (through a counting VFS, which also hands
    // us the write-op indices to plant faults at).
    let counting = FaultVfs::counting(23);
    let dir = scratch("reference");
    let (expected_digest, error_count, _) = run_with_single_retry(
        &dataset,
        &trace,
        counting.clone(),
        RetryPolicy::none(),
        &dir,
    );
    assert_eq!(error_count, 0);
    let write_ops: Vec<u64> = counting
        .op_log()
        .iter()
        .enumerate()
        .filter(|(_, (kind, _))| kind.is_write())
        .map(|(i, _)| i as u64)
        .collect();
    assert!(
        write_ops.len() > 10,
        "suspiciously few write ops: {}",
        write_ops.len()
    );

    let mut faults_surfaced = 0usize;
    let mut injections = 0usize;
    for kind in [
        FaultKind::Enospc,
        FaultKind::SyncFailure,
        FaultKind::ShortWrite,
        FaultKind::TornRename,
    ] {
        for &at_op in &write_ops {
            injections += 1;
            let dir = scratch(&format!("{kind:?}-{at_op}"));
            let vfs = FaultVfs::with_faults(23, vec![InjectedFault { at_op, kind }]);
            let (digest, error_count, errors) =
                run_with_single_retry(&dataset, &trace, vfs, RetryPolicy::none(), &dir);

            // At most one call failed (the fault is one-shot), it failed
            // with a typed IO error, and the re-issued call converged on
            // the fault-free state.
            assert!(error_count <= 1, "{kind:?} at op {at_op}: {errors:?}");
            faults_surfaced += error_count;
            for err in &errors {
                assert!(
                    matches!(err, PersistError::Io { .. }),
                    "{kind:?} at op {at_op}: {err:?}"
                );
            }
            assert_eq!(
                digest, expected_digest,
                "{kind:?} at op {at_op}: state diverged after the retry"
            );

            // And the on-disk root recovers to exactly the same state.
            let recovered = DurableMetaBlocker::recover_from(&dir, TokenKeys, 1)
                .unwrap_or_else(|e| panic!("{kind:?} at op {at_op}: recovery failed: {e:?}"));
            assert_eq!(
                state_digest(&recovered),
                expected_digest,
                "{kind:?} at op {at_op}: recovered state diverged"
            );
        }
    }
    // The seam is real: the overwhelming majority of planted faults must
    // surface.  (A few land in best-effort regions — retention cleanup —
    // whose failure is deliberately absorbed.)
    assert!(
        faults_surfaced * 10 >= injections * 8,
        "only {faults_surfaced}/{injections} faults surfaced"
    );
}

#[test]
fn enospc_without_retry_policy_is_fatal_not_retried() {
    let dataset = dataset();
    let dir = scratch("enospc-fatal");
    // Plant ENOSPC at the first WAL append (the op count of persist_to is
    // discovered by the counting run).
    let counting = FaultVfs::counting(29);
    let blocker = StreamingMetaBlocker::new(config(&dataset), TokenKeys);
    let _durable = blocker
        .persist_to_with(&dir, counting.clone(), RetryPolicy::none())
        .unwrap();
    let create_ops = counting.op_count();

    let dir = scratch("enospc-fatal-run");
    let vfs = FaultVfs::with_faults(
        29,
        vec![InjectedFault {
            at_op: create_ops, // first op after the root is created
            kind: FaultKind::Enospc,
        }],
    );
    let blocker = StreamingMetaBlocker::new(config(&dataset), TokenKeys);
    let mut durable = blocker
        .persist_to_with(&dir, vfs.clone(), RetryPolicy::default_write())
        .unwrap();
    let err = durable
        .ingest_unscored(&dataset.profiles[..8])
        .expect_err("ENOSPC must surface");
    assert!(matches!(&err, PersistError::Io { .. }), "{err:?}");
    assert!(!err.is_retryable(), "ENOSPC must be classified fatal");
    // Exactly one attempt hit the disk: the default policy retries only
    // transient errors, and ENOSPC is not one.
    let enospc_attempts = vfs
        .op_log()
        .iter()
        .skip(create_ops as usize)
        .filter(|(kind, _)| kind.is_write())
        .count();
    assert_eq!(
        enospc_attempts, 2,
        "append + rollback truncate expected, got {enospc_attempts}"
    );

    // The failed append rolled the WAL back: the blocker keeps working.
    durable.ingest_unscored(&dataset.profiles[..8]).unwrap();
    drop(durable);
    let recovered = DurableMetaBlocker::recover_from(&dir, TokenKeys, 1).unwrap();
    assert_eq!(recovered.num_entities(), 8);
    assert_eq!(recovered.wal_sequence(), 1);
}

#[test]
fn transient_faults_are_invisible_under_the_default_policy() {
    let dataset = dataset();
    let trace = build_trace(&dataset);

    // Fault-free op count first.
    let counting = FaultVfs::counting(31);
    let dir = scratch("transient-count");
    let (expected_digest, _, _) = run_with_single_retry(
        &dataset,
        &trace,
        counting.clone(),
        RetryPolicy::none(),
        &dir,
    );
    let clean_ops = counting.op_count();

    // EINTR on a scattering of ops (stride coprime to the 4-op atomic
    // write unit): the default policy absorbs every one of them.
    let faults: Vec<InjectedFault> = (0..clean_ops)
        .step_by(7)
        .map(|at_op| InjectedFault {
            at_op,
            kind: FaultKind::Transient,
        })
        .collect();
    assert!(faults.len() > 3);
    let dir = scratch("transient-run");
    let vfs = FaultVfs::with_faults(31, faults);
    let (digest, error_count, errors) = run_with_single_retry(
        &dataset,
        &trace,
        vfs.clone(),
        RetryPolicy::default_write(),
        &dir,
    );
    assert_eq!(
        error_count, 0,
        "transients leaked to the caller: {errors:?}"
    );
    assert_eq!(digest, expected_digest);
    // The retries really happened: the faulted run needed extra ops.
    assert!(
        vfs.op_count() > clean_ops,
        "no retry traffic: {} <= {clean_ops}",
        vfs.op_count()
    );

    let recovered = DurableMetaBlocker::recover_from(&dir, TokenKeys, 1).unwrap();
    assert_eq!(state_digest(&recovered), expected_digest);
    assert!(recovered.recovery_report().unwrap().is_clean());
}
