//! ALICE-style crash-point exploration: a mutation trace is run through a
//! counting VFS to enumerate every filesystem operation it performs, then
//! re-run once per operation index with a `FaultVfs` that *crashes* at that
//! op — the op applies partially (seeded prefix for writes, seeded coin for
//! renames) and every later op fails, exactly like power loss mid-syscall.
//!
//! For every crash point the recovered state must be **bit-identical** to a
//! prefix of the never-crashed run:
//!
//! * recovery lands on sequence `j` with `j_min <= j <= j_min + 1`, where
//!   `j_min` is the number of mutation calls acknowledged before the crash
//!   (the `+1` is the write-ahead window: the record reached the log but
//!   the call never returned);
//! * the recovered logical state equals the reference state after exactly
//!   `j` mutations;
//! * re-applying the remaining mutations converges on the reference final
//!   state;
//! * recovery is allowed to fail only if the crash predates the very first
//!   commit (no manifest on disk) — acknowledged data is never lost and
//!   nothing ever panics.
//!
//! The oracle hashes *logical* state (the block collection view plus
//! liveness counters), not physical bytes: compaction may re-lay-out the
//! index without changing what it represents.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_blocking::{KeyGenerator, QGramKeys, SuffixKeys, TokenKeys};
use er_core::{Dataset, EntityId, EntityProfile, PersistError, PersistResult};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::FeatureSet;
use er_persist::{manifest_path, FaultVfs, RetryPolicy, StdVfs, Vfs};
use er_stream::{DurableMetaBlocker, StreamingConfig, StreamingMetaBlocker};

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("crash-points-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dataset: &Dataset, threads: usize) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// One logical mutation of the explored trace.
#[derive(Debug, Clone)]
enum Mutation {
    Ingest(Range<usize>),
    Remove(Vec<EntityId>),
    Update(Vec<(EntityId, EntityProfile)>),
}

/// One step of the trace: a mutation or a generation commit.
#[derive(Debug, Clone)]
enum Step {
    Mutate(Mutation),
    Checkpoint,
}

/// A short deterministic trace interleaving every mutation kind with two
/// checkpoints, so crash points cover WAL appends, snapshot writes, WAL
/// creation, manifest flips and retention removals.
fn build_trace(dataset: &Dataset) -> Vec<Step> {
    let n = dataset.num_entities();
    assert!(n >= 38, "trace needs at least 38 profiles, got {n}");
    vec![
        Step::Mutate(Mutation::Ingest(0..12)),
        Step::Mutate(Mutation::Ingest(12..22)),
        Step::Mutate(Mutation::Remove(vec![EntityId(3), EntityId(17)])),
        Step::Checkpoint,
        Step::Mutate(Mutation::Ingest(22..30)),
        Step::Mutate(Mutation::Update(vec![
            (EntityId(5), dataset.profiles[31].clone()),
            (EntityId(20), dataset.profiles[0].clone()),
        ])),
        Step::Checkpoint,
        Step::Mutate(Mutation::Ingest(30..38)),
        Step::Mutate(Mutation::Remove(vec![EntityId(25)])),
    ]
}

fn mutations(trace: &[Step]) -> Vec<Mutation> {
    trace
        .iter()
        .filter_map(|s| match s {
            Step::Mutate(m) => Some(m.clone()),
            Step::Checkpoint => None,
        })
        .collect()
}

/// Digest of the *logical* streaming state: the materialised block
/// collection plus the liveness counters.  Physical CSR layout (which
/// compaction rewrites) deliberately does not participate.
fn state_digest(
    view: &er_blocking::CsrBlockCollection,
    num_entities: usize,
    num_alive: usize,
) -> u64 {
    let blocks: Vec<_> = (0..view.num_blocks())
        .map(|b| (view.key(b), view.entities(b)))
        .collect();
    er_core::crc64(format!("{blocks:?}|{num_entities}|{num_alive}").as_bytes())
}

/// The reference run: digests after 0, 1, ..., M mutations, never crashed,
/// never persisted.
fn reference_digests<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    mutations: &[Mutation],
    threads: usize,
) -> Vec<u64> {
    let mut blocker = StreamingMetaBlocker::new(config(dataset, threads), generator);
    let mut digests = vec![state_digest(
        &blocker.view(),
        blocker.num_entities(),
        blocker.num_alive(),
    )];
    for mutation in mutations {
        apply_plain(&mut blocker, dataset, mutation);
        digests.push(state_digest(
            &blocker.view(),
            blocker.num_entities(),
            blocker.num_alive(),
        ));
    }
    digests
}

fn apply_plain<G: KeyGenerator>(
    blocker: &mut StreamingMetaBlocker<G>,
    dataset: &Dataset,
    mutation: &Mutation,
) {
    match mutation {
        Mutation::Ingest(range) => {
            blocker.ingest_unscored(&dataset.profiles[range.clone()]);
        }
        Mutation::Remove(ids) => {
            blocker.remove(ids);
        }
        Mutation::Update(updates) => {
            blocker.update(updates);
        }
    }
}

fn apply_durable<G: KeyGenerator>(
    durable: &mut DurableMetaBlocker<G>,
    dataset: &Dataset,
    mutation: &Mutation,
) -> PersistResult<()> {
    match mutation {
        Mutation::Ingest(range) => durable.ingest_unscored(&dataset.profiles[range.clone()])?,
        Mutation::Remove(ids) => durable.remove(ids)?,
        Mutation::Update(updates) => durable.update(updates)?,
    };
    Ok(())
}

/// Runs the full trace through a durable blocker on `vfs`.  Returns the
/// number of *acknowledged* mutation calls and the first error, if any.
fn run_trace<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    trace: &[Step],
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    threads: usize,
) -> (usize, Option<PersistError>) {
    let blocker = StreamingMetaBlocker::new(config(dataset, threads), generator);
    let mut durable = match blocker.persist_to_with(dir, vfs, RetryPolicy::default_write()) {
        Ok(durable) => durable,
        Err(err) => return (0, Some(err)),
    };
    let mut acknowledged = 0usize;
    for step in trace {
        let result = match step {
            Step::Mutate(mutation) => match apply_durable(&mut durable, dataset, mutation) {
                Ok(()) => {
                    acknowledged += 1;
                    Ok(())
                }
                Err(err) => Err(err),
            },
            Step::Checkpoint => durable.checkpoint(),
        };
        if let Err(err) = result {
            return (acknowledged, Some(err));
        }
    }
    (acknowledged, None)
}

/// The exploration: enumerate the trace's ops, crash at every single one,
/// recover, audit.
fn explore<G: KeyGenerator + Clone>(dataset: &Dataset, generator: G, tag: &str) {
    let threads = 2;
    let trace = build_trace(dataset);
    let all_mutations = mutations(&trace);
    let digests = reference_digests(dataset, generator.clone(), &all_mutations, threads);
    let final_digest = *digests.last().unwrap();

    // Counting run: how many VFS ops does the whole trace perform?
    let seed = er_core::derive_seed(0x0a11_ce00, er_core::crc64(tag.as_bytes()));
    let counting = FaultVfs::counting(seed);
    let dir = scratch(&format!("{tag}-count"));
    let (acknowledged, err) = run_trace(
        dataset,
        generator.clone(),
        &trace,
        counting.clone(),
        &dir,
        threads,
    );
    assert!(err.is_none(), "counting run failed: {err:?}");
    assert_eq!(acknowledged, all_mutations.len());
    let total_ops = counting.op_count();
    assert!(
        total_ops > 20,
        "{tag}: suspiciously few ops ({total_ops}) — is the VFS seam wired through?"
    );

    for crash_at in 0..total_ops {
        let dir = scratch(&format!("{tag}-{crash_at}"));
        let vfs = FaultVfs::crash_at(seed, crash_at);
        let (j_min, err) = run_trace(
            dataset,
            generator.clone(),
            &trace,
            vfs.clone(),
            &dir,
            threads,
        );
        assert!(
            err.is_some() || !vfs.has_crashed(),
            "{tag} crash at op {crash_at}: the crash was swallowed"
        );

        match DurableMetaBlocker::recover_from(&dir, generator.clone(), threads) {
            Ok(mut durable) => {
                let j = durable.wal_sequence() as usize;
                assert!(
                    j_min <= j && j <= j_min + 1,
                    "{tag} crash at op {crash_at}: {j_min} mutations acknowledged \
                     but recovery landed on sequence {j}"
                );
                assert_eq!(
                    state_digest(&durable.view(), durable.num_entities(), durable.num_alive()),
                    digests[j],
                    "{tag} crash at op {crash_at}: recovered state is not the \
                     reference prefix state at sequence {j}"
                );
                // The run continues from where the crash left off and
                // converges on the reference final state.
                for mutation in &all_mutations[j..] {
                    apply_durable(&mut durable, dataset, mutation)
                        .unwrap_or_else(|e| panic!("{tag} crash at op {crash_at}: {e:?}"));
                }
                assert_eq!(
                    state_digest(&durable.view(), durable.num_entities(), durable.num_alive()),
                    final_digest,
                    "{tag} crash at op {crash_at}: resumed run diverged"
                );
            }
            Err(PersistError::Io { .. }) => {
                // Unrecoverable is legal only before the very first commit:
                // nothing was ever acknowledged and no manifest exists.
                assert_eq!(
                    j_min, 0,
                    "{tag} crash at op {crash_at}: {j_min} acknowledged mutations lost"
                );
                assert!(
                    !manifest_path(&dir).exists(),
                    "{tag} crash at op {crash_at}: manifest exists but recovery failed"
                );
            }
            Err(other) => panic!("{tag} crash at op {crash_at}: {other:?}"),
        }
    }
}

fn clean_clean_dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
}

fn dirty_dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

#[test]
fn every_crash_point_recovers_clean_clean_token_keys() {
    explore(&clean_clean_dataset(), TokenKeys, "cc-token");
}

#[test]
fn every_crash_point_recovers_clean_clean_qgram_keys() {
    explore(&clean_clean_dataset(), QGramKeys::new(3), "cc-qgram");
}

#[test]
fn every_crash_point_recovers_clean_clean_suffix_keys() {
    explore(&clean_clean_dataset(), SuffixKeys::new(3, 12), "cc-suffix");
}

#[test]
fn every_crash_point_recovers_dirty_token_keys() {
    explore(&dirty_dataset(), TokenKeys, "dirty-token");
}

#[test]
fn every_crash_point_recovers_dirty_qgram_keys() {
    explore(&dirty_dataset(), QGramKeys::new(3), "dirty-qgram");
}

#[test]
fn every_crash_point_recovers_dirty_suffix_keys() {
    explore(&dirty_dataset(), SuffixKeys::new(3, 12), "dirty-suffix");
}

/// The recovery itself must go through `StdVfs` — sanity-check the seam is
/// not accidentally shared with the crashed handle.
#[test]
fn a_crashed_vfs_handle_stays_dead() {
    let dataset = clean_clean_dataset();
    let dir = scratch("dead-handle");
    let vfs = FaultVfs::crash_at(1, 5);
    let blocker = StreamingMetaBlocker::new(config(&dataset, 1), TokenKeys);
    let err = blocker
        .persist_to_with(&dir, vfs.clone(), RetryPolicy::default_write())
        .err();
    assert!(err.is_some());
    assert!(vfs.has_crashed());
    // Every subsequent op on the crashed handle keeps failing...
    assert!(vfs.read(&manifest_path(&dir)).is_err());
    // ...while a fresh production VFS sees whatever survived on disk.
    let _ = StdVfs.list(&dir).unwrap();
}
