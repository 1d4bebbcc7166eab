//! ALICE-style crash-point exploration for the **sharded** durable
//! service: the trace is run once through a counting VFS to enumerate
//! every filesystem operation — WAL appends and group commits across all
//! per-shard logs, router + shard snapshot writes, WAL creations, the
//! manifest flip, retention removals — then re-run once per operation
//! index with a `FaultVfs` that crashes at that op.
//!
//! For every crash point, recovery must land **all shards on the same
//! committed batch boundary**: a sequence `j` with
//! `j_min <= j <= j_min + G` (where `j_min` counts acknowledged mutations
//! and `G` is the largest group size — records of an unacknowledged group
//! may be durable on some WALs and lost on others), whose state is
//! bit-identical to the reference prefix after exactly `j` mutations.  A
//! mixed generation set (one shard recovering to a different boundary
//! than its siblings) surfaces as a `Corrupt` error, which the
//! exploration treats as an outright failure.  Re-applying the remaining
//! mutations must converge on the reference final state; recovery may
//! fail only if the crash predates the very first commit.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_blocking::{KeyGenerator, QGramKeys, SuffixKeys, TokenKeys};
use er_core::{Dataset, EntityId, EntityProfile, PersistError, PersistResult};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::FeatureSet;
use er_persist::{manifest_path, FaultVfs, RetryPolicy, Vfs};
use er_shard::{DurableShardedService, ShardedStreamingService};
use er_stream::{MutationRecord, StreamingConfig};

/// Largest group size in the trace — the write-ahead window of a crash.
const MAX_GROUP: usize = 2;

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("shard-crash-{test}"));
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

impl Mutation {
    fn record(&self, dataset: &Dataset) -> MutationRecord {
        match self {
            Mutation::Ingest(range) => {
                MutationRecord::Ingest(dataset.profiles[range.clone()].to_vec())
            }
            Mutation::Remove(ids) => MutationRecord::Remove(ids.clone()),
            Mutation::Update(updates) => MutationRecord::Update(updates.clone()),
        }
    }
}

/// One step of the trace: a single logged mutation, a group commit of
/// several, or a cross-shard checkpoint.
#[derive(Debug, Clone)]
enum Step {
    Single(Mutation),
    Group(Vec<Mutation>),
    Checkpoint,
}

/// A short deterministic trace interleaving every mutation kind, single
/// and group-committed appends, and two checkpoints — so crash points
/// cover striped WAL appends, multi-WAL group commits, router and
/// per-shard snapshot writes, per-shard WAL creation, the manifest flip
/// and retention removals.
fn build_trace(dataset: &Dataset) -> Vec<Step> {
    let n = dataset.num_entities();
    assert!(n >= 38, "trace needs at least 38 profiles, got {n}");
    vec![
        Step::Group(vec![Mutation::Ingest(0..10), Mutation::Ingest(10..16)]),
        Step::Single(Mutation::Remove(vec![EntityId(3), EntityId(11)])),
        Step::Checkpoint,
        Step::Group(vec![
            Mutation::Ingest(16..24),
            Mutation::Update(vec![
                (EntityId(5), dataset.profiles[30].clone()),
                (EntityId(12), dataset.profiles[1].clone()),
            ]),
        ]),
        Step::Checkpoint,
        Step::Single(Mutation::Ingest(24..32)),
        Step::Group(vec![
            Mutation::Remove(vec![EntityId(20)]),
            Mutation::Ingest(32..38),
        ]),
    ]
}

fn mutations(trace: &[Step]) -> Vec<Mutation> {
    let mut flat = Vec::new();
    for step in trace {
        match step {
            Step::Single(m) => flat.push(m.clone()),
            Step::Group(group) => flat.extend(group.iter().cloned()),
            Step::Checkpoint => {}
        }
    }
    flat
}

/// Digest of the *logical* state: the materialised block collection plus
/// the liveness counters.
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

/// The reference run: digests after 0, 1, ..., M mutations through an
/// in-memory sharded service, never crashed, never persisted.
fn reference_digests<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    mutations: &[Mutation],
    num_shards: usize,
    threads: usize,
) -> Vec<u64> {
    let mut service =
        ShardedStreamingService::new(config(dataset, threads), generator, num_shards).unwrap();
    let mut digests = vec![state_digest(
        &service.view(),
        service.num_entities(),
        service.num_alive(),
    )];
    for mutation in mutations {
        service.apply(&mutation.record(dataset), false);
        digests.push(state_digest(
            &service.view(),
            service.num_entities(),
            service.num_alive(),
        ));
    }
    digests
}

fn apply_durable<G: KeyGenerator>(
    durable: &mut DurableShardedService<G>,
    dataset: &Dataset,
    mutation: &Mutation,
) -> PersistResult<()> {
    match mutation {
        Mutation::Ingest(range) => durable.ingest_unscored(&dataset.profiles[range.clone()])?,
        Mutation::Remove(ids) => durable.remove_unscored(ids)?,
        Mutation::Update(updates) => durable.update_unscored(updates)?,
    };
    Ok(())
}

/// Runs the full trace through a durable sharded service on `vfs`.
/// Returns the number of *acknowledged* mutations (a group acknowledges
/// all of its batches at once, or none) and the first error, if any.
fn run_trace<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    trace: &[Step],
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    num_shards: usize,
    threads: usize,
) -> (usize, Option<PersistError>) {
    let service =
        match ShardedStreamingService::new(config(dataset, threads), generator, num_shards) {
            Ok(service) => service,
            Err(err) => return (0, Some(err)),
        };
    let mut durable = match service.persist_to_with(dir, vfs, RetryPolicy::default_write()) {
        Ok(durable) => durable,
        Err(err) => return (0, Some(err)),
    };
    let mut acknowledged = 0usize;
    for step in trace {
        let result = match step {
            Step::Single(mutation) => match apply_durable(&mut durable, dataset, mutation) {
                Ok(()) => {
                    acknowledged += 1;
                    Ok(())
                }
                Err(err) => Err(err),
            },
            Step::Group(group) => {
                let records: Vec<MutationRecord> =
                    group.iter().map(|m| m.record(dataset)).collect();
                match durable.apply_group_unscored(&records) {
                    Ok(_) => {
                        acknowledged += group.len();
                        Ok(())
                    }
                    Err(err) => Err(err),
                }
            }
            Step::Checkpoint => durable.checkpoint(),
        };
        if let Err(err) = result {
            return (acknowledged, Some(err));
        }
    }
    (acknowledged, None)
}

/// The exploration: enumerate the trace's ops, crash at every single one,
/// recover, audit.  `expected_ops` pins the trace's VFS op count: the
/// sharded write path must keep issuing exactly the syscalls it did before
/// the unsharded wrappers moved onto the same store.
fn explore<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    num_shards: usize,
    tag: &str,
    expected_ops: u64,
) {
    let threads = 2;
    let trace = build_trace(dataset);
    let all_mutations = mutations(&trace);
    let digests = reference_digests(
        dataset,
        generator.clone(),
        &all_mutations,
        num_shards,
        threads,
    );
    let final_digest = *digests.last().unwrap();

    // Counting run: how many VFS ops does the whole trace perform?
    let seed = er_core::derive_seed(0x54a4_d000, er_core::crc64(tag.as_bytes()));
    let counting = FaultVfs::counting(seed);
    let dir = scratch(&format!("{tag}-count"));
    let (acknowledged, err) = run_trace(
        dataset,
        generator.clone(),
        &trace,
        counting.clone(),
        &dir,
        num_shards,
        threads,
    );
    assert!(err.is_none(), "counting run failed: {err:?}");
    assert_eq!(acknowledged, all_mutations.len());
    let total_ops = counting.op_count();
    assert_eq!(
        total_ops, expected_ops,
        "{tag}: the trace's VFS op count moved"
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
            num_shards,
            threads,
        );
        assert!(
            err.is_some() || !vfs.has_crashed(),
            "{tag} crash at op {crash_at}: the crash was swallowed"
        );

        match DurableShardedService::recover_from(&dir, generator.clone(), threads) {
            Ok(mut durable) => {
                let j = durable.wal_sequence() as usize;
                assert!(
                    j_min <= j && j <= j_min + MAX_GROUP,
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
            // `Corrupt` here would mean the shards recovered to *different*
            // batch boundaries — the exact failure the cross-shard manifest
            // exists to prevent.
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
fn every_crash_point_recovers_clean_clean_token_keys_three_shards() {
    explore(&clean_clean_dataset(), TokenKeys, 3, "cc-token-3", 128);
}

#[test]
fn every_crash_point_recovers_dirty_suffix_keys_two_shards() {
    explore(
        &dirty_dataset(),
        SuffixKeys::new(3, 12),
        2,
        "dirty-suffix-2",
        102,
    );
}

#[test]
fn every_crash_point_recovers_dirty_qgram_keys_four_shards() {
    explore(&dirty_dataset(), QGramKeys::new(3), 4, "dirty-qgram-4", 154);
}
