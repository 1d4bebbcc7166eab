//! er-obs metric handles for the streaming CRUD path, resolved once per
//! process.  Everything is recorded once per mutation batch (in
//! [`StreamingMetaBlocker::emit`](crate::StreamingMetaBlocker), the
//! indexes' `finish_batch` and `compact`, and the cached key order's
//! merge) or once per batch phase, never per pair, per entity or per key.

use std::sync::OnceLock;

use er_obs::{Counter, Gauge, Histogram};

pub(crate) struct StreamObs {
    /// Ingest batches applied.
    pub(crate) ingest_batches: &'static Counter,
    /// Remove batches applied.
    pub(crate) remove_batches: &'static Counter,
    /// Update batches applied.
    pub(crate) update_batches: &'static Counter,
    /// Entities ingested.
    pub(crate) entities_ingested: &'static Counter,
    /// Entities removed.
    pub(crate) entities_removed: &'static Counter,
    /// Entities updated.
    pub(crate) entities_updated: &'static Counter,
    /// Pairs newly emitted by delta batches.
    pub(crate) delta_additions: &'static Counter,
    /// Pairs retracted by delta batches.
    pub(crate) delta_retractions: &'static Counter,
    /// Previously retracted pairs revived by delta batches.
    pub(crate) delta_revivals: &'static Counter,
    /// Surviving pairs re-scored by delta batches.
    pub(crate) delta_rescored: &'static Counter,
    /// Delta-batch size distribution (additions + retractions per batch).
    pub(crate) delta_pairs: &'static Histogram,
    /// Compactions folded into a fresh baseline.
    pub(crate) compactions: &'static Counter,
    /// Compaction duration, nanoseconds.
    pub(crate) compaction_ns: &'static Histogram,
    /// Keys sorted into the cached key order by compactions.
    pub(crate) compaction_keys_sorted: &'static Counter,
    /// Distinct keys added to a streaming key dictionary.
    pub(crate) keys_interned: &'static Counter,
    /// Heap bytes of the key dictionary (arena plus lookup slots).
    pub(crate) key_table_bytes: &'static Gauge,
    /// Per-entity batch phases split across more than one worker.
    pub(crate) parallel_phases: &'static Counter,
}

/// Records one finished batch's key dictionary: `interned` keys added since
/// the previous batch, `bytes` held now.
pub(crate) fn record_key_table(interned: usize, bytes: usize) {
    let o = obs();
    o.keys_interned.add(interned as u64);
    o.key_table_bytes.set(bytes as u64);
}

pub(crate) fn obs() -> &'static StreamObs {
    static OBS: OnceLock<StreamObs> = OnceLock::new();
    OBS.get_or_init(|| StreamObs {
        ingest_batches: er_obs::counter(
            "streaming_ingest_batches_total",
            "Ingest batches applied to the streaming blocker",
        ),
        remove_batches: er_obs::counter(
            "streaming_remove_batches_total",
            "Remove batches applied to the streaming blocker",
        ),
        update_batches: er_obs::counter(
            "streaming_update_batches_total",
            "Update batches applied to the streaming blocker",
        ),
        entities_ingested: er_obs::counter(
            "streaming_entities_ingested_total",
            "Entities ingested into the streaming blocker",
        ),
        entities_removed: er_obs::counter(
            "streaming_entities_removed_total",
            "Entities removed from the streaming blocker",
        ),
        entities_updated: er_obs::counter(
            "streaming_entities_updated_total",
            "Entities updated in place in the streaming blocker",
        ),
        delta_additions: er_obs::counter(
            "streaming_delta_additions_total",
            "Candidate pairs newly emitted by delta batches",
        ),
        delta_retractions: er_obs::counter(
            "streaming_delta_retractions_total",
            "Candidate pairs retracted by delta batches",
        ),
        delta_revivals: er_obs::counter(
            "streaming_delta_revivals_total",
            "Previously retracted pairs revived by delta batches",
        ),
        delta_rescored: er_obs::counter(
            "streaming_delta_rescored_total",
            "Surviving pairs re-scored by delta batches",
        ),
        delta_pairs: er_obs::histogram(
            "streaming_delta_pairs",
            "Delta-batch size distribution: additions + retractions per batch",
        ),
        compactions: er_obs::counter(
            "streaming_compactions_total",
            "Posting-delta compactions folded into a fresh baseline",
        ),
        compaction_ns: er_obs::histogram(
            "streaming_compaction_ns",
            "Compaction duration, nanoseconds",
        ),
        compaction_keys_sorted: er_obs::counter(
            "stream_compaction_keys_sorted_total",
            "Keys a compaction sorted into the cached lexicographic key order \
             (live keys the cache did not hold yet)",
        ),
        keys_interned: er_obs::counter(
            "streaming_keys_interned_total",
            "Distinct keys added to the streaming key dictionary (live or not)",
        ),
        key_table_bytes: er_obs::gauge(
            "streaming_key_table_bytes",
            "Heap bytes of the streaming key dictionary: key text arena plus lookup slots",
        ),
        parallel_phases: er_obs::counter(
            "streaming_parallel_phases_total",
            "Per-entity batch phases (ingest partner gathering, remove and update \
             before-images, update after-images) split across more than one worker",
        ),
    })
}
