//! er-obs metric handles for the durability layer, resolved once per
//! process.  Everything is recorded at IO-operation or recovery
//! granularity: one registry touch per append group, per snapshot write,
//! per retry decision, per recovery — never per byte or per record.

use std::sync::OnceLock;

use er_obs::{Counter, Family, Histogram};

pub(crate) struct PersistObs {
    /// WAL append writes issued (one per group, retries included).
    pub(crate) wal_appends: &'static Counter,
    /// Bytes handed to WAL append writes (frames + payloads).
    pub(crate) wal_append_bytes: &'static Counter,
    /// Fsyncs issued by WAL writers (group commit keeps this below the
    /// record count).
    pub(crate) wal_fsyncs: &'static Counter,
    /// WAL fsync latency, nanoseconds.
    pub(crate) fsync_ns: &'static Histogram,
    /// Atomic snapshot-image writes (temp file + rename) performed.
    pub(crate) snapshot_writes: &'static Counter,
    /// Bytes written by atomic snapshot-image writes.
    pub(crate) snapshot_bytes: &'static Counter,
    /// Building one member's snapshot image (encode + checksum),
    /// nanoseconds: the compute half of a checkpoint, once per member.
    pub(crate) snapshot_encode_ns: &'static Histogram,
    /// Writing one member's snapshot image atomically (create, fsync,
    /// rename, directory fsync), nanoseconds: the IO half.
    pub(crate) snapshot_write_ns: &'static Histogram,
    /// Write-path retries after a transient failure.
    pub(crate) retries: &'static Counter,
    /// Errors surfaced by retried write paths, by
    /// [`PersistErrorClass`](er_core::PersistErrorClass).
    pub(crate) errors: &'static Family<Counter>,
    /// Generation-store recoveries performed.
    pub(crate) recoveries: &'static Counter,
    /// Recoveries that came back degraded (fallback generation, rebuilt
    /// manifest, incomplete WAL chain).
    pub(crate) recoveries_degraded: &'static Counter,
    /// Recovery duration (fallback walk + WAL scan), nanoseconds.
    pub(crate) recovery_ns: &'static Histogram,
    /// Bytes moved into `quarantine/` by recoveries.
    pub(crate) quarantined_bytes: &'static Counter,
    /// WAL records replayed on top of recovered snapshots.
    pub(crate) records_replayed: &'static Counter,
}

pub(crate) fn obs() -> &'static PersistObs {
    static OBS: OnceLock<PersistObs> = OnceLock::new();
    OBS.get_or_init(|| PersistObs {
        wal_appends: er_obs::counter(
            "persist_wal_appends_total",
            "WAL append writes issued (one per group commit, retries included)",
        ),
        wal_append_bytes: er_obs::counter(
            "persist_wal_append_bytes_total",
            "Bytes handed to WAL append writes (frames plus payloads)",
        ),
        wal_fsyncs: er_obs::counter("persist_wal_fsyncs_total", "Fsyncs issued by WAL writers"),
        fsync_ns: er_obs::histogram("persist_fsync_ns", "WAL fsync latency, nanoseconds"),
        snapshot_writes: er_obs::counter(
            "persist_snapshot_writes_total",
            "Atomic snapshot-image writes (temp file + fsync + rename)",
        ),
        snapshot_bytes: er_obs::counter(
            "persist_snapshot_bytes_total",
            "Bytes written by atomic snapshot-image writes",
        ),
        snapshot_encode_ns: er_obs::histogram(
            "persist_snapshot_encode_ns",
            "Building one member snapshot image of a checkpoint (encode + checksum), nanoseconds",
        ),
        snapshot_write_ns: er_obs::histogram(
            "persist_snapshot_write_ns",
            "Writing one member snapshot image of a checkpoint (create to directory fsync), nanoseconds",
        ),
        retries: er_obs::counter(
            "persist_retries_total",
            "Write-path retries after a transient failure",
        ),
        errors: er_obs::counter_family(
            "persist_errors_total",
            "Errors surfaced inside retried write paths, by class",
            "class",
            er_obs::DEFAULT_MAX_CARDINALITY,
        ),
        recoveries: er_obs::counter(
            "persist_recoveries_total",
            "Generation-store recoveries performed",
        ),
        recoveries_degraded: er_obs::counter(
            "persist_recoveries_degraded_total",
            "Recoveries that fell back past the committed generation or lost the manifest",
        ),
        recovery_ns: er_obs::histogram(
            "persist_recovery_ns",
            "Generation-store recovery duration, nanoseconds",
        ),
        quarantined_bytes: er_obs::counter(
            "persist_quarantined_bytes_total",
            "Bytes moved into quarantine/ by recoveries",
        ),
        records_replayed: er_obs::counter(
            "persist_wal_records_replayed_total",
            "WAL records replayed on top of recovered snapshots",
        ),
    })
}
