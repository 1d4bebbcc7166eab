//! er-obs metric handles for the blocking build and the streamed
//! candidate engine, resolved once per process.
//!
//! Updates are batched: the parallel builder records once per build
//! (counts plus one timer per phase), the candidate engines once per
//! entity-range task or chunk — never per posting, per run or per pair —
//! so the hot loops stay inside the bench overhead gate.

use std::sync::OnceLock;

use er_obs::{Counter, Histogram};

pub(crate) struct BlockingObs {
    /// Whole-collection builds completed.
    pub(crate) builds: &'static Counter,
    /// Distinct blocking keys interned across builds.
    pub(crate) keys_interned: &'static Counter,
    /// Blocks that survived filtering and were emitted.
    pub(crate) blocks_emitted: &'static Counter,
    /// Postings scattered into block entity lists.
    pub(crate) postings_scattered: &'static Counter,
    /// Per-build duration of the four builder phases (ns).
    pub(crate) emit_ns: &'static Histogram,
    pub(crate) group_ns: &'static Histogram,
    pub(crate) order_ns: &'static Histogram,
    pub(crate) assemble_ns: &'static Histogram,
    /// Entity partner runs derived (gather + sort + dedup), by any engine.
    pub(crate) runs_derived: &'static Counter,
}

pub(crate) fn obs() -> &'static BlockingObs {
    static OBS: OnceLock<BlockingObs> = OnceLock::new();
    OBS.get_or_init(|| BlockingObs {
        builds: er_obs::counter(
            "blocking_builds_total",
            "Block-collection builds completed by the parallel builder",
        ),
        keys_interned: er_obs::counter(
            "blocking_keys_interned_total",
            "Distinct blocking keys interned across builds",
        ),
        blocks_emitted: er_obs::counter(
            "blocking_blocks_emitted_total",
            "Blocks that survived size/comparison filtering and were emitted",
        ),
        postings_scattered: er_obs::counter(
            "blocking_postings_scattered_total",
            "(key, entity) postings scattered into block entity lists",
        ),
        emit_ns: er_obs::histogram(
            "blocking_emit_ns",
            "Emit phase (tokenise, hash, partition) duration per build, nanoseconds",
        ),
        group_ns: er_obs::histogram(
            "blocking_group_ns",
            "Group phase (per-partition intern, dedup, counting sort) duration per build, nanoseconds",
        ),
        order_ns: er_obs::histogram(
            "blocking_order_ns",
            "Order phase (survivor key sort) duration per build, nanoseconds",
        ),
        assemble_ns: er_obs::histogram(
            "blocking_assemble_ns",
            "Assemble phase (gather into the final CSR) duration per build, nanoseconds",
        ),
        runs_derived: er_obs::counter(
            "blocking_candidate_runs_derived_total",
            "Entity partner runs derived (gather, sort, dedup) by the candidate collector and streams",
        ),
    })
}
