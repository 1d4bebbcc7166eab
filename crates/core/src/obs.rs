//! er-obs metric handles for the cleaned live view, resolved once per
//! process.  Everything is recorded once per [`crate::LiveView`] refresh,
//! never per entity or pair.

use std::sync::OnceLock;

use er_obs::{Counter, Histogram};

pub(crate) struct LiveViewObs {
    /// Refresh duration, nanoseconds.
    pub(crate) refresh_ns: &'static Histogram,
    /// Entities whose kept set a refresh recomputed.
    pub(crate) dirty_entities: &'static Counter,
    /// Entities whose kept set moved, so their partners were re-derived.
    pub(crate) rederived_entities: &'static Counter,
}

pub(crate) fn live_view() -> &'static LiveViewObs {
    static OBS: OnceLock<LiveViewObs> = OnceLock::new();
    OBS.get_or_init(|| LiveViewObs {
        refresh_ns: er_obs::histogram(
            "live_view_refresh_ns",
            "Cleaned live view refresh duration, nanoseconds",
        ),
        dirty_entities: er_obs::counter(
            "live_view_dirty_entities_total",
            "Entities whose kept block set a live view refresh recomputed",
        ),
        rederived_entities: er_obs::counter(
            "live_view_rederived_entities_total",
            "Dirty entities whose kept block set changed, so their cleaned \
             candidate partners were re-derived",
        ),
    })
}
