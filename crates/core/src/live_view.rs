//! A purging/filtering-aware live view over the streaming index.
//!
//! The raw streaming emission ranks Token Blocking candidates; the batch
//! pipeline, however, cleans its blocks first — Block Purging drops
//! stop-word blocks (more than half the corpus) and Block Filtering removes
//! every entity from its largest 20% of blocks.  [`LiveView`] maintains the
//! **cleaned** candidate set incrementally so that a streaming consumer
//! ranks exactly the pairs the batch `standard_blocking_workflow_csr` would
//! produce for the current surviving corpus.
//!
//! # Representation
//!
//! Everything is a flat array indexed by stream key id or entity id — no
//! hash sets:
//!
//! * per key, a *cleaned-survivor* flag (`live ∧ |b| ≤ purging_limit`),
//!   plus the sorted list of the handful of oversized (purged) live keys,
//!   so a growing corpus can release them without a full scan;
//! * per entity, its **kept** block set as a sorted list of key ids: the
//!   `ceil(0.8 · |B_i|)` smallest cleaned blocks, ties broken in
//!   lexicographic key order — exactly the `block_filtering_csr` rule via
//!   the shared [`er_blocking::filtering_keep_count`] quota — and the
//!   entity's *rank window* (below);
//! * per entity, its cleaned candidate partners as a sorted list of entity
//!   ids: `(a, b)` is a cleaned candidate iff the pair is comparable and
//!   some block keeps *both* endpoints (any such block yields a comparison,
//!   so it survives the batch workflow's post-filtering drop).
//!
//! # Refresh
//!
//! [`LiveView::refresh`] first finds the *dirty* entities of a mutation
//! batch: the mutated entities plus the members of every touched block
//! whose change can move their kept set.  A key that *flips* cleaned status
//! changes every member's quota, so all its members are dirty.  A key that
//! only changes size while staying cleaned dirties a member only if the
//! new size leaves the member's **rank window**: every kept block of the
//! member has at most `b` members and every cut block at least `c ≥ b`.  A
//! kept block that stays strictly below `c`, or a cut block that stays
//! strictly above `b`, keeps its side of the cut — it stays strictly
//! smaller, or larger, than every block on the other side — so the kept
//! set cannot change, and the window just widens to take the new size in
//! (`b` grows or `c` shrinks).  An entity with no cut block keeps every
//! cleaned block whatever the sizes.  An entity's kept set depends only on
//! its own blocks' sizes and survivor flags, so no other entity can move.
//!
//! Pass 1 recomputes each dirty entity's kept set (which also resets its
//! window to the exact `b` and `c`) and compares it with the old one.
//! Pass 2 re-derives partners only for the entities whose kept set
//! **moved**, and merge-diffs them against the old lists.  This is exact
//! because candidacy of `(a, b)` depends only on comparability (fixed by
//! the ids) and on the two kept sets: the pair is a candidate iff some key
//! is in both.  A pair neither of whose kept sets moved keeps its
//! candidacy, and every pair that changes has a moved endpoint, whose pass
//! 2 reports it.  A pair with two moved endpoints is reported once, from
//! the smaller id; the partner list of an endpoint that did not move is
//! patched in place.  Pass 2 asks whether a member of a kept block keeps it
//! too; the member's window answers that without its kept list unless the
//! block's size equals `b`.
//!
//! Exactness is property-tested against a full rebuild after every refresh
//! (every partner list, and the reported delta against the set difference
//! of the candidate sets) under remove-heavy churn with purging-limit
//! crossings, on the Dirty scalability generator and a Clean-Clean catalog
//! dataset, and against the batch `standard_blocking_workflow_csr` on the
//! fig7/9 catalog workload.

use er_blocking::{filtering_keep_count, purging_limit, DEFAULT_FILTERING_RATIO};
use er_core::EntityId;
use er_stream::{DeltaIndex, StreamingIndex};

/// How the cleaned candidate set moved across one [`LiveView::refresh`].
#[derive(Debug, Default, Clone)]
pub struct ViewDelta {
    /// Pairs that entered the cleaned candidate set, sorted, smaller
    /// entity first.
    pub added: Vec<(EntityId, EntityId)>,
    /// Pairs that left the cleaned candidate set, sorted, smaller entity
    /// first.
    pub removed: Vec<(EntityId, EntityId)>,
}

/// Per-entity refresh state; every entity is [`Mark::Clean`] between
/// refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Clean,
    /// Kept set recomputed by this refresh.
    Dirty,
    /// Kept set recomputed and changed: partners re-derived.
    Moved,
}

/// An entity's rank window: no kept block has more than `kept` members
/// and no cut block fewer than `cut` (`u32::MAX` when every cleaned block
/// is kept).  A re-rank sets both to the exact sizes; safe size changes
/// only widen it.
#[derive(Debug, Clone, Copy)]
struct Window {
    kept: u32,
    cut: u32,
}

/// The window of an entity with no cut block.
const OPEN: Window = Window {
    kept: 0,
    cut: u32::MAX,
};

/// An incrementally maintained cleaned (purged + filtered) candidate view
/// of a [`StreamingIndex`].
#[derive(Debug)]
pub struct LiveView {
    ratio: f64,
    /// Purging threshold at the last refresh (`num_entities / 2`).
    limit: usize,
    /// Per key: survives cleaning right now (`live ∧ size ≤ limit`).
    unpurged: Vec<bool>,
    /// Live keys currently suppressed only by the purging limit, sorted
    /// ascending; the only keys a limit increase can release.
    oversized: Vec<u32>,
    /// Per entity: kept key ids (its smallest cleaned blocks), sorted
    /// ascending.
    kept: Vec<Vec<u32>>,
    /// Per entity: its rank window.
    windows: Vec<Window>,
    /// Per entity: cleaned candidate partners, sorted ascending (each pair
    /// appears in both endpoints' lists).
    partners: Vec<Vec<u32>>,
    /// Current number of cleaned candidate pairs.
    num_pairs: usize,
    /// Per entity: refresh scratch, all [`Mark::Clean`] between refreshes.
    marks: Vec<Mark>,
}

impl LiveView {
    /// Builds the view for the index's current state with the given Block
    /// Filtering ratio (see [`er_blocking::block_filtering_csr`]).
    pub fn new(index: &StreamingIndex, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "filtering ratio must be in (0, 1], got {ratio}"
        );
        let mut view = LiveView {
            ratio,
            limit: 0,
            unpurged: Vec::new(),
            oversized: Vec::new(),
            kept: Vec::new(),
            windows: Vec::new(),
            partners: Vec::new(),
            num_pairs: 0,
            marks: Vec::new(),
        };
        let all_keys: Vec<u32> = (0..index.num_keys() as u32).collect();
        let all_entities = (0..index.num_entities()).map(|e| EntityId(e as u32));
        // Every pair is new: count it, but do not list the whole candidate
        // set a second time as a delta nobody reads.
        view.apply(index, &all_keys, all_entities, false);
        view
    }

    /// Builds the view with the paper's default 0.8 filtering ratio.
    pub fn with_default_ratio(index: &StreamingIndex) -> Self {
        LiveView::new(index, DEFAULT_FILTERING_RATIO)
    }

    /// The Block Filtering ratio the view maintains.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of cleaned candidate pairs currently in the view.
    pub fn len(&self) -> usize {
        self.num_pairs
    }

    /// True if the cleaned candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.num_pairs == 0
    }

    /// True if the pair is currently a cleaned candidate.
    pub fn contains(&self, pair: (EntityId, EntityId)) -> bool {
        self.partners
            .get(pair.0.index())
            .is_some_and(|list| list.binary_search(&pair.1 .0).is_ok())
    }

    /// The full cleaned candidate set, sorted, smaller entity first.
    pub fn candidate_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut pairs = Vec::with_capacity(self.num_pairs);
        for (a, list) in self.partners.iter().enumerate() {
            let a = a as u32;
            let larger = &list[list.partition_point(|&p| p < a)..];
            pairs.extend(larger.iter().map(|&p| (EntityId(a), EntityId(p))));
        }
        pairs
    }

    /// Re-derives the cleaned candidate set for the dirty region of one
    /// mutation batch and returns exactly how the set moved.
    ///
    /// `touched_keys` is the batch's [`er_stream::DeltaBatch::touched_keys`]
    /// journal; `batch` iterates every entity the batch ingested, removed or
    /// updated ([`er_stream::DeltaBatch::batch_entities`]).
    pub fn refresh(
        &mut self,
        index: &StreamingIndex,
        touched_keys: &[u32],
        batch: impl IntoIterator<Item = EntityId>,
    ) -> ViewDelta {
        self.apply(index, touched_keys, batch, true)
    }

    /// The body of [`LiveView::refresh`]; with `report` false the moved
    /// pairs are counted but not listed.
    fn apply(
        &mut self,
        index: &StreamingIndex,
        touched_keys: &[u32],
        batch: impl IntoIterator<Item = EntityId>,
        report: bool,
    ) -> ViewDelta {
        let obs = crate::obs::live_view();
        let _timer = obs.refresh_ns.start_timer();
        self.unpurged.resize(index.num_keys(), false);
        let n = index.num_entities();
        self.kept.resize(n, Vec::new());
        self.windows.resize(n, OPEN);
        self.partners.resize(n, Vec::new());
        self.marks.resize(n, Mark::Clean);

        let dirty = self.mark_dirty(index, touched_keys, batch);
        let moved = self.rerank(index, &dirty);
        let delta = self.rederive(index, &moved, report);
        for &e in &dirty {
            self.marks[e as usize] = Mark::Clean;
        }
        obs.dirty_entities.add(dirty.len() as u64);
        obs.rederived_entities.add(moved.len() as u64);
        delta
    }

    /// Rechecks the survivor flag of every touched key (and of the
    /// oversized keys a limit increase releases) and returns the dirty
    /// entities, sorted, each marked [`Mark::Dirty`]: the batch plus every
    /// member of a touched block whose change can move the member's
    /// kept/cut boundary (see the module docs).  Blocks that stay
    /// purged-away are skipped — their sizes never enter anyone's
    /// assignment list.
    fn mark_dirty(
        &mut self,
        index: &StreamingIndex,
        touched_keys: &[u32],
        batch: impl IntoIterator<Item = EntityId>,
    ) -> Vec<u32> {
        let limit = purging_limit(index.num_entities());
        let mut dirty_keys: Vec<u32> = touched_keys.to_vec();
        if limit != self.limit {
            self.limit = limit;
            dirty_keys.extend(
                self.oversized
                    .iter()
                    .copied()
                    .filter(|&k| index.block_size(k) <= limit),
            );
            dirty_keys.sort_unstable();
            dirty_keys.dedup();
        }

        let mut dirty: Vec<u32> = Vec::new();
        let mut mark = |marks: &mut [Mark], e: u32| {
            if marks[e as usize] == Mark::Clean {
                marks[e as usize] = Mark::Dirty;
                dirty.push(e);
            }
        };
        for e in batch {
            mark(&mut self.marks, e.0);
        }
        for &k in &dirty_keys {
            let was = self.unpurged[k as usize];
            let live = index.is_block_live(k);
            let size = index.block_size(k);
            let now = live && size <= limit;
            self.unpurged[k as usize] = now;
            match (self.oversized.binary_search(&k), live && !now) {
                (Err(at), true) => self.oversized.insert(at, k),
                (Ok(at), false) => {
                    self.oversized.remove(at);
                }
                _ => {}
            }
            if was != now {
                for m in index.members(k) {
                    mark(&mut self.marks, m.0);
                }
            } else if now {
                let size = size as u32;
                for m in index.members(k) {
                    let e = m.index();
                    if self.marks[e] != Mark::Clean {
                        continue;
                    }
                    // Safe: nothing is cut (the quota keeps every cleaned
                    // block), or the block was kept and stays strictly
                    // below every cut block, or was cut and stays strictly
                    // above every kept block.  The window widens to take
                    // the new size in.
                    let window = &mut self.windows[e];
                    if window.cut == u32::MAX {
                        continue;
                    }
                    if self.kept[e].binary_search(&k).is_ok() {
                        if size < window.cut {
                            window.kept = window.kept.max(size);
                            continue;
                        }
                    } else if size > window.kept {
                        window.cut = window.cut.min(size);
                        continue;
                    }
                    mark(&mut self.marks, m.0);
                }
            }
        }
        dirty.sort_unstable();
        dirty
    }

    /// Pass 1: recomputes every dirty entity's kept set (its
    /// `ceil(ratio · |B_i|)` smallest cleaned blocks; assignment lists are
    /// built in lexicographic key order, so the stable sort by size
    /// reproduces the batch tie-break exactly) and rank window.  Returns
    /// the entities whose kept set changed, ascending, marked
    /// [`Mark::Moved`].
    fn rerank(&mut self, index: &StreamingIndex, dirty: &[u32]) -> Vec<u32> {
        let mut assignments: Vec<(u32, u32)> = Vec::new();
        let mut kept: Vec<u32> = Vec::new();
        let mut moved = Vec::new();
        for &e in dirty {
            let entity = EntityId(e);
            let e = e as usize;
            assignments.clear();
            if index.is_alive(entity) {
                for &k in index.keys_of(entity) {
                    if self.unpurged[k as usize] {
                        assignments.push((index.block_size(k) as u32, k));
                    }
                }
            }
            kept.clear();
            self.windows[e] = OPEN;
            if !assignments.is_empty() {
                assignments.sort_by_key(|&(size, _)| size);
                let keep = filtering_keep_count(assignments.len(), self.ratio);
                kept.extend(assignments[..keep].iter().map(|&(_, k)| k));
                kept.sort_unstable();
                // The exact rank window: later refreshes skip re-ranking
                // this entity for size changes that keep each block on its
                // side of the cut.
                self.windows[e] = Window {
                    kept: assignments[keep - 1].0,
                    cut: assignments.get(keep).map_or(u32::MAX, |&(size, _)| size),
                };
            }
            if self.kept[e] != kept {
                // A fresh exact-size list: a removed entity's lists are
                // released, not kept at their old capacity.
                self.kept[e] = kept.clone();
                self.marks[e] = Mark::Moved;
                moved.push(e as u32);
            }
        }
        moved
    }

    /// Whether `entity` keeps `k`, one of its cleaned blocks, now of
    /// `size` members.  The rank window answers without touching the kept
    /// list unless the size sits on the window's lower edge: a block below
    /// it cannot be cut (every cut block has at least `window.cut ≥
    /// window.kept` members), one above it cannot be kept.
    #[inline]
    fn keeps(&self, entity: usize, k: u32, size: u32) -> bool {
        let window = self.windows[entity];
        if window.cut == u32::MAX || size < window.kept {
            true
        } else if size > window.kept {
            false
        } else {
            self.kept[entity].binary_search(&k).is_ok()
        }
    }

    /// Pass 2: re-derives the partners of every moved entity against the
    /// refreshed kept sets (a pair is a candidate iff some block keeps both
    /// endpoints and the pair is comparable), diffs them against the old
    /// list, patches the lists of partners that did not move, and returns
    /// the changed pairs (listed only when `report` is set).
    fn rederive(&mut self, index: &StreamingIndex, moved: &[u32], report: bool) -> ViewDelta {
        let mut delta = ViewDelta::default();
        let (mut added, mut removed) = (0usize, 0usize);
        let mut fresh: Vec<u32> = Vec::new();
        for &e in moved {
            let entity = EntityId(e);
            fresh.clear();
            for &k in &self.kept[e as usize] {
                let size = index.block_size(k) as u32;
                for p in index.members(k) {
                    if p.0 != e && index.is_comparable(p, entity) && self.keeps(p.index(), k, size)
                    {
                        fresh.push(p.0);
                    }
                }
            }
            fresh.sort_unstable();
            fresh.dedup();
            if self.partners[e as usize] == fresh {
                continue;
            }

            // Merge-diff the two sorted lists.  A changed pair is reported
            // once: from its smaller endpoint when both moved (the
            // predicate is symmetric, so both sides agree), else from the
            // moved one, which also patches the other endpoint's list.
            let old = std::mem::replace(&mut self.partners[e as usize], fresh.clone());
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < fresh.len() {
                let (p, entered) = match (old.get(i), fresh.get(j)) {
                    (Some(&o), Some(&f)) if o == f => {
                        i += 1;
                        j += 1;
                        continue;
                    }
                    (Some(&o), Some(&f)) if f < o => {
                        j += 1;
                        (f, true)
                    }
                    (Some(&o), _) => {
                        i += 1;
                        (o, false)
                    }
                    (None, Some(&f)) => {
                        j += 1;
                        (f, true)
                    }
                    (None, None) => unreachable!(),
                };
                let other_moved = self.marks[p as usize] == Mark::Moved;
                if other_moved && p < e {
                    continue;
                }
                if !other_moved {
                    let list = &mut self.partners[p as usize];
                    match (list.binary_search(&e), entered) {
                        (Err(at), true) => list.insert(at, e),
                        (Ok(at), false) => {
                            list.remove(at);
                        }
                        _ => unreachable!("partner lists of {e} and {p} disagree"),
                    }
                }
                let pair = (EntityId(e.min(p)), EntityId(e.max(p)));
                if entered {
                    added += 1;
                    if report {
                        delta.added.push(pair);
                    }
                } else {
                    removed += 1;
                    if report {
                        delta.removed.push(pair);
                    }
                }
            }
        }
        self.num_pairs += added;
        self.num_pairs -= removed;
        delta.added.sort_unstable();
        delta.removed.sort_unstable();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::{standard_blocking_workflow_csr, CandidatePairs, TokenKeys};
    use er_core::{Dataset, FxHashSet};
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    use er_features::FeatureSet;
    use er_stream::{surviving_dataset, StreamingConfig, StreamingMetaBlocker};

    /// The batch pipeline's post-cleaning candidate set for a dataset.
    fn cleaned_batch_candidates(dataset: &Dataset) -> Vec<(EntityId, EntityId)> {
        let (cleaned, stats) = standard_blocking_workflow_csr(dataset, 2);
        if cleaned.is_empty() {
            return Vec::new();
        }
        CandidatePairs::from_stats(&stats, 2).pairs().to_vec()
    }

    /// The incremental (rank-window) refresh must agree with a full
    /// rebuild of the view at every point — the equivalence oracle for
    /// the boundary-crossing optimisation.
    fn assert_matches_full_refresh(view: &LiveView, index: &er_stream::StreamingIndex) {
        let full = LiveView::new(index, view.ratio());
        assert_eq!(
            view.candidate_pairs(),
            full.candidate_pairs(),
            "rank-window refresh diverged from a full refresh"
        );
    }

    /// Streams the dataset with churn and asserts the view equals the batch
    /// pipeline's cleaned candidate set after every mutation batch.
    fn assert_view_tracks_batch_cleaning(dataset: &Dataset) {
        let config = StreamingConfig {
            feature_set: FeatureSet::blast_optimal(),
            threads: 2,
            ..StreamingConfig::for_dataset(dataset)
        };
        let mut blocker = StreamingMetaBlocker::new(config, TokenKeys);

        // Grow the corpus in uneven chunks, refreshing the view per batch.
        let mut cursor = 0usize;
        let first = blocker.ingest(&dataset.profiles[..dataset.split.max(1)]);
        cursor += dataset.split.max(1);
        let mut view = LiveView::with_default_ratio(blocker.index());
        // (`new` covers the state before this assertion too — it is a full
        // refresh, so no separate bootstrap path needs testing.)
        let _ = first;
        while cursor < dataset.num_entities() {
            let take = 61.min(dataset.num_entities() - cursor);
            let delta = blocker.ingest(&dataset.profiles[cursor..cursor + take]);
            cursor += take;
            view.refresh(blocker.index(), &delta.touched_keys, delta.batch_entities());
            assert_matches_full_refresh(&view, blocker.index());
        }
        let full = er_stream::dataset_prefix(dataset, dataset.num_entities());
        assert_eq!(
            view.candidate_pairs(),
            cleaned_batch_candidates(&full),
            "{}: ingest-only view diverged from the cleaned batch pipeline",
            dataset.name
        );

        // Churn: remove a spread of entities, then re-key a few others with
        // donor profiles, checking the view after each batch.
        let n = dataset.num_entities();
        let removed: Vec<EntityId> = (0..n)
            .step_by((n / 13).max(1))
            .take(9)
            .map(|e| EntityId(e as u32))
            .collect();
        let delta = blocker.remove(&removed);
        view.refresh(blocker.index(), &delta.touched_keys, delta.batch_entities());
        assert_matches_full_refresh(&view, blocker.index());
        let survivors = surviving_dataset(dataset, &removed, &[]);
        assert_eq!(
            view.candidate_pairs(),
            cleaned_batch_candidates(&survivors),
            "{}: view diverged after removals",
            dataset.name
        );

        let dead: FxHashSet<u32> = removed.iter().map(|e| e.0).collect();
        let updated: Vec<(EntityId, er_core::EntityProfile)> = (0..n)
            .step_by((n / 7).max(1))
            .filter(|e| !dead.contains(&(*e as u32)))
            .take(5)
            .map(|e| {
                let donor = (e * 31 + 17) % n;
                (EntityId(e as u32), dataset.profiles[donor].clone())
            })
            .collect();
        let delta = blocker.update(&updated);
        view.refresh(blocker.index(), &delta.touched_keys, delta.batch_entities());
        assert_matches_full_refresh(&view, blocker.index());
        let survivors = surviving_dataset(dataset, &removed, &updated);
        assert_eq!(
            view.candidate_pairs(),
            cleaned_batch_candidates(&survivors),
            "{}: view diverged after updates",
            dataset.name
        );
    }

    #[test]
    fn live_view_matches_the_cleaned_batch_pipeline_on_the_fig7_9_workload() {
        for name in DatasetName::largest_two() {
            let dataset = generate_catalog_dataset(name, &CatalogOptions::tiny()).unwrap();
            assert_view_tracks_batch_cleaning(&dataset);
        }
    }

    /// Elements of sorted `a` missing from sorted `b`.
    fn sorted_difference(
        a: &[(EntityId, EntityId)],
        b: &[(EntityId, EntityId)],
    ) -> Vec<(EntityId, EntityId)> {
        a.iter()
            .copied()
            .filter(|pair| b.binary_search(pair).is_err())
            .collect()
    }

    /// Refreshes the view for one mutation batch and checks the refresh
    /// against a full rebuild: the same partner list for every entity (both
    /// halves of each pair, not only the half `candidate_pairs` reads) and
    /// a delta equal to the set difference of the candidate sets before
    /// and after.  Returns how many live keys crossed the purging limit.
    fn refresh_exactly(
        view: &mut LiveView,
        index: &er_stream::StreamingIndex,
        batch: &er_stream::DeltaBatch,
    ) -> usize {
        let before = view.candidate_pairs();
        let oversized = view.oversized.clone();
        let delta = view.refresh(index, &batch.touched_keys, batch.batch_entities());
        let after = view.candidate_pairs();

        let full = LiveView::new(index, view.ratio());
        assert_eq!(
            after,
            full.candidate_pairs(),
            "refresh diverged from a rebuild"
        );
        assert_eq!(view.len(), full.len());
        let partners = |v: &LiveView, e: usize| v.partners.get(e).cloned().unwrap_or_default();
        for e in 0..index.num_entities() {
            assert_eq!(partners(view, e), partners(&full, e), "partners of e{e}");
        }
        assert_eq!(view.oversized, full.oversized);
        assert_eq!(delta.added, sorted_difference(&after, &before), "added");
        assert_eq!(delta.removed, sorted_difference(&before, &after), "removed");

        let crossed = |from: &[u32], to: &[u32]| {
            from.iter()
                .filter(|&&k| to.binary_search(&k).is_err() && index.is_block_live(k))
                .count()
        };
        crossed(&oversized, &view.oversized) + crossed(&view.oversized, &oversized)
    }

    /// splitmix64: picks churn victims and donors without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Moves `count` random alive entities to the back of `alive` and
    /// returns them.
    fn pick(alive: &mut [u32], count: usize, rng: &mut u64) -> Vec<EntityId> {
        let count = count.min(alive.len());
        for k in 0..count {
            let last = alive.len() - 1 - k;
            let j = (next(rng) % (last as u64 + 1)) as usize;
            alive.swap(j, last);
        }
        alive[alive.len() - count..]
            .iter()
            .map(|&e| EntityId(e))
            .collect()
    }

    /// Streams `dataset` from a `seed_count` prefix in rounds of one
    /// ingest of `ingest` entities, two removal batches that together
    /// remove more than the round ingested, and a small update batch,
    /// checking every refresh with [`refresh_exactly`].  Returns how many
    /// purging-limit crossings the run saw.
    fn churn_exactly(dataset: &Dataset, seed_count: usize, ingest: usize) -> usize {
        let config = StreamingConfig {
            feature_set: FeatureSet::blast_optimal(),
            threads: 2,
            ..StreamingConfig::for_dataset(dataset)
        };
        let mut blocker = StreamingMetaBlocker::new(config, TokenKeys);
        blocker.ingest(&dataset.profiles[..seed_count]);
        let mut view = LiveView::with_default_ratio(blocker.index());
        let mut alive: Vec<u32> = (0..seed_count as u32).collect();
        let mut rng = 0x11fe_u64;
        let mut crossings = 0;
        let mut cursor = seed_count;
        while cursor < dataset.num_entities() {
            let take = ingest.min(dataset.num_entities() - cursor);
            let batch = blocker.ingest(&dataset.profiles[cursor..cursor + take]);
            alive.extend(cursor as u32..(cursor + take) as u32);
            cursor += take;
            crossings += refresh_exactly(&mut view, blocker.index(), &batch);

            // Remove-heavy: the corpus shrinks by half a round per round,
            // never below a handful of entities.
            for _ in 0..2 {
                let count = (take * 3 / 4).min(alive.len().saturating_sub(4));
                let victims = pick(&mut alive, count, &mut rng);
                alive.truncate(alive.len() - victims.len());
                let batch = blocker.remove(&victims);
                crossings += refresh_exactly(&mut view, blocker.index(), &batch);
            }

            let picked = pick(&mut alive, (take / 4).max(1), &mut rng);
            let updates: Vec<(EntityId, er_core::EntityProfile)> = picked
                .into_iter()
                .map(|e| {
                    let donor = (next(&mut rng) % dataset.num_entities() as u64) as usize;
                    (e, dataset.profiles[donor].clone())
                })
                .collect();
            let batch = blocker.update(&updates);
            crossings += refresh_exactly(&mut view, blocker.index(), &batch);
        }
        crossings
    }

    /// `dataset` with one shared stop word added to the profiles `with`
    /// picks.  Given to the whole seed, its block starts above the purging
    /// limit (half the ids ever assigned); the limit rises with every
    /// ingest and the block shrinks with every removal, so it crosses back
    /// and forth.
    fn with_stop_word(mut dataset: Dataset, with: impl Fn(usize) -> bool) -> Dataset {
        for (e, profile) in dataset.profiles.iter_mut().enumerate() {
            if with(e) {
                profile.push_attribute("stop", "zzstopword");
            }
        }
        dataset
    }

    #[test]
    fn refresh_is_exact_under_remove_heavy_churn_on_dirty_data() {
        // Many 2-member blocks that die when either member goes.
        let dataset =
            er_datasets::generate_scalability(&er_datasets::ScalabilityConfig::at_scale(480, 7))
                .unwrap();
        let dataset = with_stop_word(dataset, |e| e < 12 || e % 3 == 0);
        let crossings = churn_exactly(&dataset, 12, 24);
        assert!(crossings > 0, "no block crossed the purging limit");
    }

    #[test]
    fn refresh_is_exact_under_remove_heavy_churn_on_clean_clean_data() {
        let dataset =
            generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
        // All of E1 plus a few E2 entities: later ingests extend E2.
        let seed = dataset.split + 4;
        let dataset = with_stop_word(dataset, |e| e < seed || e % 4 == 0);
        let crossings = churn_exactly(&dataset, seed, 17);
        assert!(crossings > 0, "no block crossed the purging limit");
    }

    #[test]
    fn unknown_entities_have_no_partners() {
        let dataset =
            generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
        let config = StreamingConfig {
            feature_set: FeatureSet::blast_optimal(),
            threads: 1,
            ..StreamingConfig::for_dataset(&dataset)
        };
        let mut blocker = StreamingMetaBlocker::new(config, TokenKeys);
        blocker.ingest(&dataset.profiles);
        let view = LiveView::with_default_ratio(blocker.index());
        assert!(!view.is_empty());
        let beyond = EntityId(dataset.num_entities() as u32 + 5);
        assert!(!view.contains((beyond, EntityId(0))));
    }
}
