//! Allocation guards for the streaming key dictionary.  Interning `N` fresh
//! keys appends to a few arrays that grow by doubling, so it makes
//! O(log N) allocator calls, never one per key; interning keys the
//! dictionary already holds — the bulk of every ingest — makes none.
//!
//! The allocation counter is process-wide, so the tests of this binary take
//! turns and read the calling thread's own count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use er_blocking::{KeyGenerator, KeyScratch, KeyTable, TokenKeys};
use er_core::{DatasetKind, EntityProfile};
use er_datasets::{dirty_catalog, generate_dirty, CatalogOptions};
use er_stream::{DeltaIndex, ShardedIndex, StreamingIndex};

struct CountingAllocator;

thread_local! {
    /// Allocator calls made by this thread.  Const-initialised and without
    /// a destructor, so touching it never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter increment, which touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static TURN: Mutex<()> = Mutex::new(());

/// Allocator calls made by the calling thread while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, THREAD_ALLOCATIONS.with(Cell::get) - before)
}

/// `n` distinct keys, allocated before anything is counted.
fn fresh_keys(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("key-{:x}", (i as u64).wrapping_mul(0x9e37_79b9)))
        .collect()
}

/// The allowance for `arrays` arrays each doubling from empty to hold `n`
/// entries: one allocation per doubling, plus slack for the first few.
fn doubling_budget(arrays: u64, n: usize) -> u64 {
    arrays * (u64::from(n.ilog2()) + 4)
}

#[test]
fn interning_fresh_keys_makes_logarithmically_many_allocations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for n in [1_000usize, 100_000] {
        let keys = fresh_keys(n);

        // The table: text, offsets and slots.
        let mut table = KeyTable::default();
        let ((), allocations) = allocations_during(|| {
            for key in &keys {
                table.intern(key);
            }
        });
        assert_eq!(table.len(), n);
        assert!(
            allocations <= doubling_budget(3, n),
            "{n} fresh keys made {allocations} allocations in the key table"
        );

        // The index adds its per-key arrays: statistics, batch marks, and
        // the (still empty) delta and tombstone lists.
        let mut index = StreamingIndex::new("alloc", DatasetKind::Dirty, 0, usize::MAX);
        let ((), allocations) = allocations_during(|| {
            for key in &keys {
                index.intern(key);
            }
        });
        assert_eq!(index.num_keys(), n);
        assert!(
            allocations <= doubling_budget(7, n),
            "{n} fresh keys made {allocations} allocations in the index"
        );
    }
}

/// The reusable buffers of a tokenise-and-intern pass, as the blocker
/// keeps them across a batch.
#[derive(Default)]
struct Scratch {
    case: String,
    keys: KeyScratch,
    raw: Vec<u32>,
}

/// Tokenises and interns every key of `profiles`, one profile at a time.
fn intern_all<I: DeltaIndex>(index: &mut I, profiles: &[EntityProfile], scratch: &mut Scratch) {
    let Scratch { case, keys, raw } = scratch;
    for profile in profiles {
        raw.clear();
        for attribute in &profile.attributes {
            er_core::tokenize::for_each_token(&attribute.value, case, |token| {
                TokenKeys.for_each_key(token, keys, &mut |key| raw.push(index.intern(key)));
            });
        }
    }
}

#[test]
fn interning_a_batch_of_known_keys_allocates_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap();
    let batch = &dataset.profiles[..64];
    let mut scratch = Scratch::default();

    let mut single = StreamingIndex::new("alloc", dataset.kind, dataset.split, usize::MAX);
    let mut sharded = ShardedIndex::new("alloc", dataset.kind, dataset.split, usize::MAX, 3);
    // First sight interns the batch's keys; the second pass finds them all.
    intern_all(&mut single, &dataset.profiles, &mut scratch);
    intern_all(&mut sharded, &dataset.profiles, &mut scratch);
    let known = single.num_keys();
    assert!(known > 100, "the corpus should hold a real vocabulary");

    let ((), allocations) = allocations_during(|| intern_all(&mut single, batch, &mut scratch));
    assert_eq!(allocations, 0, "a 64-entity batch of known keys allocated");
    assert_eq!(single.num_keys(), known);

    let ((), allocations) = allocations_during(|| intern_all(&mut sharded, batch, &mut scratch));
    assert_eq!(
        allocations, 0,
        "a sharded 64-entity batch of known keys allocated"
    );
    assert_eq!(DeltaIndex::num_keys(&sharded), known);
}
