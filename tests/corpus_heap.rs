//! Heap guard for the generated corpora: a profile of the scalability
//! corpus is five heap blocks — its external id, its attribute list
//! (allocated at its exact length) and its three values.  Attribute names
//! are shared `Arc<str>`s, allocated once per generator, so they cost no
//! block per profile.  Owning them again per profile (and a four-slot
//! attribute list) made 8.00 blocks and 360 bytes per profile here.
//!
//! The counters are process-wide, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use gsmb::datasets::{generate_scalability, ScalabilityConfig};

struct CountingAllocator;

/// Heap blocks allocated and not yet freed, process-wide.
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn count(blocks: isize, bytes: isize) {
    LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are relaxed counter updates, none of which touches memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-1, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            // One block before and after; only its size changes.
            count(0, new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The live heap blocks and bytes `f`'s result holds: what was allocated
/// while it ran and was not freed.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let (blocks, bytes) = (
        LIVE_BLOCKS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    let value = f();
    (
        value,
        LIVE_BLOCKS.load(Ordering::Relaxed) - blocks,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Five blocks per profile, plus a constant for the dataset's own: its
/// name, the profile list, the three shared attribute names and the ground
/// truth's pair list and lookup table.  The byte bound is the layout at
/// 20 000 entities with ≈5 % to spare: a 48-byte profile record, three
/// 40-byte attributes (a 16-byte shared name and a 24-byte value header),
/// ≈73 bytes of value text, a ≈15-byte external id and ≈11 bytes of ground
/// truth per profile, ≈270 bytes in all.
#[test]
fn a_generated_corpus_holds_at_most_five_heap_blocks_per_profile() {
    const BLOCKS_PER_PROFILE: isize = 5;
    const DATASET_BLOCKS: isize = 16;
    const BYTES_PER_PROFILE: isize = 285;
    let num_entities = 20_000;
    let (dataset, blocks, bytes) =
        held_by(|| generate_scalability(&ScalabilityConfig::at_scale(num_entities, 7)).unwrap());
    let profiles = dataset.profiles.len() as isize;
    assert_eq!(profiles, num_entities as isize);
    assert!(
        blocks <= BLOCKS_PER_PROFILE * profiles + DATASET_BLOCKS,
        "{blocks} live heap blocks for {profiles} profiles ({:.2} per profile)",
        blocks as f64 / profiles as f64
    );
    assert!(
        bytes <= BYTES_PER_PROFILE * profiles,
        "{bytes} live heap bytes for {profiles} profiles ({:.1} per profile)",
        bytes as f64 / profiles as f64
    );
}
