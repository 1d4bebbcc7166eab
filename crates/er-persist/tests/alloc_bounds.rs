//! Memory guards, under a counting global allocator: a corrupt sequence
//! length is refused before anything is allocated for it, and a checkpoint
//! lives in the store's two image buffers — it neither holds a third
//! image-sized block nor allocates a new one once the buffers are warm.
//!
//! The counters are process-wide and the checkpoint runs on two threads, so
//! the tests of this binary take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use er_core::{EntityId, PersistError};
use er_persist::{decode_from_slice, Decode, RetryPolicy, ShardStore, StdVfs, Writer};

struct CountingAllocator;

/// Bytes currently allocated, their high-water mark, and the largest single
/// request — the last two since the latest [`Usage::start`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// additions are relaxed counter updates that touch no memory the allocator
// hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    // Counted as a new block beside the old one, as an allocator that
    // cannot grow in place would make it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static TURN: Mutex<()> = Mutex::new(());

/// What the process allocated since `start`.
struct Usage {
    live_at_start: usize,
}

impl Usage {
    fn start() -> Usage {
        let usage = Usage {
            live_at_start: LIVE.load(Ordering::Relaxed),
        };
        usage.forget_marks();
        usage
    }

    /// Restarts the high-water mark and the largest request from now,
    /// still measured against what was live at `start`.
    fn forget_marks(&self) {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
    }

    /// The most that was live at once, over what was live at `start`.
    fn high_water(&self) -> usize {
        PEAK.load(Ordering::Relaxed)
            .saturating_sub(self.live_at_start)
    }

    fn largest_request(&self) -> usize {
        LARGEST.load(Ordering::Relaxed)
    }
}

#[test]
fn a_sequence_length_past_the_buffer_allocates_nothing_larger_than_the_input() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());

    fn refused<T: Decode + std::fmt::Debug>(input: &[u8]) {
        let usage = Usage::start();
        let err = decode_from_slice::<Vec<T>>(input).unwrap_err();
        let largest = usage.largest_request();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err:?}");
        assert!(
            largest <= input.len(),
            "{}: a {largest}-byte request for a {}-byte input",
            std::any::type_name::<T>(),
            input.len()
        );
    }

    // 64 KiB of payload behind a length that promises far more: before the
    // cap counted bytes, `Vec<Vec<EntityId>>` reserved 24 bytes per
    // *remaining byte* (1.5 MiB here, 890 MB on a 37 MB member image).
    for declared in [64 * 1024 + 1, 1 << 32, u64::MAX] {
        let mut w = Writer::new();
        w.write_u64(declared);
        w.write_raw(&vec![0u8; 64 * 1024]);
        let input = w.into_bytes();
        refused::<u32>(&input);
        refused::<u64>(&input);
        refused::<f64>(&input);
        refused::<bool>(&input);
        refused::<EntityId>(&input);
        refused::<Vec<EntityId>>(&input);
        refused::<(u32, Vec<u32>)>(&input);
        refused::<Box<str>>(&input);
    }
}

/// 64 bytes in memory, no declared encoded width, and no valid encoding.
#[derive(Debug)]
struct Wide(#[allow(dead_code)] [u64; 8]);

impl Decode for Wide {
    fn decode(_: &mut er_persist::Reader<'_>) -> er_core::PersistResult<Self> {
        Err(PersistError::Corrupt("never decodes".into()))
    }
}

#[test]
fn a_sequence_of_unknown_width_reserves_no_more_bytes_than_remain() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // As many items declared as bytes follow: plausible for all the decoder
    // knows, and 64 bytes each in memory.
    let mut w = Writer::new();
    w.write_u64(64 * 1024);
    w.write_raw(&vec![0u8; 64 * 1024]);
    let input = w.into_bytes();
    let usage = Usage::start();
    let err = decode_from_slice::<Vec<Wide>>(&input).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
    assert!(usage.largest_request() <= input.len());
}

/// Four members of different sizes; `scale` grows all of them.  Pairs are
/// encoded one by one, so an image reaches its size the way an index image
/// does — through many small writes that double the buffer as they go.
type Member = Vec<(u64, u64)>;

fn members(scale: usize) -> Vec<Member> {
    (0..4usize)
        .map(|m| {
            (0..(12_000 + m * 2_500) * scale)
                .map(|i| (i as u64, (i * 31 + m) as u64))
                .collect()
        })
        .collect()
}

/// Bytes of the largest member's snapshot file (16 per pair, the length
/// prefix, the 40-byte header).
fn largest_image(members: &[Member]) -> usize {
    members.iter().map(|m| m.len() * 16 + 8 + 40).max().unwrap()
}

#[test]
fn a_checkpoint_holds_two_images_and_allocates_none_once_warm() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alloc-bounds-checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    const TAG: u32 = 0x7e57_0005;
    const SLACK: usize = 64 * 1024;

    let (state, grown) = (members(1), members(2));
    let (image, grown_image) = (largest_image(&state), largest_image(&grown));
    assert!(image > 4 * SLACK, "images must dwarf the slack");

    // Everything the store keeps is counted from here on.
    let since_creation = Usage::start();
    let (mut store, wals) = ShardStore::create(
        StdVfs::arc(),
        RetryPolicy::none(),
        &dir,
        TAG,
        1,
        &0u8,
        &state,
    )
    .unwrap();
    drop(wals);

    // A checkpoint of the same state: the two buffers the first generation
    // left behind are all it needs — two images' worth in total, counting
    // what the store holds between checkpoints, and no request anywhere
    // near an image (the parent built a body and copied it behind a
    // header: two fresh image-sized blocks per member).
    since_creation.forget_marks();
    drop(store.commit(TAG, &0u8, &state).unwrap());
    assert!(
        since_creation.high_water() <= 2 * image + SLACK,
        "{} bytes live during a warm checkpoint of {image}-byte images",
        since_creation.high_water()
    );
    assert!(
        since_creation.largest_request() < SLACK,
        "a warm checkpoint asked for {} bytes at once",
        since_creation.largest_request()
    );

    // Members that outgrew the buffers: the buffers grow (a `Vec`'s
    // doubling, so up to twice the new image each), still only two of them.
    drop(store.commit(TAG, &0u8, &grown).unwrap());
    let warm_again = Usage::start();
    drop(store.commit(TAG, &0u8, &grown).unwrap());
    assert!(
        warm_again.largest_request() < SLACK && warm_again.high_water() < SLACK,
        "grown buffers were not reused: {} bytes requested at once, {} over the start",
        warm_again.largest_request(),
        warm_again.high_water()
    );
    assert!(
        LIVE.load(Ordering::Relaxed) - since_creation.live_at_start <= 4 * grown_image + SLACK,
        "the store holds more than two doubled buffers"
    );

    // And every generation written on the way is a valid one.
    drop(store);
    let (_, recovered) =
        ShardStore::recover(StdVfs::arc(), RetryPolicy::none(), &dir, TAG, Some(1)).unwrap();
    assert_eq!(recovered.generation, 3);
    for (payload, member) in recovered.shard_payloads.iter().zip(&grown) {
        assert_eq!(&decode_from_slice::<Member>(payload).unwrap(), member);
    }
}
