//! The workspace's shared data-parallel driver.
//!
//! Every parallel hot path — candidate enumeration, feature-matrix
//! construction, fused probability scoring, the streaming blocker's
//! per-entity phases — uses the same primitives built on
//! `std::thread::scope`:
//!
//! * [`fill_rows_parallel`]: workers pull row-aligned chunks of one output
//!   slice from a shared queue and fill them in place (work stealing, so a
//!   skewed chunk cannot serialise the whole pass the way fixed per-thread
//!   partitions can);
//! * [`map_ranges_parallel`]: workers pull contiguous index ranges from an
//!   atomic cursor and return one value per range, re-assembled in range
//!   order so results are deterministic regardless of scheduling;
//! * [`map_tasks_parallel`]: workers take prepared task values — disjoint
//!   `&mut` sub-slices of one output, cut by [`split_lengths_mut`] — and
//!   return one value per task, in task order;
//! * [`for_each_task_with_state`]: workers pull task indices from an atomic
//!   cursor, each carrying its own scratch state.  The other three run on
//!   it.
//!
//! **Worker count.**  `threads` is an upper bound, never a quota: a pass
//! starts at most one worker per task (per chunk, per range), and one
//! worker means the pass runs on the calling thread with no thread started
//! at all.  Starting a scoped thread costs tens of microseconds before it
//! does any work, and more once its core's caches are cold, so a caller
//! whose pass may be small picks its worker count from the amount of work
//! with [`workers_for`] — one rule, here, for every such caller.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker-thread count: the available parallelism, capped at 8 (the
/// feature engine saturates memory bandwidth well before high core counts).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The number of workers worth starting for a pass over `items` items:
/// one per `min_items_per_worker` items, at least one and at most
/// `threads` — `min(threads, items / min_items_per_worker).max(1)`.
///
/// A pass with fewer than `2 · min_items_per_worker` items gets one worker,
/// which the drivers below run on the calling thread.  The caller's grain
/// is the batch size below which a second worker cannot earn back its
/// start-up cost; a grain of 0 is treated as 1.
pub fn workers_for(items: usize, threads: usize, min_items_per_worker: usize) -> usize {
    threads.min(items / min_items_per_worker.max(1)).max(1)
}

/// Fills `out` — a row-major buffer of `row_width`-wide rows — by handing
/// row-aligned chunks of about `chunk_rows` rows to up to `threads` workers.
///
/// `fill` receives `(first_row_index, chunk)` and must write every element of
/// `chunk`.  Chunks are pulled from a shared queue, so fast workers steal the
/// remaining work from slow ones.  No more workers start than there are
/// chunks; with `threads <= 1`, or a single chunk, the whole buffer is filled
/// on the calling thread.
pub fn fill_rows_parallel<F>(
    out: &mut [f64],
    row_width: usize,
    threads: usize,
    chunk_rows: usize,
    fill: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if row_width == 0 || out.is_empty() {
        return;
    }
    debug_assert_eq!(out.len() % row_width, 0);
    let chunk_rows = chunk_rows.max(1);
    let chunk_len = chunk_rows * row_width;
    let num_chunks = out.len().div_ceil(chunk_len);
    if threads <= 1 || num_chunks == 1 {
        fill(0, out);
        return;
    }
    let queue = Mutex::new(out.chunks_mut(chunk_len).enumerate());
    // One task per chunk: each task takes the next chunk off the queue.
    for_each_task_with_state(
        num_chunks,
        threads,
        || (),
        |_, _| {
            let next = queue.lock().expect("chunk queue poisoned").next();
            let (index, chunk) = next.expect("one chunk per task");
            fill(index * chunk_rows, chunk);
        },
    );
}

/// Runs `num_tasks` tasks on up to `threads` workers, each worker carrying
/// its own scratch state (built once per worker by `init`).
///
/// Tasks are pulled from an atomic cursor, so fast workers steal remaining
/// work; `run` receives `(task_index, &mut state)`.  At most
/// `min(threads, num_tasks)` workers start — this is where every driver of
/// the module caps its worker count.  With `threads <= 1`, or a single
/// task, everything runs on the calling thread with a single state.
pub fn for_each_task_with_state<S, I, F>(num_tasks: usize, threads: usize, init: I, run: F)
where
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) + Sync,
{
    if num_tasks == 0 {
        return;
    }
    if threads <= 1 || num_tasks == 1 {
        let mut state = init();
        for task in 0..num_tasks {
            run(task, &mut state);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(num_tasks) {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let task = cursor.fetch_add(1, Ordering::Relaxed);
                    if task >= num_tasks {
                        break;
                    }
                    run(task, &mut state);
                }
            });
        }
    });
}

/// Splits `0..num_items` into `num_tasks` contiguous ranges, maps each range
/// with `f` on one of `threads` workers, and returns the results in range
/// order (deterministic regardless of which worker ran which range).
///
/// Ranges are `num_items.div_ceil(num_tasks)` long, so the last tasks of an
/// uneven split can come up empty (`11` items over `8` tasks fill six
/// ranges); those receive `num_items..num_items` — never an inverted range —
/// and the result still holds one entry per task, in task order.  No more
/// workers start than there are tasks; with `threads <= 1`, or a single
/// task, every range is mapped on the calling thread.
pub fn map_ranges_parallel<T, F>(num_items: usize, threads: usize, num_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if num_items == 0 {
        return Vec::new();
    }
    let num_tasks = num_tasks.clamp(1, num_items);
    let task_size = num_items.div_ceil(num_tasks);
    let range_of =
        |task: usize| (task * task_size).min(num_items)..((task + 1) * task_size).min(num_items);

    if threads <= 1 || num_tasks == 1 {
        return (0..num_tasks).map(|t| f(range_of(t))).collect();
    }

    let mut buckets: Vec<Option<T>> = Vec::new();
    buckets.resize_with(num_tasks, || None);
    let slots = Mutex::new(&mut buckets);
    for_each_task_with_state(
        num_tasks,
        threads,
        || (),
        |task, _| {
            let value = f(range_of(task));
            slots.lock().expect("result slots poisoned")[task] = Some(value);
        },
    );
    buckets
        .into_iter()
        .map(|slot| slot.expect("worker skipped a task"))
        .collect()
}

/// Splits `slice` into consecutive sub-slices of the given lengths — the
/// disjoint outputs of a [`map_tasks_parallel`] pass.  Elements past the
/// last length are left out.
///
/// # Panics
/// Panics if the lengths add up to more than `slice.len()`.
pub fn split_lengths_mut<T>(
    slice: &mut [T],
    lengths: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut rest = slice;
    lengths
        .into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            head
        })
        .collect()
}

/// Maps every task of `tasks` with `f` on up to `threads` workers and returns
/// the results in task order.
///
/// The tasks are values the caller built up front — typically disjoint
/// `&mut` sub-slices of one output, each paired with the input it covers —
/// so a pass can write its output in place without locks.  Workers pull
/// tasks from an atomic cursor like every driver of the module; with
/// `threads <= 1`, or a single task, every task runs on the calling thread.
pub fn map_tasks_parallel<T, R, F>(tasks: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    let num_tasks = tasks.len();
    let inputs: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let mut outputs: Vec<Option<R>> = Vec::new();
    outputs.resize_with(num_tasks, || None);
    let slots = Mutex::new(&mut outputs);
    for_each_task_with_state(
        num_tasks,
        threads,
        || (),
        |task, _| {
            let input = inputs[task]
                .lock()
                .expect("task inputs poisoned")
                .take()
                .expect("every task runs once");
            let value = f(input);
            slots.lock().expect("result slots poisoned")[task] = Some(value);
        },
    );
    outputs
        .into_iter()
        .map(|slot| slot.expect("worker skipped a task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rows_covers_every_row() {
        let mut out = vec![0.0f64; 5 * 997];
        fill_rows_parallel(&mut out, 5, 4, 16, |first_row, chunk| {
            for (offset, row) in chunk.chunks_mut(5).enumerate() {
                row.fill((first_row + offset) as f64);
            }
        });
        for (i, row) in out.chunks(5).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i}");
        }
    }

    #[test]
    fn fill_rows_sequential_matches_parallel() {
        let fill = |first_row: usize, chunk: &mut [f64]| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = (first_row * 3 + offset) as f64 * 0.5;
            }
        };
        let mut sequential = vec![0.0; 3 * 100];
        fill_rows_parallel(&mut sequential, 3, 1, 7, fill);
        let mut parallel = vec![0.0; 3 * 100];
        fill_rows_parallel(&mut parallel, 3, 4, 7, fill);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn fill_rows_handles_empty_and_zero_width() {
        let mut empty: Vec<f64> = Vec::new();
        fill_rows_parallel(&mut empty, 0, 4, 8, |_, _| panic!("no work expected"));
        fill_rows_parallel(&mut empty, 3, 4, 8, |_, _| panic!("no work expected"));
    }

    #[test]
    fn map_ranges_preserves_order() {
        let ranges = map_ranges_parallel(103, 4, 10, |range| range.clone());
        assert_eq!(ranges.len(), 10);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 103);
        for window in ranges.windows(2) {
            assert_eq!(window[0].end, window[1].start);
        }
    }

    #[test]
    fn map_tasks_writes_disjoint_slices_and_keeps_task_order() {
        for threads in [1, 2, 4] {
            let mut out = vec![0usize; 103];
            let tasks: Vec<(usize, &mut [usize])> = out.chunks_mut(10).enumerate().collect();
            let sums = map_tasks_parallel(tasks, threads, |(c, chunk)| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = c * 10 + j;
                }
                chunk.len()
            });
            assert_eq!(out, (0..103).collect::<Vec<_>>(), "threads {threads}");
            assert_eq!(sums, [10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 3]);
        }
        let mut items = [1, 2, 3, 4, 5, 6];
        let parts = split_lengths_mut(&mut items, [2, 0, 3]);
        assert_eq!(parts, [&mut [1, 2][..], &mut [][..], &mut [3, 4, 5][..]]);
        assert!(map_tasks_parallel(Vec::<u8>::new(), 4, |_| 0).is_empty());
    }

    #[test]
    fn map_ranges_matches_sequential() {
        let f = |range: Range<usize>| range.map(|i| i * i).sum::<usize>();
        let sequential = map_ranges_parallel(1000, 1, 16, f);
        let parallel = map_ranges_parallel(1000, 8, 16, f);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn map_ranges_empty_input() {
        let out: Vec<usize> = map_ranges_parallel(0, 4, 8, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn map_ranges_are_ascending_disjoint_and_never_inverted() {
        for num_items in [0usize, 1, 11] {
            for num_tasks in [1usize, 8, 64] {
                for threads in [1, 4] {
                    let ranges = map_ranges_parallel(num_items, threads, num_tasks, |range| range);
                    let context =
                        format!("{num_items} items, {num_tasks} tasks, {threads} threads");
                    assert_eq!(ranges.len(), num_tasks.min(num_items), "{context}");
                    let mut next = 0usize;
                    for range in &ranges {
                        assert_eq!(range.start, next, "{context}: gap or overlap at {range:?}");
                        assert!(range.start <= range.end, "{context}: inverted {range:?}");
                        assert!(range.end <= num_items, "{context}: {range:?} past the end");
                        // Slicing with the range is what callers do.
                        let _ = &vec![0u8; num_items][range.clone()];
                        next = range.end;
                    }
                    assert_eq!(next, num_items, "{context}: items left uncovered");
                }
            }
        }
    }

    #[test]
    fn stateful_tasks_cover_every_task_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..53).map(|_| AtomicU32::new(0)).collect();
        for threads in [1, 4] {
            hits.iter().for_each(|h| h.store(0, Ordering::Relaxed));
            for_each_task_with_state(
                hits.len(),
                threads,
                || 0u64,
                |task, state| {
                    *state += 1;
                    hits[task].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn workers_for_grows_one_worker_per_grain_up_to_threads() {
        assert_eq!(workers_for(0, 4, 256), 1);
        assert_eq!(workers_for(255, 4, 256), 1);
        assert_eq!(workers_for(511, 4, 256), 1);
        assert_eq!(workers_for(512, 4, 256), 2);
        assert_eq!(workers_for(50_000, 4, 256), 4);
        assert_eq!(workers_for(50_000, 1, 256), 1);
        assert_eq!(workers_for(50_000, 0, 256), 1);
        assert_eq!(workers_for(3, 8, 0), 3, "a zero grain counts as one");
    }

    /// The distinct threads that call the recorder `drive` is handed.  Both
    /// drivers below start their workers through `for_each_task_with_state`,
    /// whose start count the last test checks exactly.
    fn threads_used(drive: impl FnOnce(&(dyn Fn() + Sync))) -> usize {
        let seen = Mutex::new(std::collections::HashSet::new());
        drive(&|| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        seen.into_inner().unwrap().len()
    }

    #[test]
    fn map_ranges_starts_no_more_workers_than_tasks() {
        for (tasks, threads) in [(3usize, 8usize), (1, 4), (2, 2)] {
            let used = threads_used(|record| {
                map_ranges_parallel(100, threads, tasks, |_| record());
            });
            assert!(used <= tasks, "{tasks} tasks ran on {used} threads");
        }
    }

    #[test]
    fn fill_rows_starts_no_more_workers_than_chunks() {
        // 10 rows of width 2 in chunks of 4 rows: 3 chunks.
        let mut out = vec![0.0f64; 20];
        let used = threads_used(|record| {
            fill_rows_parallel(&mut out, 2, 8, 4, |_, chunk| {
                record();
                chunk.fill(1.0);
            });
        });
        assert!(used <= 3, "3 chunks ran on {used} threads");
        assert!(out.iter().all(|&v| v == 1.0));
    }

    /// `init` runs once per started worker, so this counts the threads the
    /// shared driver starts — including any that would find no task left.
    #[test]
    fn stateful_tasks_start_no_more_workers_than_tasks() {
        for (tasks, threads) in [(3usize, 8usize), (1, 4), (5, 2)] {
            let started = AtomicUsize::new(0);
            for_each_task_with_state(
                tasks,
                threads,
                || started.fetch_add(1, Ordering::Relaxed),
                |_, _| {},
            );
            let started = started.into_inner();
            assert_eq!(
                started,
                tasks.min(threads),
                "{tasks} tasks, {threads} threads"
            );
        }
    }
}
