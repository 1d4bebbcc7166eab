//! The workspace's shared data-parallel driver.
//!
//! Every parallel hot path — candidate enumeration, feature-matrix
//! construction, fused probability scoring — uses the same two primitives
//! built on `std::thread::scope`:
//!
//! * [`fill_rows_parallel`]: workers pull row-aligned chunks of one output
//!   slice from a shared queue and fill them in place (work stealing, so a
//!   skewed chunk cannot serialise the whole pass the way fixed per-thread
//!   partitions can);
//! * [`map_ranges_parallel`]: workers pull contiguous index ranges from an
//!   atomic cursor and return one value per range, re-assembled in range
//!   order so results are deterministic regardless of scheduling.

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

/// Fills `out` — a row-major buffer of `row_width`-wide rows — by handing
/// row-aligned chunks of about `chunk_rows` rows to `threads` workers.
///
/// `fill` receives `(first_row_index, chunk)` and must write every element of
/// `chunk`.  Chunks are pulled from a shared queue, so fast workers steal the
/// remaining work from slow ones.  With `threads <= 1` the whole buffer is
/// filled on the calling thread.
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
    if threads <= 1 {
        fill(0, out);
        return;
    }
    let chunk_rows = chunk_rows.max(1);
    let queue = Mutex::new(out.chunks_mut(chunk_rows * row_width).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("chunk queue poisoned").next();
                let Some((index, chunk)) = next else { break };
                fill(index * chunk_rows, chunk);
            });
        }
    });
}

/// Runs `num_tasks` tasks on up to `threads` workers, each worker carrying
/// its own scratch state (built once per worker by `init`).
///
/// Tasks are pulled from an atomic cursor, so fast workers steal remaining
/// work; `run` receives `(task_index, &mut state)`.  With `threads <= 1`
/// everything runs on the calling thread with a single state.
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
/// and the result still holds one entry per task, in task order.
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

    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Option<T>> = Vec::new();
    buckets.resize_with(num_tasks, || None);
    let slots = Mutex::new(&mut buckets);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let task = cursor.fetch_add(1, Ordering::Relaxed);
                if task >= num_tasks {
                    break;
                }
                let value = f(range_of(task));
                slots.lock().expect("result slots poisoned")[task] = Some(value);
            });
        }
    });
    buckets
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
}
