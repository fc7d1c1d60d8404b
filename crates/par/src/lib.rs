//! # steam-par
//!
//! The workspace's one chunk runner: generation, the v3 codec, the CSR
//! build, the report engine, the tail-fit kernels and the crawler's fan-out
//! phases all fan out through [`run_chunks`] or its worker-state form
//! [`run_chunks_with`]. `0..n_items` is cut into `chunk_size` chunks on a
//! grid the caller picks (never a function of the schedule), up to `jobs`
//! workers claim them through one atomic cursor, and results come back in
//! chunk order. Deterministic per-chunk work therefore gives the same output
//! for every `jobs`, including `jobs <= 1`, which runs inline.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunk size that cuts `n_items` into at most `jobs` contiguous pieces of
/// near-equal length (at least one item each).
pub fn per_job(n_items: usize, jobs: usize) -> usize {
    n_items.div_ceil(jobs.max(1)).max(1)
}

/// Worker threads [`run_chunks`] uses for this grid: `min(jobs, n_chunks)`,
/// with `jobs == 0` counted as one. At most one means inline.
pub fn workers(jobs: usize, n_items: usize, chunk_size: usize) -> usize {
    assert!(chunk_size > 0, "chunk_size must be positive");
    jobs.max(1).min(n_items.div_ceil(chunk_size))
}

/// Runs `f(chunk_idx, range)` for every `chunk_size`-item chunk of
/// `0..n_items` on up to `jobs` workers and returns the results in chunk
/// order. Empty input returns an empty `Vec` without calling `f`. A panic
/// inside `f` reaches the caller with its original payload once every
/// worker has stopped.
pub fn run_chunks<T, F>(jobs: usize, n_items: usize, chunk_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    run_chunks_with(jobs, n_items, chunk_size, || (), |_, c, range| f(c, range))
}

/// [`run_chunks`] with one piece of mutable state per worker: `init` runs on
/// the calling thread once per worker before that worker starts (once in
/// total when the run is inline), and every chunk the worker claims gets
/// `&mut` its state. The crawler uses it to give each fan-out worker its
/// own connection.
pub fn run_chunks_with<S, T, I, F>(
    jobs: usize,
    n_items: usize,
    chunk_size: usize,
    mut init: I,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    I: FnMut() -> S,
    F: Fn(&mut S, usize, Range<usize>) -> T + Sync,
{
    let workers = workers(jobs, n_items, chunk_size);
    let n_chunks = n_items.div_ceil(chunk_size);
    let range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n_items);
    if n_chunks == 0 {
        return Vec::new();
    }
    if workers == 1 {
        let mut state = init();
        return (0..n_chunks).map(|c| f(&mut state, c, range(c))).collect();
    }

    let cursor = AtomicUsize::new(0);
    let claimed: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let mut state = init();
                let (cursor, f, range) = (&cursor, &f, &range);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            return done;
                        }
                        done.push((c, f(&mut state, c, range(c))));
                    }
                })
            })
            .collect();
        // Joining by hand keeps a worker's panic payload; an unjoined
        // panic would surface as the scope's generic message instead.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
    for worker in claimed {
        let done = worker.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (c, out) in done {
            slots[c] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn flat_ranges(jobs: usize, n: usize, chunk: usize) -> Vec<usize> {
        let chunks = run_chunks(jobs, n, chunk, |c, r| {
            assert_eq!(r.start, c * chunk, "chunk {c} starts on the grid");
            r.collect::<Vec<_>>()
        });
        assert_eq!(chunks.len(), n.div_ceil(chunk));
        chunks.concat()
    }

    #[test]
    fn covers_every_index_exactly_once_in_order() {
        for jobs in [0, 1, 2, 7, 100] {
            for chunk in [1, 3, 64, 1000] {
                for n in [1, 23, 1000, 1001] {
                    let flat = flat_ranges(jobs, n, chunk);
                    assert_eq!(
                        flat,
                        (0..n).collect::<Vec<_>>(),
                        "jobs={jobs} chunk={chunk} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_returns_empty_vec() {
        for jobs in [0, 1, 4] {
            let out: Vec<usize> = run_chunks(jobs, 0, 64, |_, _| panic!("no chunk to run"));
            assert!(out.is_empty());
        }
        let out: Vec<()> = run_chunks_with(4, 0, 8, || panic!("no worker to start"), |_, _, _| ());
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_jobs_invariant() {
        let work = |c: usize, r: Range<usize>| -> u64 {
            r.map(|i| (i as u64).wrapping_mul(c as u64 + 1)).sum()
        };
        let serial = run_chunks(1, 10_000, 128, work);
        for jobs in [2, 5, 16] {
            assert_eq!(run_chunks(jobs, 10_000, 128, work), serial, "jobs={jobs}");
        }
        // Even split: integer chunk sums merge to the serial total.
        let data: Vec<u64> = (0..1000).map(|i| i * i).collect();
        for jobs in [1, 2, 5, 16] {
            let sums = run_chunks(jobs, data.len(), per_job(data.len(), jobs), |_, r| {
                data[r].iter().sum::<u64>()
            });
            assert_eq!(sums.len(), jobs.min(data.len()), "jobs={jobs}");
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
    }

    #[test]
    fn distinct_worker_threads_stay_within_bound() {
        for (jobs, n, chunk) in [(0, 50, 1), (1, 50, 1), (3, 50, 1), (8, 20, 7), (100, 5, 1)] {
            let seen = Mutex::new(HashSet::new());
            run_chunks(jobs, n, chunk, |_, _| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            });
            let bound = workers(jobs, n, chunk);
            assert_eq!(bound, jobs.max(1).min(n.div_ceil(chunk)));
            let seen = seen.into_inner().unwrap();
            assert!(
                seen.len() <= bound,
                "jobs={jobs}: {} threads > {bound}",
                seen.len()
            );
            if bound == 1 {
                assert!(
                    seen.contains(&std::thread::current().id()),
                    "inline run spawned"
                );
            }
        }
    }

    #[test]
    fn worker_state_is_initialized_once_per_worker() {
        for jobs in [1, 3, 8] {
            let mut inits = 0;
            let out = run_chunks_with(
                jobs,
                40,
                1,
                || {
                    inits += 1;
                    0usize
                },
                |claimed, c, _| {
                    *claimed += 1;
                    (c, *claimed)
                },
            );
            assert_eq!(inits, workers(jobs, 40, 1), "jobs={jobs}");
            assert!(out.iter().enumerate().all(|(i, &(c, n))| i == c && n >= 1));
        }
    }

    #[test]
    fn chunk_panic_reaches_caller_with_its_message() {
        for jobs in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_chunks(jobs, 100, 1, |c, _| {
                    if c == 37 {
                        panic!("chunk {c} failed");
                    }
                    c
                })
            })
            .expect_err("the panic must propagate");
            let msg = caught
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert_eq!(msg, "chunk 37 failed", "jobs={jobs}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn any_grid_covers_every_index_in_order(
            n in 0usize..500,
            jobs in 0usize..12,
            chunk in 1usize..80,
        ) {
            proptest::prop_assert_eq!(flat_ranges(jobs, n, chunk), (0..n).collect::<Vec<_>>());
        }
    }
}
