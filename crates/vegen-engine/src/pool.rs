//! A dependency-free work-stealing batch executor on `std` scoped threads.
//!
//! Kernels vary wildly in compile cost (a beam-128 `fft8` is orders of
//! magnitude slower than a two-lane add), so static chunking strands
//! workers; instead each worker owns a deque of job indices, pops from its
//! own front, and steals from the *back* of the busiest victim when it runs
//! dry. Results land in their input slot, so the returned vector is always
//! in input order no matter how execution interleaved.
//!
//! ## Panic isolation
//!
//! Every job runs under `catch_unwind`, so one poisoned job can never take
//! down the worker (and with it, every job still queued on that worker's
//! deque). [`run_batch_recover`] maps each panic through a recovery
//! closure into an ordinary result, which is how the engine turns a
//! crashed compilation into a `Failed` job instead of an aborted batch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;
use vegen_trace::metrics;

/// Number of workers to use for `n` jobs: the available parallelism,
/// clamped to the job count (spawning more threads than jobs is waste).
pub fn default_threads(n: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(4, |p| p.get());
    hw.min(n).max(1)
}

/// Run every job, catching panics; slot `i` holds job `i`'s outcome.
fn run_core<T, R, F>(threads: usize, items: &[T], work: F) -> Vec<std::thread::Result<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    // `pool_job_us` is recorded in the guard so both the single-thread
    // fast path and the worker loop feed the same histogram.
    let guarded = |i: usize| {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| work(i, &items[i])));
        metrics::histogram("pool_job_us").record_duration(t.elapsed());
        r
    };
    if threads == 1 {
        return (0..n).map(guarded).collect();
    }

    // Deal job indices round-robin so each deque starts with a spread of
    // cheap and expensive jobs rather than a contiguous (and possibly
    // uniformly expensive) range.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..threads).map(|w| Mutex::new((w..n).step_by(threads).collect())).collect();
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let guarded = &guarded;
            scope.spawn(move || loop {
                let t_wait = Instant::now();
                let job = {
                    let _wait = vegen_trace::span("pool", "queue_wait");
                    // Own queue first (front: LIFO-ish locality is
                    // irrelevant here, FIFO keeps input order roughly
                    // preserved)…
                    let job = queues[me].lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                    match job {
                        Some(j) => Some(j),
                        // …then steal from the back of the fullest victim.
                        None => {
                            let victim = (0..threads).filter(|&v| v != me).max_by_key(|&v| {
                                queues[v].lock().unwrap_or_else(|e| e.into_inner()).len()
                            });
                            let stolen = victim.and_then(|v| {
                                queues[v].lock().unwrap_or_else(|e| e.into_inner()).pop_back()
                            });
                            if stolen.is_some() {
                                vegen_trace::instant("pool", "steal");
                                metrics::counter("pool_steals_total").inc();
                            }
                            stolen
                        }
                    }
                };
                if job.is_some() {
                    metrics::histogram("pool_queue_wait_us").record_duration(t_wait.elapsed());
                }
                match job {
                    Some(i) => {
                        let r = {
                            let _sp = vegen_trace::span("pool", "job");
                            guarded(i)
                        };
                        if r.is_err() {
                            vegen_trace::instant("pool", "job_panicked");
                        }
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                    }
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job ran exactly once")
        })
        .collect()
}

/// Run `work(index, &item)` over every item on `threads` workers and
/// return the results in input order. `work` runs exactly once per item;
/// a panicking job is mapped through `recover(index, &item,
/// panic_message)` into an ordinary result, so the returned vector is
/// always complete and input-ordered no matter how many jobs crashed.
pub fn run_batch_recover<T, R, F, G>(threads: usize, items: &[T], work: F, recover: G) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    G: Fn(usize, &T, String) -> R,
{
    run_core(threads, items, work)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(v) => v,
            Err(payload) => recover(i, &items[i], vegen::error::panic_message(payload.as_ref())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// [`run_batch_recover`] over jobs that must not panic.
    fn run_all<T: Sync, R: Send>(
        threads: usize,
        items: &[T],
        work: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        run_batch_recover(threads, items, work, |i, _, msg| panic!("job {i} panicked: {msg}"))
    }

    #[test]
    fn results_are_input_ordered_and_complete() {
        let items: Vec<usize> = (0..137).collect();
        for threads in [1, 2, 7, 32] {
            let out = run_all(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_all(8, &(0..64).collect::<Vec<usize>>(), |_, &x| {
            counters[x].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_jobs_still_finish() {
        // One expensive job at the front exercises the stealing path.
        let items: Vec<u64> = (0..24).map(|i| if i == 0 { 2_000_000 } else { 10 }).collect();
        let out = run_all(4, &items, |_, &spins| {
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            spins
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<()> = run_all(8, &Vec::<u8>::new(), |_, _| ());
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_job_does_not_lose_siblings() {
        // Every non-faulted job completes; the recover closure sees the
        // panic message; order is preserved.
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 3, 8] {
            let ran: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
            let out = run_batch_recover(
                threads,
                &items,
                |_, &x| {
                    ran[x].fetch_add(1, Ordering::SeqCst);
                    if x % 7 == 3 {
                        panic!("boom at {x}");
                    }
                    x as i64
                },
                |i, &x, msg| {
                    assert_eq!(i, x);
                    assert!(msg.contains(&format!("boom at {x}")), "payload preserved: {msg}");
                    -(x as i64)
                },
            );
            let want: Vec<i64> =
                items.iter().map(|&x| if x % 7 == 3 { -(x as i64) } else { x as i64 }).collect();
            assert_eq!(out, want, "threads={threads}");
            assert!(ran.iter().all(|c| c.load(Ordering::SeqCst) == 1), "threads={threads}");
        }
    }
}
