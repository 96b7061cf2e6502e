//! A deterministic parallel experiment executor.
//!
//! Experiment sweeps (seed sensitivity, figure regeneration, the §4.4
//! comparison) are embarrassingly parallel: every run owns its own
//! seeded RNG streams and shares nothing, so running them on worker
//! threads changes wall-clock time and *nothing else*. [`run_parallel`]
//! preserves input order and produces results identical to
//! [`run_serial`] — a property the determinism regression test checks
//! byte-for-byte — using only `std::thread` scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work` over every job on a pool of scoped worker threads and
/// returns the results in input order.
///
/// The worker count is the available hardware parallelism, capped by the
/// job count. Jobs are claimed from a shared counter, so scheduling is
/// dynamic, but because each result lands in its input slot the output
/// is independent of the interleaving.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn run_parallel<T, R, F>(jobs: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.len();
    if n <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "independent runs merged in input order; tests/parallel_exec.rs proves byte-identity with serial"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let result = work(job);
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("job completed without a result")
        })
        .collect()
}

/// The single-threaded twin of [`run_parallel`]: same signature, same
/// results, one job at a time. The `--serial` escape hatch and the
/// baseline the determinism regression test compares against.
pub fn run_serial<T, R, F>(jobs: Vec<T>, work: F) -> Vec<R>
where
    F: Fn(T) -> R,
{
    jobs.into_iter().map(work).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_order_and_values() {
        let jobs: Vec<u64> = (0..57).collect();
        let work = |j: u64| j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        let serial = run_serial(jobs.clone(), work);
        let parallel = run_parallel(jobs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_job_lists_work() {
        assert_eq!(run_parallel(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(run_parallel(vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn non_clone_jobs_and_results_are_supported() {
        let jobs: Vec<String> = (0..16).map(|i| format!("job-{i}")).collect();
        let out = run_parallel(jobs, |j| j + "-done");
        assert_eq!(out[3], "job-3-done");
        assert_eq!(out.len(), 16);
    }

    // std::thread::scope re-raises with its own payload, so match the
    // generic message rather than the original one.
    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panics_propagate() {
        run_parallel(vec![1, 2, 3], |j: i32| {
            if j == 2 {
                panic!("boom");
            }
            j
        });
    }
}
