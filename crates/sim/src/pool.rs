//! A bounded, deterministic work-queue executor.
//!
//! The experiment harness runs many independent `(scenario × seed)`
//! simulations. Spawning one OS thread per job is unbounded — 50 seeds
//! on an 800-node scenario means 50 full simulations resident at once —
//! so all fan-out in the workspace goes through [`run_ordered`]: a fixed
//! crew of worker threads (at most `width`) pulls jobs off a shared
//! queue and writes each result into the slot matching its submission
//! index. Results therefore come back **in submission order**, no matter
//! which worker finished first; a caller that feeds deterministic jobs
//! gets a byte-identical result vector at every pool width, including
//! `width = 1` (which runs inline on the caller's thread).
//!
//! The default width comes from the `PQS_JOBS` environment variable via
//! [`configured_width`], falling back to the machine's available
//! parallelism. `PQS_JOBS` only bounds resource use — it never changes
//! results — so a malformed value is loudly warned about rather than
//! rejected.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide count of jobs currently executing inside [`run_ordered`].
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
/// Highest [`IN_FLIGHT`] value observed since the last [`reset_high_water`].
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Resets the in-flight high-water mark (diagnostics; see [`high_water`]).
pub fn reset_high_water() {
    HIGH_WATER.store(0, Ordering::SeqCst);
}

/// The maximum number of jobs that were simultaneously in flight across
/// all [`run_ordered`] calls since the last [`reset_high_water`].
///
/// Process-global: meaningful only when the caller controls every pool
/// user in the window (regression tests, single-harness diagnostics).
pub fn high_water() -> usize {
    HIGH_WATER.load(Ordering::SeqCst)
}

/// The machine's available parallelism (≥ 1).
pub fn available_width() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `PQS_JOBS` value: a positive integer thread count.
pub fn parse_width(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("PQS_JOBS={raw}: width must be at least 1")),
        Ok(w) => Ok(w),
        Err(e) => Err(format!("PQS_JOBS={raw}: not a valid thread count ({e})")),
    }
}

/// The pool width selected by the environment: `PQS_JOBS` if set and
/// valid (a warning is printed on stderr otherwise — the knob only
/// bounds resources, it never changes results), else the machine's
/// available parallelism.
pub fn configured_width() -> usize {
    match std::env::var("PQS_JOBS") {
        Ok(raw) => match parse_width(&raw) {
            Ok(w) => w,
            Err(msg) => {
                eprintln!("warning: {msg}; using available parallelism instead");
                available_width()
            }
        },
        Err(_) => available_width(),
    }
}

/// RAII guard bumping the in-flight gauge around one job.
struct InFlight;

impl InFlight {
    fn enter() -> InFlight {
        let now = IN_FLIGHT.fetch_add(1, Ordering::SeqCst) + 1;
        HIGH_WATER.fetch_max(now, Ordering::SeqCst);
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs every job on a crew of at most `width` worker threads and
/// returns the results **in submission order**.
///
/// At most `width` jobs are ever in flight at once; with `width <= 1`
/// (or a single job) everything runs inline on the caller's thread and
/// no threads are spawned. Panics in a job propagate to the caller once
/// the crew has drained.
pub fn run_ordered<T, F>(width: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if width <= 1 || jobs.len() <= 1 {
        return jobs
            .into_iter()
            .map(|job| {
                let _gauge = InFlight::enter();
                job()
            })
            .collect();
    }
    let crew = width.min(jobs.len());
    let tasks: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..crew {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(task) = tasks.get(i) else { break };
                let job = task
                    .lock()
                    .expect("task slot")
                    .take()
                    .expect("job taken once");
                let _gauge = InFlight::enter();
                let result = job();
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result lock")
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The gauge counters are process-global; serialize the tests that
    /// read them so parallel test threads cannot pollute each other.
    static GAUGE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_come_back_in_submission_order() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        // Later submissions finish first (earlier jobs sleep longer);
        // the result vector must still match submission order.
        let jobs: Vec<_> = (0..12u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(2 * (12 - i)));
                    i * i
                }
            })
            .collect();
        let got = run_ordered(4, jobs);
        let want: Vec<u64> = (0..12).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn width_bounds_in_flight_jobs() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        reset_high_water();
        let jobs: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(3));
                    i
                }
            })
            .collect();
        let got = run_ordered(3, jobs);
        assert_eq!(got.len(), 32);
        assert!(high_water() >= 1);
        assert!(
            high_water() <= 3,
            "{} jobs in flight under a width-3 pool",
            high_water()
        );
    }

    #[test]
    fn width_one_runs_inline() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        reset_high_water();
        let got = run_ordered(1, (0..5).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        assert_eq!(high_water(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got: Vec<u32> = run_ordered(4, Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn parse_width_accepts_positive_integers_only() {
        assert_eq!(parse_width("4"), Ok(4));
        assert_eq!(parse_width(" 16 "), Ok(16));
        assert!(parse_width("0").is_err());
        assert!(parse_width("-2").is_err());
        assert!(parse_width("four").is_err());
        assert!(parse_width("").is_err());
    }
}
