//! A budget on the heap a run holds at its peak.
//!
//! The peak is deterministic on a serial run: the same allocations in the
//! same order, so it repeats to the byte. Two serial runs are pinned here,
//! each with its budget between the peak before delay histograms stored
//! only the buckets they use, the event queue was freed before the report
//! was built and each logic was dropped after its report, and the peak
//! after:
//!
//! | run | before | after | budget |
//! |---|---|---|---|
//! | `fig5_6` at 40 s | 207,212 | 174,274 | 190,000 |
//! | `k16_churn` shape, smoke size | 6,465,283 | 4,621,279 | 5,500,000 |
//!
//! The second also runs on two shards, where the peak moves by a few
//! kilobytes from run to run. Its budget sits between the peak while a
//! churn flow's retirement was queued at its arrival, beside its stop,
//! and the peak once the stop queues it (each shard's event payload slab
//! then stops one doubling short of the serial run's):
//!
//! | run | before | after | budget |
//! |---|---|---|---|
//! | `k16_churn` shape, smoke size, 2 shards | 6,634,910 | 5,591,326 | 6,100,000 |
//!
//! That change, together with every `AgentEdge` shrinking by 152 B,
//! moved the serial peaks within their budgets:
//!
//! | run | before | after | why |
//! |---|---|---|---|
//! | `fig5_6` at 40 s | 175,938 | 174,418 | −1,520: 10 edges |
//! | `k16_churn` shape, smoke size | 4,621,919 | 4,626,911 | −7,296: 48 edges; +12,288: a retirement queued at its stop, 100 ms ahead, goes to a level-1 wheel slot, and the level-1 buffers end the run with room for 56,832 entries, not 56,320 (24 B each) |
//!
//! Each budget now sits between the peak before every wheel slot chained
//! 16-entry blocks from one free-listed arena and the payload slab grew
//! past its first 1,024 cells in fixed chunks, and the peak after:
//!
//! | run | before | after | budget |
//! |---|---|---|---|
//! | `fig5_6` at 40 s | 174,418 | 156,690 | 165,000 |
//! | `k16_churn` shape, smoke size | 4,626,911 | 3,019,815 | 3,600,000 |
//! | `k16_churn` shape, smoke size, 2 shards | 5,592,395 | 4,266,174 | 4,900,000 |
//!
//! A change that holds more at the peak has to free something else, or
//! argue here why not.
//!
//! Its own integration-test binary, so the counting allocator sees
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

mod shapes;

use scenarios::discipline::Corelite;
use scenarios::{fig5_6, Discipline, Scenario};
use sim_core::time::SimTime;

thread_local! {
    /// Bytes this thread holds, and the most it has held since the last
    /// reset: a test measures its own run, not its neighbours'.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Bytes the whole process holds, and the most it has held since the
/// last reset. A sharded run's workers allocate on their own threads and
/// free each other's mailbox buffers, so no one thread's count adds up;
/// its test counts process-wide, and every test in this binary holds
/// [`one_at_a_time`] so that only one run is counted at once.
static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);
static PROCESS_PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    // `try_with`: a thread may free or allocate while it is torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let live = PROCESS_LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PROCESS_PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
    PROCESS_LIVE.fetch_sub(bytes as i64, Relaxed);
}

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static ONE: Mutex<()> = Mutex::new(());
    ONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct PeakCounting;

unsafe impl GlobalAlloc for PeakCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakCounting = PeakCounting;

/// The most this thread held above its level at the start of one run of
/// `scenario` under `discipline`, report included.
fn peak_live_bytes(scenario: &Scenario, discipline: &dyn Discipline) -> i64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let result = scenario.run(discipline);
    let peak = PEAK.with(Cell::get);
    assert!(result.report.flows.iter().any(|f| f.delivered_packets > 0));
    peak - start
}

/// The most the process held above its level at the start of one run of
/// `scenario` under `discipline` on `shards` workers, merge included.
fn process_peak_live_bytes(scenario: &Scenario, discipline: &dyn Discipline, shards: usize) -> i64 {
    let start = PROCESS_LIVE.load(Relaxed);
    PROCESS_PEAK.store(start, Relaxed);
    let (result, _) = scenario.run_sharded(discipline, shards);
    let peak = PROCESS_PEAK.load(Relaxed);
    assert!(result.report.flows.iter().any(|f| f.delivered_packets > 0));
    peak - start
}

fn assert_within(name: &str, peak: i64, budget: i64) {
    println!("{name}: peak {peak} live bytes (budget {budget})");
    assert!(
        peak <= budget,
        "{name} holds {peak} bytes at its peak, budget {budget}"
    );
}

#[test]
fn fig5_6_peak_stays_within_its_budget() {
    let _one = one_at_a_time();
    let mut scenario = fig5_6(1);
    scenario.horizon = SimTime::from_secs(40);
    let peak = peak_live_bytes(&scenario, &Corelite::default());
    assert_within("fig5_6", peak, 165_000);
}

#[test]
fn k16_churn_shape_peak_stays_within_its_budget() {
    let _one = one_at_a_time();
    let (scenario, discipline) = shapes::k16_churn_shape();
    let peak = peak_live_bytes(&scenario, &discipline);
    assert_within("k16_churn shape", peak, 3_600_000);
}

/// The same shape on two shards. Its peak varies by a few kilobytes with
/// how the workers' allocations interleave.
#[test]
fn k16_churn_shape_on_two_shards_peak_stays_within_its_budget() {
    let _one = one_at_a_time();
    let (scenario, discipline) = shapes::k16_churn_shape();
    let peak = process_peak_live_bytes(&scenario, &discipline, 2);
    assert_within("k16_churn shape, 2 shards", peak, 4_900_000);
}
