//! A budget on the heap a run holds at its peak.
//!
//! The peak is deterministic on a serial run: the same allocations in the
//! same order, so it repeats to the byte. Two runs are pinned here, each
//! with its budget between the peak before delay histograms stored only
//! the buckets they use, the event queue was freed before the report was
//! built and each logic was dropped after its report, and the peak after:
//!
//! | run | before | after | budget |
//! |---|---|---|---|
//! | `fig5_6` at 40 s | 207,212 | 174,274 | 190,000 |
//! | `k16_churn` shape, smoke size | 6,465,283 | 4,621,279 | 5,500,000 |
//!
//! A change that holds more at the peak has to free something else, or
//! argue here why not.
//!
//! Its own integration-test binary, so the counting allocator sees
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::{fig5_6, Discipline, Scenario, ScenarioChurn, TopologySpec};
use sim_core::time::SimTime;

thread_local! {
    /// Bytes this thread holds, and the most it has held since the last
    /// reset: a test measures its own run, not its neighbours'.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with`: a thread may free or allocate while it is torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
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

fn assert_within(name: &str, scenario: &Scenario, discipline: &dyn Discipline, budget: i64) {
    let peak = peak_live_bytes(scenario, discipline);
    println!("{name}: peak {peak} live bytes (budget {budget})");
    assert!(
        peak <= budget,
        "{name} holds {peak} bytes at its peak, budget {budget}"
    );
}

#[test]
fn fig5_6_peak_stays_within_its_budget() {
    let mut scenario = fig5_6(1);
    scenario.horizon = SimTime::from_secs(40);
    assert_within("fig5_6", &scenario, &Corelite::default(), 190_000);
}

/// The benchmark's `k16_churn` at its smoke size: 4000 web-like arrivals
/// a second for one second over 16 route templates (25x each uplink's
/// capacity) on top of the 32 long-lived flows, edges starting at 25
/// pkt/s, run to 3 s.
#[test]
fn k16_churn_shape_peak_stays_within_its_budget() {
    const LEAVES: usize = 16;
    const SPINES: usize = 8;
    let mut churn = ScenarioChurn::new(4000.0, 50.0, 100.0)
        .weights(vec![1, 2, 3])
        .window(SimTime::ZERO, SimTime::from_millis(1_000))
        .max_arrivals(2_000);
    churn.linger_secs = 0.5;
    for leaf in 0..LEAVES {
        churn = churn.route(TopologySpec::fat_tree_k_path(
            LEAVES,
            SPINES,
            leaf,
            (leaf + 1) % LEAVES,
            leaf % SPINES,
        ));
    }
    let scenario = Scenario::fat_tree_k16(SimTime::from_secs(3), 1).with_churn(churn);
    let discipline = Corelite::new(CoreliteConfig {
        initial_rate: 25.0,
        ..CoreliteConfig::default()
    });
    assert_within("k16_churn shape", &scenario, &discipline, 5_500_000);
}
