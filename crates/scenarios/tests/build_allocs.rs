//! A budget on what building a scenario allocates.
//!
//! `setup_s` — a scenario run at horizon zero: topology, logic, the t = 0
//! flow starts and an empty report — is tens of microseconds, below what a
//! shared host can time to better than ±15 %. The number of heap
//! allocations that run makes is a deterministic stand-in: the allocator
//! is most of the cost, and the count repeats exactly. Each budget below
//! is the count at the commit before routes were interned and the event
//! queue took a payload slab; a change that adds an allocation to the
//! build path has to take one out elsewhere, or argue here why not.
//! The counts were 347 (`fig5_6`), 269 (`mixed_transports_fat_tree`)
//! and 1533 (`fat_tree_k16`), each one below what it was while effects
//! went through a command queue: its spill vector and the
//! vector of per-node adjacency lists are gone (each list sits in its
//! node's slot), and the per-node "ignores loss notifications" flags of
//! DESIGN.md §9 became a vector of their own in the engine. The
//! go-back-N sender picks each flow's window from its transport, with
//! no boxed factory per edge and no boxed controller per flow: eight
//! fewer for `mixed_transports_fat_tree`, whose four go-back-N/Reno
//! edges each start one flow at t = 0. Logic counters are keyed by the
//! logic's own `&'static str` names, so the report copies no name: with
//! the flow table's two vectors of delivery records and drop counts in
//! place of one, 370, 301 and 1656 went to those counts. Today they are
//! 341, 262 and 1520: every wheel slot chains blocks from one arena,
//! which grows in a few steps, where each near slot's buffer grew on its
//! own. The budgets stay where they were, as upper bounds.
//!
//! Its own integration-test binary, so the counting allocator sees
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scenarios::discipline::Corelite;
use scenarios::{fig5_6, mixed_transports_fat_tree, Scenario};
use sim_core::time::SimTime;

thread_local! {
    /// Allocations made by this thread: a test measures its own work, not
    /// what the harness or a neighbouring test does meanwhile.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread may free or allocate while it is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// simlint: allow(hot-alloc) — this file measures allocations.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of one zero-horizon run of `scenario` under Corelite.
fn build_allocations(mut scenario: Scenario) -> u64 {
    scenario.horizon = SimTime::ZERO;
    let discipline = Corelite::default();
    let before = allocations();
    let result = scenario.run(&discipline);
    let after = allocations();
    assert_eq!(result.report.flows.len(), scenario.flows.len());
    after - before
}

fn assert_within(name: &str, scenario: Scenario, budget: u64) {
    let spent = build_allocations(scenario);
    println!("{name}: {spent} allocations (budget {budget})");
    assert!(
        spent <= budget,
        "building {name} allocates {spent} times, budget {budget}"
    );
}

#[test]
fn fig5_6_build_stays_within_its_allocation_budget() {
    assert_within("fig5_6", fig5_6(1), 440);
}

#[test]
fn mixed_transports_fat_tree_build_stays_within_its_allocation_budget() {
    assert_within(
        "mixed_transports_fat_tree",
        mixed_transports_fat_tree(1),
        347,
    );
}

#[test]
fn fat_tree_k16_build_stays_within_its_allocation_budget() {
    assert_within(
        "fat_tree_k16",
        Scenario::fat_tree_k16(SimTime::ZERO, 1),
        2035,
    );
}
