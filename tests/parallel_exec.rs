//! Determinism regression: the parallel experiment executor must produce
//! results byte-identical to serial execution. Every run owns its own
//! seeded RNG streams, so thread scheduling may reorder wall-clock work
//! but never the results. The seed sweep's jobs are rows of the shared
//! identity matrix, so what the two executors are compared on is the
//! complete rendering of a report that every engine mode has already
//! agreed on.

mod common;

use common::{compress, identity_matrix};
use scenarios::discipline::{by_name, default_registry};
use scenarios::exec::{run_parallel, run_serial};
use scenarios::fig5_6;
use scenarios::runner::Scenario;
use sim_core::time::SimTime;

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let seeds: Vec<u64> = (1..=10).collect();
    let discipline = by_name("corelite").expect("registered");
    let work =
        |seed: u64| identity_matrix(&compress(fig5_6(seed), 25), discipline.as_ref(), &[]).report;
    let serial = run_serial(seeds.clone(), work);
    let parallel = run_parallel(seeds, work);
    assert_eq!(serial, parallel);
    // Different seeds genuinely differ, so the comparison is not vacuous.
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn parallel_sweep_matches_serial_across_disciplines_and_topologies() {
    // One job per registered discipline on a non-chain topology: the
    // executor must be deterministic regardless of which logic runs.
    // Plain runs, not matrix rows: the matrix insists on a probe stream,
    // and the four open-loop disciplines publish none.
    let disciplines = default_registry();
    let jobs: Vec<usize> = (0..disciplines.len()).collect();
    let scenario = Scenario::fat_tree_mix(SimTime::from_secs(15), 7);
    let work = |i: usize| format!("{:?}", scenario.run(disciplines[i].as_ref()));
    let serial = run_serial(jobs.clone(), work);
    let parallel = run_parallel(jobs, work);
    assert_eq!(serial, parallel);
}
