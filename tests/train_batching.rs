//! Byte-identity across transmission-dispatch modes (and, through the
//! shared identity matrix, every other engine mode): a scenario must
//! produce exactly the same report and probe stream whether the engine
//! coalesces back-to-back transmissions into a link's departure train
//! (`DispatchMode::Train`, the default) or schedules one `TxDone`
//! checkpoint per packet (`DispatchMode::PerPacket`). The train is a
//! pure event-coalescing substitution — departures carry their own
//! timestamps, so when the link's accounting runs cannot be
//! observable. Any divergence is a batching bug. The rows here use
//! seeds `queue_backends` does not.

mod common;

use common::{compress, identity_matrix};
use scenarios::exec::{run_parallel, run_serial};
use scenarios::runner::Scenario;
use scenarios::PaperFigure;
use sim_core::time::SimTime;

fn compressed(figure: PaperFigure, seed: u64, secs: u64) -> Scenario {
    compress(figure.scenario(seed), secs)
}

#[test]
fn train_and_per_packet_agree_on_a_full_figure_scenario() {
    // Figure 3/4: the paper's 20-flow chain dynamics under Corelite —
    // the densest workload (timers, markers, feedback, drops).
    let figure = PaperFigure::Fig3;
    identity_matrix(
        &compressed(figure, 7, 20),
        figure.discipline().as_ref(),
        &[],
    );
}

#[test]
fn every_figure_agrees_across_dispatch_modes() {
    // Shorter horizon, but every figure: covers CSFQ (whose core logic
    // reads instantaneous queue lengths per packet), min-rate
    // contracts, and the sources/selectors each figure exercises.
    for figure in PaperFigure::ALL {
        identity_matrix(&compressed(figure, 7, 8), figure.discipline().as_ref(), &[]);
    }
}

#[test]
fn fat_tree_agrees_across_dispatch_modes() {
    // Multi-path topologies: trains matter most where many links carry
    // interleaved back-to-back bursts. The second row is the wide k=8
    // instance (8 leaves x 4 spines) from the scaling benches: more
    // links, more concurrent trains per tick.
    let discipline = PaperFigure::Fig3.discipline();
    for scenario in [
        Scenario::fat_tree_mix(SimTime::from_secs(15), 7),
        Scenario::fat_tree_k_mix(8, 4, SimTime::from_secs(10), 7),
    ] {
        identity_matrix(&scenario, discipline.as_ref(), &[]);
    }
}

#[test]
fn probe_streams_agree_across_dispatch_modes() {
    // Telemetry must be a pure function of the logical event stream
    // (Fig5 = Corelite's per-epoch hooks, Fig6 = CSFQ's probe-gated
    // sampling timer); the matrix checks each probe recorded something.
    for figure in [PaperFigure::Fig5, PaperFigure::Fig6] {
        identity_matrix(
            &compressed(figure, 7, 20),
            figure.discipline().as_ref(),
            &[],
        );
    }
}

#[test]
fn dispatch_modes_agree_under_serial_and_parallel_exec() {
    let figure = PaperFigure::Fig5;
    let discipline = figure.discipline();
    let seeds: Vec<u64> = (5..=8).collect();
    let work =
        |seed: u64| identity_matrix(&compressed(figure, seed, 20), discipline.as_ref(), &[]).report;
    let serial = run_serial(seeds.clone(), work);
    assert_eq!(serial, run_parallel(seeds, work));
    // Non-vacuous: different seeds produce different results.
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}
