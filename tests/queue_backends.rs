//! Byte-identity across event-queue backends (and, through the shared
//! identity matrix, every other engine mode): a full figure scenario
//! must produce exactly the same report and probe stream whether the
//! engine runs on the timer wheel or the binary heap — and whether the
//! sweep executes serially or in parallel. The wheel is a pure
//! data-structure substitution; any divergence is an ordering bug.

mod common;

use common::{compress, identity_matrix};
use scenarios::exec::{run_parallel, run_serial};
use scenarios::PaperFigure;

fn compressed(figure: PaperFigure, seed: u64, secs: u64) -> scenarios::Scenario {
    compress(figure.scenario(seed), secs)
}

#[test]
fn wheel_and_heap_agree_on_a_full_figure_scenario() {
    // Figure 3/4: the paper's 20-flow chain dynamics under Corelite —
    // the densest workload (timers, markers, feedback, drops).
    let figure = PaperFigure::Fig3;
    identity_matrix(
        &compressed(figure, 1, 20),
        figure.discipline().as_ref(),
        &[],
    );
}

#[test]
fn every_figure_agrees_across_backends() {
    // Shorter horizon, but every figure: covers CSFQ, min-rate
    // contracts, and the sources/selectors each figure exercises.
    for figure in PaperFigure::ALL {
        identity_matrix(&compressed(figure, 1, 8), figure.discipline().as_ref(), &[]);
    }
}

#[test]
fn probe_streams_agree_across_backends() {
    // Telemetry must be a pure function of the event stream. Covers
    // both the Corelite per-epoch hooks and CSFQ's probe-gated sampling
    // timer (Fig5 = Corelite, Fig6 = CSFQ); the matrix checks that each
    // probe recorded something.
    for figure in [PaperFigure::Fig5, PaperFigure::Fig6] {
        identity_matrix(
            &compressed(figure, 1, 20),
            figure.discipline().as_ref(),
            &[],
        );
    }
}

#[test]
fn backends_agree_under_serial_and_parallel_exec() {
    let figure = PaperFigure::Fig5;
    let discipline = figure.discipline();
    let seeds: Vec<u64> = (1..=4).collect();
    let work =
        |seed: u64| identity_matrix(&compressed(figure, seed, 20), discipline.as_ref(), &[]).report;
    let serial = run_serial(seeds.clone(), work);
    assert_eq!(serial, run_parallel(seeds, work));
    // Non-vacuous: different seeds produce different results.
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}
