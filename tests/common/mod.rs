//! The engine-mode identity matrix shared by the identity suites
//! (`queue_backends`, `train_batching`, `sharded_identity`,
//! `transport_identity`, `determinism`, `parallel_exec`,
//! `scenarios/tests/lifecycle`): how a run is executed must never be
//! observable in what it produces.

// Each suite uses its own subset of the helpers.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use netsim::telemetry::{Probe, RingProbe};
use netsim::DispatchMode;
use scenarios::runner::{RunOptions, Scenario};
use scenarios::Discipline;
use sim_core::event::QueueBackend;
use sim_core::time::SimTime;

/// Shrinks a scenario's horizon (activation schedules are untouched;
/// periods beyond the horizon simply never fire).
pub fn compress(mut scenario: Scenario, secs: u64) -> Scenario {
    scenario.horizon = SimTime::from_secs(secs);
    scenario
}

/// What one run produced: the complete `Debug` rendering of its
/// [`netsim::SimReport`] — every flow's delivery counts, delay
/// distribution and drop split, every link's counters, per-node logic
/// reports, the event total, the churn report — and, for a probed run,
/// the probe's JSONL stream.
#[derive(PartialEq)]
pub struct Rendered {
    pub report: String,
    pub probe_jsonl: String,
}

fn render(
    scenario: &Scenario,
    discipline: &dyn Discipline,
    options: RunOptions,
    probed: bool,
) -> Rendered {
    let probe = probed.then(|| Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16))));
    let options = RunOptions {
        probe: probe.clone().map(|p| p as Rc<RefCell<dyn Probe>>),
        ..options
    };
    let result = scenario.run_with(discipline, &options);
    Rendered {
        report: format!("{:?}", result.report),
        probe_jsonl: probe.map_or_else(String::new, |p| p.borrow().to_jsonl()),
    }
}

/// Walks {wheel, heap} × {train, per-packet} × {serial, each of
/// `shard_counts`} × {probe off, probe on} through `Scenario::run_with`
/// and asserts every cell reproduces the default run byte for byte: the
/// report against the default bare run (a probe only observes), the
/// probe stream against the default probed run. Each shard count — 1 included, which
/// `Scenario::shards` would send to the serial engine — also goes
/// through `run_sharded`, whose per-shard event split must have one
/// entry per shard. Returns the default probed run.
pub fn identity_matrix(
    scenario: &Scenario,
    discipline: &dyn Discipline,
    shard_counts: &[usize],
) -> Rendered {
    let name = scenario.name;
    let plain = render(scenario, discipline, RunOptions::default(), false);
    let probed = render(scenario, discipline, RunOptions::default(), true);
    assert!(
        !probed.probe_jsonl.is_empty(),
        "{name}: probe recorded nothing"
    );
    assert!(
        probed.report == plain.report,
        "{name}: installing a probe changed the run"
    );
    let sharded = shard_counts.iter().filter(|&&n| n > 1);
    let engines = std::iter::once(1).chain(sharded.copied());
    for shards in engines {
        let engine = scenario.clone().with_shards(shards);
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            for dispatch in [DispatchMode::Train, DispatchMode::PerPacket] {
                for probe_on in [false, true] {
                    let options = RunOptions {
                        backend,
                        dispatch,
                        ..RunOptions::default()
                    };
                    let cell = render(&engine, discipline, options, probe_on);
                    let expected = if probe_on { &probed } else { &plain };
                    // Not `assert_eq!`: a report runs to megabytes.
                    assert!(
                        cell == *expected,
                        "{name} diverged at {shards} shard(s), {backend:?}, {dispatch:?}, \
                         probe {probe_on}"
                    );
                }
            }
        }
    }
    for &shards in shard_counts {
        let (result, per_shard) = scenario.run_sharded(discipline, shards);
        assert_eq!(per_shard.len(), shards, "{name}: split arity");
        assert!(
            per_shard.iter().sum::<u64>() > 0,
            "{name}: sharded run did no work"
        );
        assert!(
            format!("{:?}", result.report) == plain.report,
            "{name} diverged on the sharded engine at {shards} shard(s)"
        );
    }
    probed
}
