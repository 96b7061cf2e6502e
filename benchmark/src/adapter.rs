//! Every call that builds or runs a scenario of the repository, and the
//! conversion of its reports into the benchmark's own plain data. A change
//! to the `Scenario` run API is a change to this file only (`traced.rs`
//! implements the two logic traits, `isolated.rs` calls single functions).

use std::cell::RefCell;
use std::rc::Rc;

use corelite::CoreliteConfig;
use netsim::{DispatchMode, RingProbe};
use scenarios::discipline::{default_registry, Corelite};
use scenarios::exec::{run_parallel, run_serial};
use scenarios::report::{steady_state_summary, window_jain_index};
use scenarios::runner::ExperimentResult;
use scenarios::topology::{paper_link, LINK_CAPACITY_PPS};
use scenarios::{
    fig5_6, mixed_transports_fat_tree, Discipline, Scenario, ScenarioChurn, TopologySpec,
};
use sim_core::event::QueueBackend;
use sim_core::time::SimTime;

use crate::clock;
use crate::traced::{TraceSink, TracedDiscipline};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "chain_corelite",
        "the paper's own run: fig5_6 chain, 10 weighted always-on flows, stateless Corelite; \
         tiny state and event queue, so cost is the per-event engine path plus corelite edge/core",
    ),
    (
        "ft_transports",
        "LIMD/GBN/Reno senders mixed on the 4x2 fat-tree: the same engine driven by ack-clocked \
         edges, reverse-path acks, RTO timers and duplicates; only a transport change should move it",
    ),
    (
        "k16_churn",
        "16x8 fat-tree, 32 long-lived flows plus 4000 arrivals/s of web-like flows (offered \
         rho=25 per uplink): large working set, slot recycling, lifecycle events, ActiveSet scans",
    ),
    (
        "k16_churn_shard2",
        "k16_churn's inputs on the 2-shard engine: adds partitioning, mailbox exchange, barriers \
         and per-shard lifecycle replay; the digest must equal the serial twin's",
    ),
    (
        "discipline_sweep",
        "the compare binary's job list: 6 disciplines x {fig5_6 chain, fat_tree_mix} through \
         run_parallel plus the steady-state report; the only place csfq, red, fred, fifo, greedy run",
    ),
];

/// Input sizes. `Full` gives repetitions of about half a second on a
/// 2-vCPU box; `Smoke` is for the unit tests and quick checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How a workload's cells are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// One cell on the serial engine.
    Serial,
    /// One cell through `Scenario::run_sharded` on this many shards.
    Sharded(usize),
    /// Every cell through `scenarios::exec::run_parallel`.
    Sweep,
}

/// The public switch one repetition flips, for the toggle ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Default,
    HeapQueue,
    PerPacketDispatch,
    Probed,
}

/// One scenario under one discipline: one operation per repetition.
pub struct Cell {
    pub scenario: Scenario,
    pub discipline: Box<dyn Discipline>,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}x{}", self.scenario.name, self.discipline.name())
    }
}

pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    pub exec: Exec,
    /// Offered load per uplink relative to its capacity, where the
    /// workload has an arrival process.
    pub offered_rho: Option<f64>,
}

const K16_LEAVES: usize = 16;
const K16_SPINES: usize = 8;

/// `Scenario::fat_tree_k16` plus a web-like churn process on 16 route
/// templates (leaf -> leaf+1 through spine leaf%8, one template per
/// uplink). Lifetimes are time-based (size / nominal rate), so the
/// population stays bounded although the offered load is far above 1.
fn k16_churn(seed: u64, scale: Scale) -> (Scenario, f64) {
    let (window_ms, horizon_ms, max_arrivals) = match scale {
        Scale::Full => (10_800, 12_000, 200_000),
        Scale::Smoke => (1_000, 3_000, 2_000),
    };
    let mut churn = ScenarioChurn::new(4000.0, 50.0, 100.0)
        .weights(vec![1, 2, 3])
        .window(SimTime::ZERO, SimTime::from_millis(window_ms))
        .max_arrivals(max_arrivals);
    churn.linger_secs = 0.5;
    for leaf in 0..K16_LEAVES {
        churn = churn.route(TopologySpec::fat_tree_k_path(
            K16_LEAVES,
            K16_SPINES,
            leaf,
            (leaf + 1) % K16_LEAVES,
            leaf % K16_SPINES,
        ));
    }
    let rho =
        churn.arrival_rate / churn.routes.len() as f64 * churn.mean_size_pkts / LINK_CAPACITY_PPS;
    let scenario = Scenario::fat_tree_k16(SimTime::from_millis(horizon_ms), seed).with_churn(churn);
    (scenario, rho)
}

fn churn_discipline() -> Box<dyn Discipline> {
    Box::new(Corelite::new(CoreliteConfig {
        initial_rate: 25.0,
        ..CoreliteConfig::default()
    }))
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let &(name, _) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    let full = scale == Scale::Full;
    let at = |mut s: Scenario, full_secs: u64, smoke_secs: u64| {
        s.horizon = SimTime::from_secs(if full { full_secs } else { smoke_secs });
        s
    };
    let single = |scenario, discipline, exec, offered_rho| Workload {
        name,
        cells: vec![Cell {
            scenario,
            discipline,
        }],
        exec,
        offered_rho,
    };
    Some(match name {
        "chain_corelite" => single(
            at(fig5_6(seed), 1600, 40),
            Box::<Corelite>::default(),
            Exec::Serial,
            None,
        ),
        "ft_transports" => single(
            at(mixed_transports_fat_tree(seed), 800, 20),
            Box::<Corelite>::default(),
            Exec::Serial,
            None,
        ),
        "k16_churn" => {
            let (scenario, rho) = k16_churn(seed, scale);
            single(scenario, churn_discipline(), Exec::Serial, Some(rho))
        }
        "k16_churn_shard2" => {
            let (scenario, rho) = k16_churn(seed, scale);
            single(scenario, churn_discipline(), Exec::Sharded(2), Some(rho))
        }
        "discipline_sweep" => {
            let scenarios = [
                at(fig5_6(seed), 240, 20),
                at(Scenario::fat_tree_mix(SimTime::ZERO, seed), 240, 20),
            ];
            let cells = scenarios
                .iter()
                .flat_map(|s| {
                    default_registry().into_iter().map(|discipline| Cell {
                        scenario: s.clone(),
                        discipline,
                    })
                })
                .collect();
            Workload {
                name,
                cells,
                exec: Exec::Sweep,
                offered_rho: None,
            }
        }
        _ => unreachable!("every WORKLOADS entry is built above"),
    })
}

impl Workload {
    /// The same workload with nothing to simulate: what is left is
    /// building the topology and logic (and, sharded, partitioning,
    /// spawning and the per-shard rebuild) and an empty report.
    pub fn zero_horizon(mut self) -> Self {
        for cell in &mut self.cells {
            cell.scenario.horizon = SimTime::ZERO;
        }
        self
    }

    /// The same inputs on the serial engine.
    pub fn serial_twin(mut self) -> Self {
        if let Exec::Sharded(_) = self.exec {
            self.exec = Exec::Serial;
        }
        self
    }

    /// Threads the workload keeps busy at most.
    pub fn threads(&self, nproc: usize) -> usize {
        match self.exec {
            Exec::Serial => 1,
            Exec::Sharded(n) => n,
            Exec::Sweep => nproc.min(self.cells.len()),
        }
    }
}

/// One finished operation.
pub struct CellRun {
    pub result: ExperimentResult,
    /// Events popped per shard; empty on the serial engine.
    pub per_shard_events: Vec<u64>,
    /// Wall time of this cell's run call alone.
    pub wall_ns: u64,
}

fn run_cell(cell: &Cell, exec: Exec, mode: Mode, sink: Option<&TraceSink>) -> CellRun {
    let traced = sink.map(|sink| TracedDiscipline {
        inner: cell.discipline.as_ref(),
        sink: sink.clone(),
    });
    let discipline: &dyn Discipline = match &traced {
        Some(t) => t,
        None => cell.discipline.as_ref(),
    };
    let t = clock::start();
    let (result, per_shard_events) = match (exec, mode) {
        (Exec::Sharded(n), Mode::Default) => cell.scenario.run_sharded(discipline, n),
        _ => {
            // Every other entry point honours `Scenario::shards`.
            let sharded;
            let scenario = match exec {
                Exec::Sharded(n) => {
                    sharded = cell.scenario.clone().with_shards(n);
                    &sharded
                }
                _ => &cell.scenario,
            };
            let result = match mode {
                Mode::Default => scenario.run(discipline),
                Mode::HeapQueue => scenario.run_with_queue(discipline, QueueBackend::Heap),
                Mode::PerPacketDispatch => {
                    scenario.run_with_dispatch(discipline, DispatchMode::PerPacket)
                }
                Mode::Probed => scenario.run_instrumented(
                    discipline,
                    QueueBackend::Wheel,
                    Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16))),
                ),
            };
            (result, Vec::new())
        }
    };
    CellRun {
        result,
        per_shard_events,
        wall_ns: t.elapsed_ns(),
    }
}

/// Runs every cell of `w` once: the one call a repetition times. With a
/// `sink` the disciplines are traced; `serial_sweep` takes a sweep through
/// `run_serial`, so that its heap peak repeats exactly.
pub fn run(w: &Workload, mode: Mode, sink: Option<&TraceSink>, serial_sweep: bool) -> Vec<CellRun> {
    let work = |cell: &Cell| run_cell(cell, w.exec, mode, sink);
    let jobs: Vec<&Cell> = w.cells.iter().collect();
    match w.exec {
        Exec::Sweep if !serial_sweep => run_parallel(jobs, work),
        _ => run_serial(jobs, work),
    }
}

/// Columns of [`Facts::links`].
pub const LINK_FORWARDED_PKTS: usize = 0;
pub const LINK_FORWARDED_BYTES: usize = 1;
/// Columns of [`Facts::flows`].
pub const FLOW_DELIVERED: usize = 0;
pub const FLOW_DUPLICATE: usize = 1;
pub const FLOW_TAIL_DROPS: usize = 2;
pub const FLOW_POLICY_DROPS: usize = 3;
/// Columns of [`Facts::churn`].
pub const CHURN_ARRIVALS: usize = 0;
pub const CHURN_RETIRED: usize = 1;
pub const CHURN_COMPLETED: usize = 2;
pub const CHURN_PEAK_SLOTS: usize = 4;
pub const CHURN_STALE_EVENTS: usize = 5;

/// Exact counts of one operation, as plain numbers. The counters are kept
/// as rows of words, which is what the digest hashes; the constants above
/// name the columns the metrics and checks read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    pub label: String,
    pub horizon_secs: f64,
    pub events: u64,
    /// Per link: forwarded packets, forwarded bytes, dropped packets.
    pub links: Vec<[u64; 3]>,
    /// Packets serialised onto links whose far end has no outgoing link.
    pub final_hop_pkts: u64,
    /// Per resident flow slot: delivered, duplicate, tail-dropped,
    /// policy-dropped, fault-dropped packets.
    pub flows: Vec<[u64; 5]>,
    /// Arrivals, retired, completed, peak active, peak slots, stale events.
    pub churn: Option<[u64; 6]>,
    /// Long-lived (statically declared) flows.
    pub static_flows: usize,
    pub per_shard_events: Vec<u64>,
}

/// Bytes per second every link of every workload can carry.
pub fn link_bytes_per_sec() -> f64 {
    paper_link().bandwidth_bps as f64 / 8.0
}

pub fn facts(cell: &Cell, run: &CellRun) -> Facts {
    let report = &run.result.report;
    let is_source = |node| report.links.iter().any(|l| l.src == node);
    Facts {
        label: cell.label(),
        horizon_secs: cell.scenario.horizon.as_secs_f64(),
        events: report.events_processed,
        links: report
            .links
            .iter()
            .map(|l| [l.forwarded_packets, l.forwarded_bytes, l.dropped_packets])
            .collect(),
        final_hop_pkts: report
            .links
            .iter()
            .filter(|l| !is_source(l.dst))
            .map(|l| l.forwarded_packets)
            .sum(),
        flows: report
            .flows
            .iter()
            .map(|f| {
                [
                    f.delivered_packets,
                    f.duplicate_packets,
                    f.tail_drops,
                    f.policy_drops,
                    f.fault_drops,
                ]
            })
            .collect(),
        churn: report.churn.as_ref().map(|c| {
            [
                c.arrivals,
                c.retired,
                c.completed,
                c.peak_active,
                c.peak_slots as u64,
                c.stale_events,
            ]
        }),
        static_flows: cell.scenario.flows.len(),
        per_shard_events: run.per_shard_events.clone(),
    }
}

/// The simulated statistics of one operation over the second half of its
/// horizon, for its long-lived flows.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    pub discipline: &'static str,
    /// Weighted Jain index (`report::window_jain_index`).
    pub jain: f64,
    /// Mean relative error of the steady-state allotted rate against the
    /// weighted max-min reference (`report::steady_state_summary`). The
    /// reference knows the long-lived flows only.
    pub maxmin_rel_err: f64,
    /// Long-lived flows with a non-zero reference...
    pub expected_live: usize,
    /// ...and, of those, the 1-based numbers of the ones that delivered
    /// nothing in the window.
    pub dead: Vec<usize>,
    /// Host seconds of one standalone reference solve.
    pub reference_secs: f64,
}

pub fn fidelity(run: &CellRun) -> Fidelity {
    let result = &run.result;
    let to = result.scenario.horizon;
    let from = SimTime::from_nanos(to.as_nanos() / 2);
    let t = clock::start();
    let mid = SimTime::from_nanos(from.as_nanos() / 2 + to.as_nanos() / 2);
    std::hint::black_box(result.expected_rates_at(mid));
    let reference_secs = t.elapsed_secs();
    let summary = steady_state_summary(result, from, to);
    let jain = window_jain_index(result, from, to);
    let expected: Vec<_> = summary.iter().filter(|s| s.expected > 0.0).collect();
    let dead = expected
        .iter()
        .filter(|s| {
            let goodput = result.report.flows[s.flow - 1].mean_goodput_in(from, to);
            goodput.unwrap_or(0.0) <= 0.0
        })
        .map(|s| s.flow)
        .collect();
    Fidelity {
        discipline: result.discipline_name,
        jain,
        maxmin_rel_err: expected.iter().map(|s| s.relative_error()).sum::<f64>()
            / expected.len().max(1) as f64,
        expected_live: expected.len(),
        dead,
        reference_secs,
    }
}
