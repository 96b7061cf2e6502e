//! Builds and runs an experiment on a [`TopologySpec`] under any
//! registered [`Discipline`].

use std::cell::RefCell;
use std::rc::Rc;

use fairness::maxmin::MaxMinProblem;
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::telemetry::Probe;
use netsim::topology::TopologyBuilder;
use netsim::{ChurnSpec, DispatchMode, FaultPlan, FlowId, NodeId, SimReport, Transport};
use sim_core::event::QueueBackend;
use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use crate::discipline::Discipline;
use crate::topology::{paper_link, CorePath, TopologySpec, LINK_CAPACITY_PPS};

/// One flow of a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioFlow {
    /// The core routers the flow traverses, in order. Chain scenarios
    /// build this from a [`crate::topology::Route`] via `.into()`.
    pub path: CorePath,
    /// The flow's rate weight.
    pub weight: u32,
    /// Minimum rate contract in packets per second (0 = best effort;
    /// honoured by Corelite edges, ignored by the CSFQ baseline, which
    /// has no contract mechanism).
    pub min_rate: f64,
    /// Activation periods `(start, stop)`; `None` = until the end.
    pub activations: Vec<(SimTime, Option<SimTime>)>,
    /// Transport behaviour at the ingress edge: the default open-loop
    /// LIMD rate controller, or a closed-loop go-back-N sender
    /// (ack-clocked, with LIMD or Reno congestion control).
    pub transport: Transport,
}

impl ScenarioFlow {
    /// A best-effort flow over `path` with the given weight, active from
    /// `start` for the rest of the run.
    pub fn best_effort(path: impl Into<CorePath>, weight: u32, start: SimTime) -> Self {
        ScenarioFlow {
            path: path.into(),
            weight,
            min_rate: 0.0,
            activations: vec![(start, None)],
            transport: Transport::default(),
        }
    }

    /// Sets the transport (builder style).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Whether one of the flow's activation periods covers `t`.
    pub fn is_active_at(&self, t: SimTime) -> bool {
        self.activations
            .iter()
            .any(|&(start, stop)| t >= start && stop.is_none_or(|s| t < s))
    }
}

/// A dynamic flow-churn process at the scenario level: the plain-data
/// mirror of [`netsim::ChurnSpec`], speaking core paths instead of node
/// ids. Each route template gets its own shared ingress/egress edge pair
/// (running the discipline's edge logic, like static flows); arrivals
/// pick a template uniformly at random and occupy a recycled,
/// generation-counted flow-table slot for their Pareto-sized lifetime.
#[derive(Debug, Clone)]
pub struct ScenarioChurn {
    /// Poisson arrival rate, flows per second.
    pub arrival_rate: f64,
    /// Mean flow size in packets (Pareto-distributed).
    pub mean_size_pkts: f64,
    /// Nominal send rate used to convert sizes to lifetimes, pkt/s.
    pub nominal_rate_pps: f64,
    /// Core-path templates arrivals draw from uniformly.
    pub routes: Vec<CorePath>,
    /// Weight classes arrivals draw from uniformly.
    pub weights: Vec<u32>,
    /// Pareto tail index for flow sizes (must exceed 1).
    pub pareto_shape: f64,
    /// Arrival window; `None` = the whole run.
    pub window: Option<(SimTime, SimTime)>,
    /// Drain delay between a flow's stop and slot recycling, seconds.
    pub linger_secs: f64,
    /// Cap on total arrivals (`None` = unlimited within the window).
    pub max_arrivals: Option<u64>,
}

impl ScenarioChurn {
    /// A churn process with the given arrival rate (flows/s), mean flow
    /// size (packets) and nominal send rate (pkt/s); add at least one
    /// route with [`route`](ScenarioChurn::route).
    pub fn new(arrival_rate: f64, mean_size_pkts: f64, nominal_rate_pps: f64) -> Self {
        ScenarioChurn {
            arrival_rate,
            mean_size_pkts,
            nominal_rate_pps,
            routes: Vec::new(),
            weights: vec![1],
            pareto_shape: 1.8,
            window: None,
            linger_secs: 1.0,
            max_arrivals: None,
        }
    }

    /// Adds a route template (builder-style).
    pub fn route(mut self, path: impl Into<CorePath>) -> Self {
        self.routes.push(path.into());
        self
    }

    /// Sets the weight classes (builder-style).
    pub fn weights(mut self, weights: Vec<u32>) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the arrival window (builder-style).
    pub fn window(mut self, start: SimTime, stop: SimTime) -> Self {
        self.window = Some((start, stop));
        self
    }

    /// Caps the total number of arrivals (builder-style).
    pub fn max_arrivals(mut self, n: u64) -> Self {
        self.max_arrivals = Some(n);
        self
    }

    /// Translates into a simulator [`ChurnSpec`] given the resolved
    /// per-route node paths and the scenario horizon (the default
    /// arrival window).
    fn to_spec(&self, node_routes: Vec<Vec<netsim::ids::NodeId>>, horizon: SimTime) -> ChurnSpec {
        let (start, stop) = self.window.unwrap_or((SimTime::ZERO, horizon));
        let mut spec = ChurnSpec::new(
            self.arrival_rate,
            self.mean_size_pkts,
            self.nominal_rate_pps,
        )
        .weights(self.weights.clone())
        .pareto_shape(self.pareto_shape)
        .window(start, stop)
        .linger(SimDuration::from_secs_f64(self.linger_secs));
        if let Some(n) = self.max_arrivals {
            spec = spec.max_arrivals(n);
        }
        for path in node_routes {
            spec = spec.route(path);
        }
        spec
    }
}

/// How the engine executes a run — everything about a run that is not
/// the experiment itself. Backend and dispatch mode never change a
/// result (they exist for the differential identity tests); the link and
/// the probe do what they say.
#[derive(Clone)]
pub struct RunOptions {
    /// Parameters of every link (default: the paper's 4 Mbps / 40 ms /
    /// 40-packet [`paper_link`]) — the knob behind the latency and
    /// capacity ablations.
    pub link: LinkSpec,
    /// Event-queue backend (default: the timer wheel).
    pub backend: QueueBackend,
    /// Transmission dispatch (default: departure trains).
    pub dispatch: DispatchMode,
    /// Telemetry probe installed on every node (default: none).
    /// Disciplines publish their per-epoch internals (detector `q_avg`,
    /// selector `r_av`/`w_av`/`p_w`, per-flow `b_g`, CSFQ `alpha`, …)
    /// into it; read it back after the run via the same `Rc`.
    pub probe: Option<Rc<RefCell<dyn Probe>>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            link: paper_link(),
            backend: QueueBackend::Wheel,
            dispatch: DispatchMode::Train,
            probe: None,
        }
    }
}

/// A complete experiment description: a core topology, the flows
/// crossing it, and a horizon.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name used in output files and tables.
    pub name: &'static str,
    /// The shape of the core network.
    pub topology: TopologySpec,
    /// The flows, in paper order (flow 1 first).
    pub flows: Vec<ScenarioFlow>,
    /// Simulated duration.
    pub horizon: SimTime,
    /// Experiment seed.
    pub seed: u64,
    /// Faults to inject (empty by default — a clean network), in
    /// simulator identifiers: core routers and core links are built
    /// first, so core `i` is `NodeId(i)` and topology link `j` is
    /// `LinkId(j)`.
    pub faults: FaultPlan,
    /// Dynamic flow churn (`None` by default — a static workload).
    pub churn: Option<ScenarioChurn>,
    /// Worker threads for the sharded conservative-parallel engine
    /// (see [`netsim::shard`]). `1` (the default) runs the serial
    /// engine; any value produces byte-identical results.
    pub shards: usize,
}

impl Scenario {
    /// A scenario on the paper's Figure-2 chain.
    pub fn paper(
        name: &'static str,
        flows: Vec<ScenarioFlow>,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        Self::on(TopologySpec::paper_chain(), name, flows, horizon, seed)
    }

    /// A scenario on an arbitrary core topology.
    pub fn on(
        topology: TopologySpec,
        name: &'static str,
        flows: Vec<ScenarioFlow>,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        Scenario {
            name,
            topology,
            flows,
            horizon,
            seed,
            faults: FaultPlan::default(),
            churn: None,
            shards: 1,
        }
    }

    /// Replaces the scenario's fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the shard count (builder-style); [`run_with`](Scenario::run_with)
    /// then executes on the sharded engine when `shards > 1`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Installs a dynamic flow-churn process (builder-style).
    pub fn with_churn(mut self, churn: ScenarioChurn) -> Self {
        self.churn = Some(churn);
        self
    }

    /// The classic parking-lot workload on a chain of `hops` congested
    /// links: one long weight-1 flow crossing every link, plus one
    /// one-hop weight-1 cross flow per link. The analytic share of the
    /// long flow is capacity / 2 on every link regardless of `hops` —
    /// the standard stress case for per-link (rather than per-path)
    /// fairness.
    ///
    /// # Panics
    ///
    /// Panics unless `hops >= 1`.
    pub fn parking_lot(hops: usize, horizon: SimTime, seed: u64) -> Self {
        let mut flows = vec![ScenarioFlow::best_effort(
            CorePath::new((0..=hops).collect()),
            1,
            SimTime::ZERO,
        )];
        for hop in 0..hops {
            flows.push(ScenarioFlow::best_effort(
                CorePath::new(vec![hop, hop + 1]),
                1,
                SimTime::ZERO,
            ));
        }
        Self::on(
            TopologySpec::parking_lot(hops),
            "parking_lot",
            flows,
            horizon,
            seed,
        )
    }

    /// A cross-traffic mix on the leaf–spine fat-tree: eight flows
    /// between distinct leaf pairs, spines alternating by flow index,
    /// weights cycling 1, 2, 3 — a genuinely non-chain workload for the
    /// max-min reference and the §4.4 comparison.
    pub fn fat_tree_mix(horizon: SimTime, seed: u64) -> Self {
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (0, 2),
            (1, 3),
            (2, 0),
            (3, 1),
        ];
        let flows = pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                ScenarioFlow::best_effort(
                    TopologySpec::fat_tree_path(src, dst, i % TopologySpec::FAT_TREE_SPINES),
                    (i % 3 + 1) as u32,
                    SimTime::ZERO,
                )
            })
            .collect();
        Self::on(
            TopologySpec::fat_tree(),
            "fat_tree_mix",
            flows,
            horizon,
            seed,
        )
    }

    /// The cross-traffic mix generalized to a
    /// [`TopologySpec::fat_tree_k`] of arbitrary width: two flows per
    /// leaf (to the next leaf and the one after), spines alternating by
    /// flow index, weights cycling 1, 2, 3. At `leaves = 8, spines = 4`
    /// this is the `engine/fat_tree_k8_20s` row of the CI bench gate.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves >= 3` (two distinct destinations per leaf)
    /// and `spines >= 1`.
    pub fn fat_tree_k_mix(leaves: usize, spines: usize, horizon: SimTime, seed: u64) -> Self {
        assert!(leaves >= 3, "fat_tree_k_mix needs at least three leaves");
        let flows = (0..2 * leaves)
            .map(|i| {
                let src = i % leaves;
                let dst = (src + 1 + i / leaves) % leaves;
                ScenarioFlow::best_effort(
                    TopologySpec::fat_tree_k_path(leaves, spines, src, dst, i % spines),
                    (i % 3 + 1) as u32,
                    SimTime::ZERO,
                )
            })
            .collect();
        Self::on(
            TopologySpec::fat_tree_k(leaves, spines),
            "fat_tree_k_mix",
            flows,
            horizon,
            seed,
        )
    }

    /// The [`fat_tree_k_mix`](Scenario::fat_tree_k_mix) workload at
    /// k = 16 (16 leaves × 8 spines, 32 cross flows) — the scale target
    /// of the sharded engine.
    pub fn fat_tree_k16(horizon: SimTime, seed: u64) -> Self {
        let mut s = Self::fat_tree_k_mix(16, 8, horizon, seed);
        s.name = "fat_tree_k16";
        s
    }

    /// [`fat_tree_k16`](Scenario::fat_tree_k16) plus a 100 000-arrival
    /// churn process: 16 route templates (one per leaf, to the next
    /// leaf via alternating spines), Poisson arrivals at 20 k flows/s
    /// over the first quarter of the horizon, Pareto-sized lifetimes
    /// around 10 packets. The `engine/fat_tree_k16_100k` gate rows
    /// and the sharded-vs-serial identity suite both run this.
    pub fn fat_tree_k16_100k(horizon: SimTime, seed: u64) -> Self {
        const LEAVES: usize = 16;
        const SPINES: usize = 8;
        let mut s = Self::fat_tree_k16(horizon, seed);
        s.name = "fat_tree_k16_100k";
        let mut churn = ScenarioChurn::new(20_000.0, 10.0, 1_000.0)
            .weights(vec![1, 2, 3])
            .window(SimTime::ZERO, SimTime::from_nanos(horizon.as_nanos() / 4))
            .max_arrivals(100_000);
        churn.linger_secs = 0.1;
        for leaf in 0..LEAVES {
            churn = churn.route(TopologySpec::fat_tree_k_path(
                LEAVES,
                SPINES,
                leaf,
                (leaf + 1) % LEAVES,
                leaf % SPINES,
            ));
        }
        s.with_churn(churn)
    }

    /// Runs the scenario under `discipline` with the given engine
    /// options and collects the results — the one way a scenario runs.
    /// With [`shards`](Scenario::shards) above 1 the run goes through the
    /// sharded engine; the result is byte-identical either way, and
    /// across every [`RunOptions`] backend and dispatch mode.
    pub fn run_with(&self, discipline: &dyn Discipline, options: &RunOptions) -> ExperimentResult {
        if self.shards > 1 {
            return self.run_on_shards(discipline, self.shards, options).0;
        }
        let mut b = self.builder_for(discipline, options.link, options.backend, options.dispatch);
        if let Some(p) = &options.probe {
            b.probe(p.clone());
        }
        let mut net = b.build();
        net.run_until(self.horizon);
        self.result(discipline, net.into_report(self.horizon))
    }

    /// [`run_with`](Scenario::run_with) under the default options.
    pub fn run(&self, discipline: &dyn Discipline) -> ExperimentResult {
        self.run_with(discipline, &RunOptions::default())
    }

    /// [`run_with`](Scenario::run_with) on a specific event-queue backend.
    pub fn run_with_queue(
        &self,
        discipline: &dyn Discipline,
        backend: QueueBackend,
    ) -> ExperimentResult {
        self.run_with(
            discipline,
            &RunOptions {
                backend,
                ..RunOptions::default()
            },
        )
    }

    /// [`run_with`](Scenario::run_with) under a specific dispatch mode.
    pub fn run_with_dispatch(
        &self,
        discipline: &dyn Discipline,
        dispatch: DispatchMode,
    ) -> ExperimentResult {
        self.run_with(
            discipline,
            &RunOptions {
                dispatch,
                ..RunOptions::default()
            },
        )
    }

    /// [`run_with`](Scenario::run_with) on `backend` with `probe` installed.
    pub fn run_instrumented(
        &self,
        discipline: &dyn Discipline,
        backend: QueueBackend,
        probe: Rc<RefCell<dyn Probe>>,
    ) -> ExperimentResult {
        let probe = Some(probe);
        self.run_with(
            discipline,
            &RunOptions {
                backend,
                probe,
                ..RunOptions::default()
            },
        )
    }

    /// Runs on the sharded engine at an explicit shard count (even 1,
    /// which still goes through mailboxes, epochs and the merge) under
    /// the default options, returning the events popped per shard too.
    pub fn run_sharded(
        &self,
        discipline: &dyn Discipline,
        shards: usize,
    ) -> (ExperimentResult, Vec<u64>) {
        self.run_on_shards(discipline, shards, &RunOptions::default())
    }

    /// The sharded conservative-parallel engine (see [`netsim::shard`]):
    /// each worker builds the logic of its own nodes and keeps the
    /// delivery records of the flows it delivers; the merged telemetry
    /// stream is replayed into the probe in canonical order, so it
    /// observes the exact serial sample sequence.
    fn run_on_shards(
        &self,
        discipline: &dyn Discipline,
        shards: usize,
        options: &RunOptions,
    ) -> (ExperimentResult, Vec<u64>) {
        // Copied out: the probe's `Rc` must stay off the worker threads.
        let (link, backend, dispatch) = (options.link, options.backend, options.dispatch);
        let outcome = netsim::shard::run_sharded(
            || self.builder_for(discipline, link, backend, dispatch),
            shards,
            self.horizon,
            options.probe.is_some(),
            false,
        );
        if let Some(p) = &options.probe {
            let mut p = p.borrow_mut();
            for (time, node, sample) in &outcome.probe_log {
                p.record(*time, *node, sample);
            }
        }
        (
            self.result(discipline, outcome.report),
            outcome.per_shard_events,
        )
    }

    fn result(&self, discipline: &dyn Discipline, report: SimReport) -> ExperimentResult {
        ExperimentResult {
            scenario: self.clone(),
            discipline_name: discipline.name(),
            reference: ReferenceSpec::of(discipline, &self.flows),
            report,
        }
    }

    /// The node [`builder_for`](Self::builder_for) makes churn route
    /// `route`'s ingress edge (`CE<route + 1>`) in a scenario of
    /// `core_count` cores and `flows` static flows: the cores come first,
    /// then an ingress and an egress per flow, then per churn route.
    pub(crate) fn churn_ingress(core_count: usize, flows: usize, route: usize) -> NodeId {
        NodeId::from_index(core_count + 2 * (flows + route))
    }

    /// Builds the scenario's full topology under `discipline` — the one
    /// construction path shared by the serial and sharded engines. The
    /// sharded executor calls this once for its partition pass and once
    /// per worker; identical inputs yield identical builders, which the
    /// byte-identity of the whole scheme rests on. Each builder knows
    /// its part from its first line, so `discipline`'s logic factories
    /// run once per node in the whole run, on the node's own worker.
    fn builder_for(
        &self,
        discipline: &dyn Discipline,
        link: LinkSpec,
        backend: QueueBackend,
        dispatch: DispatchMode,
    ) -> TopologyBuilder {
        let mut b = TopologyBuilder::new(self.seed);
        b.queue_backend(backend);
        b.dispatch_mode(dispatch);
        // The shared core network.
        let cores: Vec<_> = (0..self.topology.core_count)
            .map(|i| b.node(&format!("C{}", i + 1), |s| discipline.core_logic(s)))
            .collect();
        for &(src, dst) in &self.topology.links {
            b.link(cores[src], cores[dst], link);
        }
        // Per-flow ingress and egress edges on access links.
        for (i, f) in self.flows.iter().enumerate() {
            let ingress = b.node(&format!("E{}", i + 1), |s| discipline.edge_logic(s, f));
            let egress = b.node(&format!("X{}", i + 1), |s| discipline.egress_logic(s));
            b.link(ingress, cores[f.path.first()], link);
            b.link(cores[f.path.last()], egress, link);
            let path = edge_to_edge(ingress, &f.path, &cores, egress);
            let mut spec = FlowSpec::new(path, f.weight)
                .min_rate(f.min_rate)
                .transport(f.transport);
            for &(start, stop) in &f.activations {
                spec = spec.active(start, stop);
            }
            b.flow(spec);
        }
        // Churn routes get one shared ingress/egress edge pair per
        // template — arrivals are dynamic, so edges cannot be per-flow.
        // The edge logic sees a representative weight-1 flow; the real
        // per-arrival weight reaches it through each flow's FlowInfo.
        if let Some(churn) = &self.churn {
            let node_routes = churn
                .routes
                .iter()
                .enumerate()
                .map(|(i, path)| {
                    let template = ScenarioFlow::best_effort(path.clone(), 1, SimTime::ZERO);
                    let ingress = b.node(&format!("CE{}", i + 1), |s| {
                        discipline.edge_logic(s, &template)
                    });
                    let egress = b.node(&format!("CX{}", i + 1), |s| discipline.egress_logic(s));
                    b.link(ingress, cores[path.first()], link);
                    b.link(cores[path.last()], egress, link);
                    edge_to_edge(ingress, path, &cores, egress)
                })
                .collect();
            b.churn(churn.to_spec(node_routes, self.horizon));
        }
        if !self.faults.is_empty() {
            b.faults(self.faults.clone());
        }
        b
    }

    /// Returns the indices (0-based) of flows active at time `t`.
    pub fn active_at(&self, t: SimTime) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_active_at(t))
            .map(|(i, _)| i)
            .collect()
    }

    /// Computes the analytic weighted max-min fair allocation over the
    /// flows active at time `t`, using the flows' configured weights and
    /// floors (the discipline-independent paper reference). Returns one
    /// entry per flow (0-based index); inactive flows get 0.
    pub fn expected_rates_at(&self, t: SimTime) -> Vec<f64> {
        let weights: Vec<f64> = self.flows.iter().map(|f| f.weight as f64).collect();
        let caps = vec![None; self.flows.len()];
        self.reference_rates_at(t, &weights, &caps)
    }

    /// The weighted max-min allocation at `t` under explicit per-flow
    /// reference weights and optional offered-rate caps (see
    /// [`Discipline::reference_weight`] and [`Discipline::offered_rate`]).
    /// Every core link has the paper capacity; caps are applied to each
    /// flow's water-filling share elementwise, which is exact when the
    /// capped flows are not bottlenecked by each other (and a documented
    /// approximation otherwise).
    pub fn reference_rates_at(
        &self,
        t: SimTime,
        weights: &[f64],
        caps: &[Option<f64>],
    ) -> Vec<f64> {
        let active = self.active_at(t);
        let mut problem = MaxMinProblem::new();
        let links: Vec<_> = (0..self.topology.link_count())
            .map(|_| problem.link(LINK_CAPACITY_PPS))
            .collect();
        let mut refs = Vec::new();
        for &i in &active {
            let f = &self.flows[i];
            let crossed: Vec<_> = f
                .path
                .link_indices(&self.topology)
                .into_iter()
                .map(|l| links[l])
                .collect();
            refs.push((i, problem.flow_with_floor(weights[i], f.min_rate, crossed)));
        }
        let alloc = problem.solve();
        let mut out = vec![0.0; self.flows.len()];
        for (i, r) in refs {
            out[i] = match caps[i] {
                Some(cap) => alloc.rate(r).min(cap),
                None => alloc.rate(r),
            };
        }
        out
    }
}

/// The node path of a flow: its ingress edge, the cores of `route`, its
/// egress edge (an exact-size chain, so the vector is sized once).
fn edge_to_edge(
    ingress: NodeId,
    route: &CorePath,
    cores: &[NodeId],
    egress: NodeId,
) -> Vec<NodeId> {
    let through = route.0.iter().map(|&c| cores[c]);
    std::iter::once(ingress)
        .chain(through)
        .chain(std::iter::once(egress))
        .collect()
}

/// How the analytic reference allocation should treat each flow under
/// the discipline that produced a result: the reference weights and the
/// open-loop offered-rate caps. Plain data, so [`ExperimentResult`]
/// stays `Debug` and thread-transferable.
#[derive(Debug, Clone)]
pub struct ReferenceSpec {
    /// Per-flow reference weight.
    pub weights: Vec<f64>,
    /// Per-flow offered-rate cap (`None` = adaptive source, uncapped).
    pub caps: Vec<Option<f64>>,
}

impl ReferenceSpec {
    /// Captures the discipline's expectation hooks for `flows`.
    pub fn of(discipline: &dyn Discipline, flows: &[ScenarioFlow]) -> Self {
        ReferenceSpec {
            weights: flows
                .iter()
                .map(|f| discipline.reference_weight(f))
                .collect(),
            caps: flows.iter().map(|f| discipline.offered_rate(f)).collect(),
        }
    }
}

/// The outcome of running a [`Scenario`].
#[derive(Debug)]
pub struct ExperimentResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The registered name of the discipline that ran.
    pub discipline_name: &'static str,
    /// The discipline's analytic-expectation hooks, captured at run time.
    pub reference: ReferenceSpec,
    /// The full simulation report.
    pub report: SimReport,
}

impl ExperimentResult {
    /// The allotted-rate series of flow `i` (0-based), as recorded by its
    /// ingress edge.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist or recorded no series (open-loop
    /// sources don't; see [`ExperimentResult::rate_series`]).
    pub fn allotted_rate(&self, i: usize) -> &TimeSeries {
        self.report
            .allotted_rate(FlowId::from_index(i))
            .unwrap_or_else(|| panic!("flow {i} has no allotted-rate series"))
    }

    /// The best available rate series for flow `i`: the edge-recorded
    /// allotted rate when the discipline exports one (Corelite, CSFQ),
    /// otherwise the measured delivered-goodput series (the open-loop
    /// baselines, whose sources grant themselves a constant rate).
    pub fn rate_series(&self, i: usize) -> &TimeSeries {
        self.report
            .allotted_rate(FlowId::from_index(i))
            .unwrap_or(&self.report.flows[i].goodput)
    }

    /// Mean rate of flow `i` over `[from, to)` per
    /// [`ExperimentResult::rate_series`], or 0 if no samples fall in the
    /// window.
    pub fn mean_rate_in(&self, i: usize, from: SimTime, to: SimTime) -> f64 {
        self.rate_series(i).mean_in(from, to).unwrap_or(0.0)
    }

    /// The analytic reference allocation at `t` under the discipline
    /// that produced this result (reference weights and offered-rate
    /// caps included). This is what measured rates should be compared
    /// against in discipline-spanning tables.
    pub fn expected_rates_at(&self, t: SimTime) -> Vec<f64> {
        self.scenario
            .reference_rates_at(t, &self.reference.weights, &self.reference.caps)
    }

    /// Total packets dropped anywhere during the run.
    pub fn total_drops(&self) -> u64 {
        self.report.total_drops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::{self, Corelite, Csfq};
    use crate::topology::Route;
    use corelite::CoreliteConfig;
    use csfq::CsfqConfig;

    fn two_flow_scenario() -> Scenario {
        Scenario::paper(
            "test",
            vec![
                ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(0, 1).into(),
                    weight: 1,
                    min_rate: 0.0,
                    activations: vec![(SimTime::ZERO, None)],
                },
                ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(0, 1).into(),
                    weight: 2,
                    min_rate: 0.0,
                    activations: vec![(SimTime::from_secs(10), Some(SimTime::from_secs(20)))],
                },
            ],
            SimTime::from_secs(30),
            1,
        )
    }

    #[test]
    fn churn_ingress_is_the_node_named_for_the_route() {
        let churn = ScenarioChurn::new(1.0, 10.0, 100.0)
            .route(Route::new(0, 1))
            .route(Route::new(2, 3));
        let s = two_flow_scenario().with_churn(churn);
        let o = RunOptions::default();
        let net = s
            .builder_for(&Corelite::default(), o.link, o.backend, o.dispatch)
            .build();
        let node = Scenario::churn_ingress(s.topology.core_count, s.flows.len(), 1);
        assert_eq!(net.node_name(node), "CE2");
    }

    #[test]
    fn active_sets_follow_schedule() {
        let s = two_flow_scenario();
        assert_eq!(s.active_at(SimTime::from_secs(5)), vec![0]);
        assert_eq!(s.active_at(SimTime::from_secs(15)), vec![0, 1]);
        assert_eq!(s.active_at(SimTime::from_secs(25)), vec![0]);
    }

    #[test]
    fn expected_rates_track_active_set() {
        let s = two_flow_scenario();
        let solo = s.expected_rates_at(SimTime::from_secs(5));
        assert!((solo[0] - 500.0).abs() < 1e-6);
        assert_eq!(solo[1], 0.0);
        let both = s.expected_rates_at(SimTime::from_secs(15));
        assert!((both[0] - 500.0 / 3.0).abs() < 1e-6);
        assert!((both[1] - 1000.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn corelite_run_produces_series_for_all_flows() {
        let mut s = two_flow_scenario();
        s.horizon = SimTime::from_secs(5);
        let result = s.run(&Corelite::new(CoreliteConfig {
            edge_epoch: SimDuration::from_millis(100),
            core_epoch: SimDuration::from_millis(100),
            ..CoreliteConfig::default()
        }));
        assert_eq!(result.discipline_name, "corelite");
        assert!(!result.allotted_rate(0).is_empty());
        // Flow 1 has not started yet within the 5 s horizon; its series
        // may be empty, but the report must still know the flow.
        assert_eq!(result.report.flows.len(), 2);
    }

    #[test]
    fn csfq_run_produces_series_for_started_flows() {
        let mut s = two_flow_scenario();
        s.horizon = SimTime::from_secs(5);
        let result = s.run(&Csfq::new(CsfqConfig::default()));
        assert_eq!(result.discipline_name, "csfq");
        assert!(!result.allotted_rate(0).is_empty());
    }

    #[test]
    fn open_loop_disciplines_fall_back_to_goodput_series() {
        let mut s = two_flow_scenario();
        s.horizon = SimTime::from_secs(20);
        let result = s.run(discipline::by_name("greedy").unwrap().as_ref());
        assert_eq!(result.discipline_name, "greedy");
        // Greedy sources export no allotted-rate series; the rate series
        // is the measured goodput, and it shows traffic flowed.
        assert!(result.report.allotted_rate(FlowId::from_index(0)).is_none());
        let mean = result.mean_rate_in(0, SimTime::from_secs(5), SimTime::from_secs(20));
        assert!(mean > 50.0, "greedy flow should deliver packets: {mean}");
    }

    #[test]
    fn reference_caps_bound_the_expectation() {
        let mut s = two_flow_scenario();
        s.flows[1].activations = vec![(SimTime::ZERO, None)];
        let reference =
            ReferenceSpec::of(discipline::by_name("greedy").unwrap().as_ref(), &s.flows);
        // Two greedy equal-weight flows on one link: uncapped share is
        // 250 each, capped at the 120 pkt/s offered rate.
        let rates =
            s.reference_rates_at(SimTime::from_secs(1), &reference.weights, &reference.caps);
        for r in rates {
            assert!((r - discipline::GREEDY_SOURCE_PPS).abs() < 1e-6, "{r}");
        }
    }

    #[test]
    fn parking_lot_long_flow_gets_half_capacity() {
        let s = Scenario::parking_lot(3, SimTime::from_secs(10), 1);
        assert_eq!(s.flows.len(), 4);
        let expected = s.expected_rates_at(SimTime::from_secs(1));
        for (i, r) in expected.iter().enumerate() {
            assert!(
                (r - LINK_CAPACITY_PPS / 2.0).abs() < 1e-6,
                "flow {i}: {r} (parking-lot equal split)"
            );
        }
    }

    #[test]
    fn fat_tree_mix_runs_on_a_non_chain_topology() {
        let s = Scenario::fat_tree_mix(SimTime::from_secs(10), 1);
        assert!(!s.topology.is_chain());
        let expected = s.expected_rates_at(SimTime::from_secs(1));
        assert!(expected.iter().all(|&r| r > 0.0), "{expected:?}");
    }
}
