//! Declarative network construction.

use sim_core::event::QueueBackend;
use sim_core::time::{SimDuration, SimTime};

use crate::churn::{ChurnSpec, ChurnState};
use crate::fault::{FaultPlan, FaultState};
use crate::flow::{FlowInfo, FlowSpec, Hop, Route};
use crate::ids::{FlowId, LinkId, NodeId};
use crate::link::{Link, LinkSpec};
use crate::logic::RouterLogic;
use crate::network::{DispatchMode, Network, Parts, ShardView};
use crate::telemetry::Probe;
use crate::trace::Tracer;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A link as the shard partitioner sees it: `(src, dst, delay)`.
pub(crate) type PartitionLink = (u32, u32, SimDuration);

/// Events an ingress pops per packet it offers, where every later node
/// on the path pops one arrival: an emission timer and the feedback the
/// packet's markers draw (lifecycle events pop on every shard alike, so
/// they weigh nothing here). Measured on the k = 16 fat-tree as ingress
/// timers plus controls over the mean arrivals of a later path node:
/// 1.05 at light load (one timer per packet, hardly any feedback), 5.8
/// under `k16_churn`'s 25x overload — 34.7 k timers and 1.2 k feedback
/// messages per ingress against 6.0 k arrivals per later node, since
/// three emissions in four die on the access link (the notifications
/// of those drops are not queued, see `Engine::push_control`). 2.5 is
/// the geometric mean, and enough to deal ingresses before the cores
/// they feed.
const INGRESS_EVENTS_PER_PACKET: f64 = 2.5;

/// Which nodes' logic a builder constructs.
pub(crate) enum Role {
    /// Every node's: the serial engine.
    Serial,
    /// The nodes one shard of a partitioned run owns (see
    /// [`crate::shard`]).
    Shard(ShardView),
    /// None: the shard partitioner reads only the topology and the
    /// offered load ([`TopologyBuilder::partition_inputs`]), and the
    /// builder is never built.
    Partition,
}

thread_local! {
    /// The role the next builder made on this thread takes, while
    /// [`with_role`] runs a factory.
    static NEXT_ROLE: Cell<Option<Role>> = const { Cell::new(None) };
}

/// Runs `factory` so that the builder it makes takes `role` from its
/// first line on — before any node asks for logic. The sharded executor
/// hands each worker's factory its shard view this way, and the
/// partition pass [`Role::Partition`], through a factory signature that
/// carries neither.
///
/// # Panics
///
/// Panics if the builder `factory` returns is not the first it made.
pub(crate) fn with_role(role: Role, factory: impl FnOnce() -> TopologyBuilder) -> TopologyBuilder {
    /// Clears a role no builder took, even when `factory` unwinds.
    struct Unclaimed;
    impl Drop for Unclaimed {
        fn drop(&mut self) {
            NEXT_ROLE.with(Cell::take);
        }
    }
    NEXT_ROLE.with(|next| next.set(Some(role)));
    let _unclaimed = Unclaimed;
    let builder = factory();
    assert!(
        !matches!(builder.role, Role::Serial),
        "a sharded run's factory must return the first builder it makes"
    );
    builder
}

/// The logic of a node this builder does not run: never called, and a
/// box of it allocates nothing, so dispatch needs no branch for it.
struct Elsewhere;

impl RouterLogic for Elsewhere {}

/// Builds a [`Network`] from nodes, links and flows.
///
/// # Example
///
/// ```
/// use netsim::flow::FlowSpec;
/// use netsim::link::LinkSpec;
/// use netsim::logic::ForwardLogic;
/// use netsim::topology::TopologyBuilder;
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut b = TopologyBuilder::new(1);
/// let a = b.node("a", |_| Box::new(ForwardLogic));
/// let c = b.node("c", |_| Box::new(ForwardLogic));
/// b.link(a, c, LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40));
/// b.flow(FlowSpec::new(vec![a, c], 2).active(SimTime::ZERO, None));
/// let net = b.build();
/// assert_eq!(net.flows().len(), 1);
/// ```
pub struct TopologyBuilder {
    seed: u64,
    role: Role,
    /// What the network takes over as it is.
    parts: Parts,
    /// What `build` resolves against the topology first.
    flow_specs: Vec<FlowSpec>,
    faults: FaultPlan,
    churn: Option<ChurnSpec>,
}

impl TopologyBuilder {
    /// Creates a builder; `seed` is the experiment seed from which every
    /// component's random stream is derived.
    pub fn new(seed: u64) -> Self {
        TopologyBuilder {
            seed,
            role: NEXT_ROLE.with(Cell::take).unwrap_or(Role::Serial),
            parts: Parts {
                names: Vec::new(),
                logics: Vec::new(),
                links: Vec::new(),
                window: SimDuration::from_secs(1),
                tracer: None,
                probe: None,
                queue_backend: QueueBackend::Wheel,
                dispatch: DispatchMode::Train,
            },
            flow_specs: Vec::new(),
            faults: FaultPlan::default(),
            churn: None,
        }
    }

    /// What the shard partitioner needs, exposed without building: one
    /// weight per node — 1 plus the events it is expected to execute
    /// before `end` — and the `(src, dst, delay)` of every link.
    ///
    /// The estimate uses only what the builder holds. A static flow
    /// offers its active time at the rate of the slowest link on its
    /// path; a churn route offers its share of the arrivals times the
    /// mean flow size. Every node on a path sees one arrival per offered
    /// packet, except the ingress, which sees
    /// [`INGRESS_EVENTS_PER_PACKET`] instead. Paths that do not resolve
    /// are left for [`build`](Self::build) to reject.
    pub(crate) fn partition_inputs(&self, end: SimTime) -> (Vec<u64>, Vec<PartitionLink>) {
        let links = self
            .parts
            .links
            .iter()
            .map(|l| {
                (
                    l.src().index() as u32,
                    l.dst().index() as u32,
                    l.spec().delay,
                )
            })
            .collect();
        let mut load = vec![0.0f64; self.parts.names.len()];
        let mut offer = |path: &[NodeId], packets: f64| {
            for (i, node) in path.iter().enumerate() {
                if let Some(events) = load.get_mut(node.index()) {
                    *events += if i == 0 {
                        INGRESS_EVENTS_PER_PACKET * packets
                    } else {
                        packets
                    };
                }
            }
        };
        // Sorted by end points once, so that a hop's link is a binary
        // search and the whole estimate stays near-linear in the builder.
        let mut by_ends: Vec<&Link> = self.parts.links.iter().collect();
        by_ends.sort_by_key(|l| (l.src(), l.dst()));
        for spec in &self.flow_specs {
            let active: f64 = spec
                .activations
                .iter()
                .map(|&(start, stop)| {
                    let stop = stop.map_or(end, |stop| stop.min(end));
                    stop.saturating_since(start).as_secs_f64()
                })
                .sum();
            let bottleneck_pps = spec
                .path
                .windows(2)
                .filter_map(|hop| {
                    let at = by_ends
                        .binary_search_by_key(&(hop[0], hop[1]), |l| (l.src(), l.dst()))
                        .ok()?;
                    Some(by_ends[at].spec().service_rate_pps(spec.packet_size))
                })
                .fold(f64::INFINITY, f64::min);
            if bottleneck_pps.is_finite() {
                offer(&spec.path, active * bottleneck_pps);
            }
        }
        if let Some(churn) = &self.churn {
            let window = churn.stop.min(end).saturating_since(churn.start);
            let mut arrivals = churn.arrival_rate * window.as_secs_f64();
            if let Some(cap) = churn.max_arrivals {
                arrivals = arrivals.min(cap as f64);
            }
            let packets = arrivals / churn.routes.len() as f64 * churn.mean_size_pkts;
            for path in &churn.routes {
                offer(path, packets);
            }
        }
        // Float-to-integer `as` saturates: an absurd offered load cannot wrap.
        let weights = load
            .iter()
            .map(|&events| (events as u64).saturating_add(1))
            .collect();
        (weights, links)
    }

    /// Whether this builder constructs `node`'s logic.
    fn runs(&self, node: NodeId) -> bool {
        match &self.role {
            Role::Serial => true,
            Role::Shard(view) => view.owns(node),
            Role::Partition => false,
        }
    }

    /// Adds a node. `factory` receives a seed derived deterministically
    /// from the experiment seed and the node index, and returns the node's
    /// router logic. It runs only where the node runs: for every node on
    /// the serial engine, on the one worker that owns the node on a
    /// sharded run, and never in the partition pass.
    pub fn node(
        &mut self,
        name: &str,
        factory: impl FnOnce(u64) -> Box<dyn RouterLogic>,
    ) -> NodeId {
        let id = NodeId::from_index(self.parts.names.len());
        // Mix the node index into the experiment seed; DetRng whitens
        // further, so a simple affine mix suffices here.
        let component_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.index() as u64 + 1);
        self.parts.names.push(name.to_owned());
        let logic = if self.runs(id) {
            factory(component_seed)
        } else {
            Box::new(Elsewhere)
        };
        self.parts.logics.push(logic);
        id
    }

    /// Adds a directed link from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    pub fn link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
        let nodes = self.parts.names.len();
        assert!(src.index() < nodes, "unknown src node {src}");
        assert!(dst.index() < nodes, "unknown dst node {dst}");
        assert_ne!(src, dst, "self-links are not allowed");
        let id = LinkId::from_index(self.parts.links.len());
        self.parts.links.push(Link::new(src, dst, spec));
        id
    }

    /// Adds a pair of directed links between `a` and `b` with identical
    /// parameters.
    pub fn duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        (self.link(a, b, spec), self.link(b, a, spec))
    }

    /// Adds a flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow's path revisits a node. [`FlowInfo`] answers
    /// one next hop per node, so a looping path would silently forward
    /// out of the first visit's hop — reject it here, where the
    /// offending spec is still identifiable.
    pub fn flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId::from_index(self.flow_specs.len());
        reject_node_revisit(&spec.path, &format!("flow {id}"));
        self.flow_specs.push(spec);
        id
    }

    /// Sets the measurement window for goodput/cumulative series
    /// (default 1 s, matching the paper's plots).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn measurement_window(&mut self, window: SimDuration) -> &mut Self {
        assert!(!window.is_zero(), "measurement window must be positive");
        self.parts.window = window;
        self
    }

    /// Installs a packet-level event tracer (see [`crate::trace`]). Keep
    /// a clone of the `Rc` to inspect the tracer after the run.
    pub fn tracer(&mut self, tracer: Rc<RefCell<dyn Tracer>>) -> &mut Self {
        self.parts.tracer = Some(tracer);
        self
    }

    /// Installs a control-plane telemetry probe (see
    /// [`crate::telemetry`]). Keep a clone of the `Rc` to inspect the
    /// collected samples after the run.
    pub fn probe(&mut self, probe: Rc<RefCell<dyn Probe>>) -> &mut Self {
        self.parts.probe = Some(probe);
        self
    }

    /// Selects the event-queue backend (default: the timer wheel). The
    /// heap backend is kept for differential testing; both deliver
    /// events in exactly the same order, so simulation results are
    /// byte-identical across backends.
    pub fn queue_backend(&mut self, backend: QueueBackend) -> &mut Self {
        self.parts.queue_backend = backend;
        self
    }

    /// Selects the link dispatch mode (default: train batching). The
    /// per-packet mode is kept for differential testing; both modes
    /// produce byte-identical simulation results.
    pub fn dispatch_mode(&mut self, mode: DispatchMode) -> &mut Self {
        self.parts.dispatch = mode;
        self
    }

    /// Installs a dynamic flow-churn process (see [`crate::churn`]): the
    /// built network creates and retires flows at runtime, recycling
    /// flow-table slots under generation-counted ids. The churn routes
    /// are resolved against the topology at build time; its random
    /// streams derive from the experiment seed under dedicated labels.
    pub fn churn(&mut self, spec: ChurnSpec) -> &mut Self {
        spec.validate();
        self.churn = Some(spec);
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]). The plan's
    /// random streams are derived from the experiment seed under
    /// dedicated labels, so installing faults never perturbs the draws of
    /// other components.
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Resolves paths and produces a runnable [`Network`].
    ///
    /// # Panics
    ///
    /// Panics if a flow path references a missing node or an unconnected
    /// node pair.
    pub fn build(self) -> Network {
        let TopologyBuilder {
            seed,
            role,
            parts,
            flow_specs,
            faults,
            churn,
        } = self;
        let shard = match role {
            Role::Serial => None,
            Role::Shard(view) => Some(view),
            Role::Partition => panic!("the partition pass builds no network"),
        };
        let (names, links) = (&parts.names, &parts.links);
        let faults = if faults.is_empty() {
            None
        } else {
            Some(FaultState::new(faults, seed, names.len(), links.len()))
        };

        let flows: Vec<FlowInfo> = flow_specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = FlowId::from_index(i);
                let route = resolve_route(&spec.path, links, names, &format!("flow {id}"));
                FlowInfo::new(
                    id,
                    spec.weight,
                    spec.packet_size,
                    spec.min_rate,
                    route,
                    spec.activations,
                )
                .with_transport(spec.transport)
            })
            .collect();

        // Churn route templates resolve the same way, once: every arrival
        // on a template shares its route.
        let churn = churn.map(|spec| {
            let routes = spec
                .routes
                .iter()
                .map(|path| {
                    reject_node_revisit(path, "churn route");
                    resolve_route(path, links, names, "churn route")
                })
                .collect();
            ChurnState::new(spec, routes, seed, parts.window, flows.len())
        });

        Network::assemble(parts, shard, flows, faults, churn)
    }
}

/// Resolves `path` against the topology: the link out of every node and
/// the propagation delay back to the ingress, in one shared allocation.
///
/// # Panics
///
/// Panics if `path` references a missing node or an unconnected pair.
fn resolve_route(path: &[NodeId], links: &[Link], names: &[String], what: &str) -> Route {
    for &node in path {
        assert!(
            node.index() < names.len(),
            "{what} references unknown node {node}"
        );
    }
    let mut reverse_delay = SimDuration::ZERO;
    path.iter()
        .enumerate()
        .map(|(i, &node)| {
            let link = path.get(i + 1).map(|&next| {
                links
                    .iter()
                    .position(|l| l.src() == node && l.dst() == next)
                    .map(LinkId::from_index)
                    .unwrap_or_else(|| {
                        panic!(
                            "{what}: no link from {node} ({}) to {next} ({})",
                            names[node.index()],
                            names[next.index()]
                        )
                    })
            });
            let hop = Hop {
                node,
                link,
                reverse_delay,
            };
            if let Some(link) = link {
                reverse_delay += links[link.index()].spec().delay;
            }
            hop
        })
        .collect()
}

/// Rejects paths that visit any node twice. [`FlowInfo::next_hop`] is
/// single-valued per node, so a revisiting path cannot be represented —
/// before this check it was accepted and mis-forwarded silently.
fn reject_node_revisit(path: &[NodeId], what: &str) {
    for (i, &node) in path.iter().enumerate() {
        if let Some(first) = path[..i].iter().position(|&p| p == node) {
            panic!(
                "{what}: path revisits node {node} (positions {first} and {i}); \
                 per-node forwarding state cannot represent looping paths"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ForwardLogic;

    fn spec() -> LinkSpec {
        LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
    }

    #[test]
    fn build_resolves_hops_and_reverse_delays() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let d = b.node("d", |_| Box::new(ForwardLogic));
        let l0 = b.link(a, c, spec());
        let l1 = b.link(c, d, spec());
        let f = b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::ZERO, None));
        let net = b.build();
        let hops: Vec<_> = net.flows()[f.index()]
            .route()
            .iter()
            .map(|h| h.link)
            .collect();
        assert_eq!(hops, vec![Some(l0), Some(l1), None]);
        assert_eq!(net.reverse_delay(f, d), SimDuration::from_millis(80));
        assert_eq!(net.reverse_delay(f, c), SimDuration::from_millis(40));
        assert_eq!(net.reverse_delay(f, a), SimDuration::ZERO);
    }

    #[test]
    fn partition_weights_follow_the_offered_load() {
        use crate::churn::ChurnSpec;
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let d = b.node("d", |_| Box::new(ForwardLogic));
        let idle = b.node("idle", |_| Box::new(ForwardLogic));
        b.link(a, c, spec());
        // The slow link bounds the flow: 1 Mbps = 125 pkt/s at 1 KB.
        b.link(
            c,
            d,
            LinkSpec::new(1_000_000, SimDuration::from_millis(40), 40),
        );
        b.link(d, idle, spec());
        // Active for 4 of the 10 s: 500 packets, 2.5 events each at a.
        b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::from_secs(6), None));
        // 20 flows/s over the 5 s of the window that fit, 10 packets each.
        b.churn(
            ChurnSpec::new(20.0, 10.0, 100.0)
                .route(vec![d, idle])
                .window(SimTime::from_secs(5), SimTime::from_secs(60)),
        );
        let (weights, links) = b.partition_inputs(SimTime::from_secs(10));
        assert_eq!(weights, vec![1 + 1250, 1 + 500, 1 + 500 + 2500, 1 + 1000]);
        assert_eq!(links.len(), 3);
        assert_eq!(links[1], (1, 2, SimDuration::from_millis(40)));
    }

    #[test]
    #[should_panic(expected = "no link from")]
    fn unconnected_path_panics() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        b.flow(FlowSpec::new(vec![a, c], 1));
        b.build();
    }

    #[test]
    #[should_panic(expected = "revisits node")]
    fn looping_path_rejected() {
        // Regression: a-c-d-c-e used to build silently, with node c's
        // single next-hop entry overwritten to the c→e hop, so packets
        // skipped d's second visit and took the wrong link.
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let d = b.node("d", |_| Box::new(ForwardLogic));
        let e = b.node("e", |_| Box::new(ForwardLogic));
        b.link(a, c, spec());
        b.link(c, d, spec());
        b.link(d, c, spec());
        b.link(c, e, spec());
        b.flow(FlowSpec::new(vec![a, c, d, c, e], 1).active(SimTime::ZERO, None));
    }

    #[test]
    #[should_panic(expected = "revisits node")]
    fn looping_churn_route_rejected() {
        use crate::churn::ChurnSpec;
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        b.duplex_link(a, c, spec());
        b.churn(
            ChurnSpec::new(1.0, 10.0, 100.0)
                .route(vec![a, c, a])
                .window(SimTime::ZERO, SimTime::from_secs(1)),
        );
        b.build();
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        b.link(a, a, spec());
    }

    #[test]
    fn duplex_creates_both_directions() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let (ac, ca) = b.duplex_link(a, c, spec());
        assert_ne!(ac, ca);
    }

    #[test]
    fn a_builder_runs_the_logic_factories_of_its_own_nodes_only() {
        let built = std::cell::Cell::new(0);
        let make = |role| {
            with_role(role, || {
                let mut b = TopologyBuilder::new(0);
                for name in ["a", "b", "c"] {
                    b.node(name, |_| {
                        built.set(built.get() + 1);
                        Box::new(ForwardLogic)
                    });
                }
                b
            })
        };
        make(Role::Partition);
        assert_eq!(built.get(), 0, "the partition pass builds no logic");
        let view = ShardView {
            shard_of_node: vec![1, 0, 1],
            me: 1,
            shards: 2,
            lookahead: None,
        };
        make(Role::Shard(view));
        assert_eq!(built.get(), 2, "shard 1 builds nodes a and c");
        // The role went to that builder alone.
        TopologyBuilder::new(0).node("d", |_| {
            built.set(built.get() + 1);
            Box::new(ForwardLogic)
        });
        assert_eq!(built.get(), 3);
    }

    #[test]
    #[should_panic(expected = "first builder it makes")]
    fn a_factory_must_return_the_builder_that_took_the_role() {
        with_role(Role::Partition, || {
            drop(TopologyBuilder::new(0));
            TopologyBuilder::new(0)
        });
    }

    #[test]
    fn node_seeds_differ_per_node() {
        let mut seeds = Vec::new();
        let mut b = TopologyBuilder::new(7);
        b.node("a", |s| {
            seeds.push(s);
            Box::new(ForwardLogic)
        });
        b.node("b", |s| {
            seeds.push(s);
            Box::new(ForwardLogic)
        });
        assert_ne!(seeds[0], seeds[1]);
    }
}
