//! Edge-to-edge flows: paths, rate weights, and activation schedules.

use std::rc::Rc;

use sim_core::time::{SimDuration, SimTime};

use crate::ids::{FlowId, LinkId, NodeId};

/// Which sender drives a flow at its ingress edge.
///
/// The default, [`Limd`](Transport::Limd), is the paper's open-loop model:
/// a shaped source emitting at the edge's allowed rate `b_g`, with no
/// sequencing or acknowledgements. The other two variants are ack-clocked
/// closed-loop transports built on the go-back-N sender
/// ([`transport::GbnSender`](crate::transport::GbnSender)); the enum value
/// selects the congestion controller the sender instantiates for the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Open-loop LIMD shaping at the edge (the paper's model).
    #[default]
    Limd,
    /// Go-back-N with the window-based LIMD controller: weight-
    /// proportional epoch increase, halving on congestion signals.
    Gbn,
    /// Go-back-N with Reno-style AIMD: slow start, per-ack linear
    /// increase, halving on signals, window collapse on RTO.
    Reno,
}

/// Declarative description of a flow, passed to
/// [`TopologyBuilder::flow`](crate::topology::TopologyBuilder::flow).
///
/// A flow is an *edge-to-edge* aggregate (paper §2): it enters the network
/// cloud at the first node of `path` (its ingress edge router) and leaves
/// at the last node (its egress edge router).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Hop-by-hop node path; must contain at least two nodes, and every
    /// consecutive pair must be connected by a link.
    pub path: Vec<NodeId>,
    /// The flow's rate weight `w(f)` (its rate class).
    pub weight: u32,
    /// Payload size of the flow's packets in bytes.
    pub packet_size: u32,
    /// Minimum rate contract in packets per second (0 = best effort).
    /// Rate-adaptive edge logic must never throttle the flow below this
    /// floor; admission control (keeping floors feasible) is the
    /// operator's job.
    pub min_rate: f64,
    /// Periods during which the flow is active: `(start, stop)`; `None`
    /// means "until the end of the simulation".
    pub activations: Vec<(SimTime, Option<SimTime>)>,
    /// The sender driving the flow at its ingress edge.
    pub transport: Transport,
}

impl FlowSpec {
    /// Creates a flow over `path` with rate weight `weight`, 1 KB packets
    /// (the paper's fixed packet size) and no activations yet.
    ///
    /// # Panics
    ///
    /// Panics if `path` has fewer than two nodes or `weight` is zero.
    pub fn new(path: Vec<NodeId>, weight: u32) -> Self {
        assert!(path.len() >= 2, "a flow path needs at least two nodes");
        assert!(weight > 0, "rate weight must be positive");
        FlowSpec {
            path,
            weight,
            packet_size: 1000,
            min_rate: 0.0,
            activations: Vec::new(),
            transport: Transport::default(),
        }
    }

    /// Selects the flow's transport (builder-style); defaults to the
    /// open-loop [`Transport::Limd`].
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets a minimum rate contract in packets per second (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `min_rate` is negative or not finite.
    pub fn min_rate(mut self, min_rate: f64) -> Self {
        assert!(
            min_rate.is_finite() && min_rate >= 0.0,
            "minimum rate must be finite and non-negative, got {min_rate}"
        );
        self.min_rate = min_rate;
        self
    }

    /// Adds an activation period (builder-style). `stop = None` keeps the
    /// flow active until the simulation ends.
    pub fn active(mut self, start: SimTime, stop: Option<SimTime>) -> Self {
        if let Some(stop) = stop {
            assert!(stop > start, "flow stop must come after start");
        }
        self.activations.push((start, stop));
        self
    }

    /// Sets the packet size in bytes (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn packet_size(mut self, size: u32) -> Self {
        assert!(size > 0, "packet size must be positive");
        self.packet_size = size;
        self
    }
}

/// One node of a resolved route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The node.
    pub node: NodeId,
    /// The link from this node to the next one; `None` at the egress.
    pub link: Option<LinkId>,
    /// Propagation delay from this node back to the ingress (the sum of
    /// the delays of the links before it).
    pub reverse_delay: SimDuration,
}

/// A path resolved against the built topology: one [`Hop`] per node,
/// ingress first. Immutable and shared — every flow of a churn route
/// template holds the same allocation, so creating a flow copies no
/// route data and the forwarding path reads a handful of hot routes.
pub type Route = Rc<[Hop]>;

/// Resolved description of a flow inside a built network.
#[derive(Debug, Clone)]
pub struct FlowInfo {
    /// The flow's identifier.
    pub id: FlowId,
    /// The flow's rate weight `w(f)`.
    pub weight: u32,
    /// Payload size in bytes.
    pub packet_size: u32,
    /// Minimum rate contract in packets per second (0 = best effort).
    pub min_rate: f64,
    /// Activation periods, normalized: sorted by start, with adjacent or
    /// overlapping windows coalesced (see [`normalize_activations`]).
    pub activations: Vec<(SimTime, Option<SimTime>)>,
    /// The sender driving the flow at its ingress edge.
    pub transport: Transport,
    route: Route,
    /// A churn-created flow: it runs exactly one activation window and
    /// is then retired, its table slot recycled. Edge logic drops its
    /// per-flow state on stop instead of keeping it for a restart.
    transient: bool,
}

/// Sorts activation windows by start time and coalesces overlapping or
/// back-to-back windows (`next.start <= prev.stop` merges into one).
///
/// This is the **lifecycle-ordering invariant** (DESIGN.md §12): after
/// normalization no flow ever has a stop and a start scheduled at the
/// same instant, so the engine never has to referee the order of a
/// `FlowStop`/`FlowStart` pair at equal timestamps — the pair simply
/// does not exist. A schedule like `(0, 5), (5, 10)` becomes `(0, 10)`.
pub fn normalize_activations(
    mut activations: Vec<(SimTime, Option<SimTime>)>,
) -> Vec<(SimTime, Option<SimTime>)> {
    activations.sort_by_key(|&(start, stop)| (start, stop.is_none(), stop));
    // Coalesce in place: `kept` windows are final, the last one still
    // open to extension.
    let mut kept = 0;
    for i in 0..activations.len() {
        let (start, stop) = activations[i];
        match activations[..kept].last_mut() {
            Some((_, prev_stop)) if prev_stop.is_none_or(|s| start <= s) => {
                // Overlaps or abuts the previous window: extend it.
                *prev_stop = match (*prev_stop, stop) {
                    (None, _) | (_, None) => None,
                    (Some(a), Some(b)) => Some(a.max(b)),
                };
            }
            _ => {
                activations[kept] = (start, stop);
                kept += 1;
            }
        }
    }
    activations.truncate(kept);
    activations
}

impl FlowInfo {
    /// Describes a flow over `route` (at least two hops). Activation
    /// windows are normalized (sorted and coalesced).
    pub fn new(
        id: FlowId,
        weight: u32,
        packet_size: u32,
        min_rate: f64,
        route: Route,
        activations: Vec<(SimTime, Option<SimTime>)>,
    ) -> Self {
        debug_assert!(route.len() >= 2, "a flow path needs at least two nodes");
        FlowInfo {
            id,
            weight,
            packet_size,
            min_rate,
            activations: normalize_activations(activations),
            transport: Transport::default(),
            route,
            transient: false,
        }
    }

    /// Hands this churn slot to its next occupant, active over
    /// `[start, stop)`, reusing the slot's allocations.
    pub(crate) fn reoccupy(
        &mut self,
        id: FlowId,
        weight: u32,
        route: Route,
        start: SimTime,
        stop: SimTime,
    ) {
        debug_assert!(self.transient, "only churn slots are recycled");
        self.id = id;
        self.weight = weight;
        self.route = route;
        self.activations.clear();
        self.activations.push((start, Some(stop)));
    }

    /// Sets the flow's transport (builder-style); churn-created flows
    /// keep the open-loop default.
    pub(crate) fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Marks the flow as churn-created (builder-style; see
    /// [`FlowInfo::is_transient`]).
    pub(crate) fn transient(mut self) -> Self {
        self.transient = true;
        self
    }

    /// Whether this flow was created by the churn generator: it has a
    /// single activation window, will never restart, and its slot is
    /// recycled after a drain period. Edge logic uses this to drop the
    /// flow's state on stop (keeping resident state O(active flows))
    /// instead of retaining it for a possible reactivation.
    pub fn is_transient(&self) -> bool {
        self.transient
    }

    /// The flow's resolved route, ingress first.
    pub fn route(&self) -> &[Hop] {
        &self.route
    }

    /// The ingress edge router (first node of the path).
    pub fn ingress(&self) -> NodeId {
        self.route[0].node
    }

    /// The egress edge router (last node of the path).
    pub fn egress(&self) -> NodeId {
        self.route[self.route.len() - 1].node
    }

    /// This flow's hop at `node`, or `None` if `node` is off the path.
    /// A path never revisits a node and is a handful of hops long, so a
    /// scan of the shared route beats a per-flow table.
    pub fn hop_at(&self, node: NodeId) -> Option<&Hop> {
        self.route.iter().find(|h| h.node == node)
    }

    /// Returns the outgoing link for this flow at `node`, or `None` if
    /// `node` is the egress (or not on the path).
    pub fn next_hop(&self, node: NodeId) -> Option<LinkId> {
        self.hop_at(node)?.link
    }

    /// Propagation delay from `node` back to the ingress.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the flow's path.
    pub fn reverse_delay_from(&self, node: NodeId) -> SimDuration {
        self.hop_at(node)
            .unwrap_or_else(|| panic!("node {node} is not on the path of {}", self.id))
            .reverse_delay
    }

    /// Total propagation delay from ingress to egress (no queueing).
    pub fn one_way_delay(&self) -> SimDuration {
        self.route[self.route.len() - 1].reverse_delay
    }

    /// Returns `true` if the flow is scheduled to be active at `t`.
    pub fn is_active_at(&self, t: SimTime) -> bool {
        self.activation_index_at(t).is_some()
    }

    /// Returns the index of the activation window covering `t`, if any.
    ///
    /// Windows are normalized (sorted, coalesced), so at most one covers
    /// any instant. The dispatcher uses this to tell a *fresh* start (a
    /// later window whose predecessor's stop was swallowed by a pause)
    /// from a *duplicate* start inside the same window.
    pub fn activation_index_at(&self, t: SimTime) -> Option<usize> {
        self.activations
            .iter()
            .position(|&(start, stop)| t >= start && stop.is_none_or(|s| t < s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn spec_builder_accumulates_activations() {
        let s = FlowSpec::new(vec![n(0), n(1)], 2)
            .active(SimTime::ZERO, Some(SimTime::from_secs(5)))
            .active(SimTime::from_secs(10), None)
            .packet_size(500);
        assert_eq!(s.activations.len(), 2);
        assert_eq!(s.packet_size, 500);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn single_node_path_rejected() {
        FlowSpec::new(vec![n(0)], 1);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        FlowSpec::new(vec![n(0), n(1)], 0);
    }

    #[test]
    fn min_rate_builder() {
        let s = FlowSpec::new(vec![n(0), n(1)], 1).min_rate(25.0);
        assert_eq!(s.min_rate, 25.0);
        assert_eq!(FlowSpec::new(vec![n(0), n(1)], 1).min_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_min_rate_rejected() {
        FlowSpec::new(vec![n(0), n(1)], 1).min_rate(-1.0);
    }

    #[test]
    #[should_panic(expected = "after start")]
    fn inverted_activation_rejected() {
        FlowSpec::new(vec![n(0), n(1)], 1)
            .active(SimTime::from_secs(2), Some(SimTime::from_secs(1)));
    }

    fn info() -> FlowInfo {
        let hop = |node, link, ms| Hop {
            node: n(node),
            link,
            reverse_delay: SimDuration::from_millis(ms),
        };
        FlowInfo::new(
            FlowId::from_index(0),
            1,
            1000,
            0.0,
            Rc::new([
                hop(0, Some(LinkId(10)), 0),
                hop(1, Some(LinkId(11)), 40),
                hop(2, None, 80),
            ]),
            vec![
                (SimTime::ZERO, Some(SimTime::from_secs(5))),
                (SimTime::from_secs(10), None),
            ],
        )
    }

    #[test]
    fn next_hop_follows_path() {
        let f = info();
        assert_eq!(f.next_hop(n(0)), Some(LinkId(10)));
        assert_eq!(f.next_hop(n(1)), Some(LinkId(11)));
        assert_eq!(f.next_hop(n(2)), None);
        assert_eq!(f.next_hop(n(9)), None);
        assert_eq!(f.ingress(), n(0));
        assert_eq!(f.egress(), n(2));
        assert_eq!(f.one_way_delay(), SimDuration::from_millis(80));
        assert_eq!(f.reverse_delay_from(n(1)), SimDuration::from_millis(40));
    }

    #[test]
    fn a_reoccupied_slot_keeps_its_allocations() {
        let mut f = info().transient();
        let before = f.activations.as_ptr();
        let route = Rc::clone(&f.route);
        f.reoccupy(FlowId::with_generation(0, 1), 3, route, t(20), t(30));
        assert_eq!(f.id, FlowId::with_generation(0, 1));
        assert_eq!(f.weight, 3);
        assert_eq!(f.activations, vec![(t(20), Some(t(30)))]);
        assert_eq!(f.activations.as_ptr(), before);
        assert!(f.is_transient());
    }

    #[test]
    fn activation_windows() {
        let f = info();
        assert!(f.is_active_at(SimTime::ZERO));
        assert!(f.is_active_at(SimTime::from_secs(4)));
        assert!(!f.is_active_at(SimTime::from_secs(5)));
        assert!(!f.is_active_at(SimTime::from_secs(7)));
        assert!(f.is_active_at(SimTime::from_secs(100)));
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn back_to_back_windows_coalesce() {
        // `stop == next start` used to schedule a FlowStop and a
        // FlowStart at the same instant, and push order decided which
        // won. Normalization removes the pair entirely.
        let norm = normalize_activations(vec![(t(0), Some(t(5))), (t(5), Some(t(10)))]);
        assert_eq!(norm, vec![(t(0), Some(t(10)))]);
    }

    #[test]
    fn overlapping_and_unsorted_windows_coalesce() {
        let norm = normalize_activations(vec![
            (t(20), None),
            (t(0), Some(t(4))),
            (t(3), Some(t(8))),
            (t(12), Some(t(15))),
            (t(22), Some(t(30))),
        ]);
        assert_eq!(
            norm,
            vec![(t(0), Some(t(8))), (t(12), Some(t(15))), (t(20), None)]
        );
    }

    #[test]
    fn disjoint_windows_survive_normalization() {
        let windows = vec![(t(0), Some(t(1))), (t(3), Some(t(4)))];
        assert_eq!(normalize_activations(windows.clone()), windows);
    }

    #[test]
    fn open_window_absorbs_everything_after_it() {
        let norm = normalize_activations(vec![(t(0), None), (t(50), Some(t(60)))]);
        assert_eq!(norm, vec![(t(0), None)]);
    }

    #[test]
    fn flows_are_not_transient_by_default() {
        assert!(!info().is_transient());
        assert!(info().transient().is_transient());
    }
}
