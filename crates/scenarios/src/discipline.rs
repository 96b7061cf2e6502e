//! The open discipline registry.
//!
//! A [`Discipline`] packages everything the experiment runner needs to
//! put a rate-management scheme on a topology: a name, per-role
//! [`RouterLogic`] factories (ingress edge, core, egress), and the
//! analytic-expectation hooks that tell the reference allocator how the
//! scheme's sources behave. The runner itself knows nothing about any
//! particular scheme — new disciplines plug in by implementing the trait
//! and (optionally) joining [`default_registry`], with no runner changes.
//!
//! Six disciplines ship in-tree:
//!
//! * [`Corelite`] — the paper's contribution: adaptive edges driven by
//!   selective marker feedback from stateless cores.
//! * [`Csfq`] — the weighted core-stateless fair queueing baseline.
//! * `red` / `fred` / `fifo` / `greedy` — the classic droptail/AQM
//!   reference points the paper positions itself against (§5): four
//!   values of one open-loop shape, constant-rate sources over RED, FRED,
//!   or plain FIFO cores.

use baselines::{FifoCore, FredCore, GreedySource, RedCore};
use corelite::{CoreliteConfig, CoreliteCore};
use csfq::{CsfqConfig, CsfqCore};
use netsim::logic::{ForwardLogic, RouterLogic};
use netsim::Transport;

use crate::runner::ScenarioFlow;

/// A rate-management scheme the experiment runner can deploy.
///
/// Implementations must be cheap to share across threads: the parallel
/// executor hands one `&dyn Discipline` to every worker.
pub trait Discipline: Sync {
    /// Short lowercase name for file names, table headers, and the
    /// `--discipline` flag.
    fn name(&self) -> &'static str;

    /// Router logic for a core router.
    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic>;

    /// Router logic for `flow`'s ingress edge router (which is also the
    /// flow's traffic source).
    fn edge_logic(&self, seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic>;

    /// Router logic for a flow's egress edge router.
    fn egress_logic(&self, _seed: u64) -> Box<dyn RouterLogic> {
        Box::new(ForwardLogic)
    }

    /// The weight the analytic reference allocation should give `flow`.
    /// Weight-aware disciplines use the flow's configured weight;
    /// weight-oblivious ones (RED, FRED, greedy FIFO) compete as equals.
    fn reference_weight(&self, flow: &ScenarioFlow) -> f64 {
        flow.weight as f64
    }

    /// The rate this discipline's source offers for `flow`, in packets
    /// per second, when the sources are open-loop; `None` for adaptive
    /// edges that track whatever the network grants. A `Some` value caps
    /// the flow's analytic reference allocation.
    fn offered_rate(&self, _flow: &ScenarioFlow) -> Option<f64> {
        None
    }
}

/// Offered load of the open-loop sources used by the weight-oblivious
/// baselines, in packets per second: ~1.2× a fair share of the paper
/// link when five flows contend, so the bottleneck is genuinely
/// congested without burying it.
pub const GREEDY_SOURCE_PPS: f64 = 120.0;

/// Per-unit-weight rate of the cooperative `fifo` sources: a flow of
/// weight `w` offers `30 · w` pkt/s, so the §4.2 workload (total weight
/// 30) oversubscribes the 500 pkt/s paper link by 1.8×.
pub const FIFO_PPS_PER_WEIGHT: f64 = 30.0;

/// The paper's discipline: Corelite edges and cores.
#[derive(Debug, Clone, Default)]
pub struct Corelite {
    /// Mechanism configuration shared by every edge and core.
    pub config: CoreliteConfig,
}

impl Corelite {
    /// A Corelite discipline with the given configuration.
    pub fn new(config: CoreliteConfig) -> Self {
        Corelite { config }
    }
}

impl Discipline for Corelite {
    fn name(&self) -> &'static str {
        "corelite"
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        Box::new(CoreliteCore::new(seed, self.config.clone()))
    }

    fn edge_logic(&self, _seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        // The runner gives every static flow its own ingress edge, so
        // the transport choice is per-flow: the open-loop LIMD edge for
        // the default, a closed-loop go-back-N sender (window-LIMD or
        // Reno congestion control, Corelite markers either way) for the
        // ack-clocked transports.
        match flow.transport {
            Transport::Limd => Box::new(self.config.edge()),
            Transport::Gbn | Transport::Reno => Box::new(self.config.gbn_edge()),
        }
    }
}

/// The weighted CSFQ baseline (SIGCOMM '98).
#[derive(Debug, Clone, Default)]
pub struct Csfq {
    /// The edges' configuration.
    pub config: CsfqConfig,
}

impl Csfq {
    /// A CSFQ discipline with the given configuration.
    pub fn new(config: CsfqConfig) -> Self {
        Csfq { config }
    }
}

impl Discipline for Csfq {
    fn name(&self) -> &'static str {
        "csfq"
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        Box::new(CsfqCore::new(seed))
    }

    fn edge_logic(&self, _seed: u64, _flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        Box::new(self.config.edge())
    }
}

/// Open-loop sources over cores that send no feedback: the shape of the
/// four §5 reference points, which differ in the core they run and in
/// what each source offers.
struct OpenLoop {
    name: &'static str,
    /// Builds a core router's logic from its seed.
    core: fn(u64) -> Box<dyn RouterLogic>,
    /// What a source offers, pkt/s: per unit of weight when `weighted`,
    /// per flow when not.
    pps: f64,
    /// Whether the sources police themselves in proportion to their
    /// weights (and the reference allocation honours them).
    weighted: bool,
}

impl OpenLoop {
    fn rate(&self, flow: &ScenarioFlow) -> f64 {
        self.pps * self.reference_weight(flow)
    }
}

impl Discipline for OpenLoop {
    fn name(&self) -> &'static str {
        self.name
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        (self.core)(seed)
    }

    fn edge_logic(&self, _seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        Box::new(GreedySource::new(self.rate(flow)))
    }

    fn reference_weight(&self, flow: &ScenarioFlow) -> f64 {
        if self.weighted {
            flow.weight as f64
        } else {
            1.0
        }
    }

    fn offered_rate(&self, flow: &ScenarioFlow) -> Option<f64> {
        Some(self.rate(flow))
    }
}

/// Greedy sources over RED cores: random early detection manages queues
/// but knows nothing of weights, so goodput follows offered load — the
/// §5 argument for why AQM alone cannot provide weighted fairness.
const RED: OpenLoop = OpenLoop {
    name: "red",
    core: |seed| Box::new(RedCore::new(seed)),
    pps: GREEDY_SOURCE_PPS,
    weighted: false,
};

/// Greedy sources over flow-aware FRED cores: per-flow accounting
/// protects low-rate flows but the shares are unweighted.
const FRED: OpenLoop = OpenLoop {
    name: "fred",
    core: |seed| Box::new(FredCore::new(seed)),
    pps: GREEDY_SOURCE_PPS,
    weighted: false,
};

/// Cooperative weight-proportional sources over plain FIFO drop-tail
/// cores: the no-AQM, no-feedback reference point. Fair only because the
/// sources police themselves.
const FIFO: OpenLoop = OpenLoop {
    name: "fifo",
    core: |_| Box::<FifoCore>::new(ForwardLogic),
    pps: FIFO_PPS_PER_WEIGHT,
    weighted: true,
};

/// Greedy sources over plain FIFO drop-tail cores: the worst-case
/// reference — whoever pushes hardest wins.
const GREEDY: OpenLoop = OpenLoop {
    name: "greedy",
    core: |_| Box::<FifoCore>::new(ForwardLogic),
    pps: GREEDY_SOURCE_PPS,
    weighted: false,
};

/// Every in-tree discipline under its default configuration, in the
/// order the §4.4 comparison tables print them.
pub fn default_registry() -> Vec<Box<dyn Discipline>> {
    vec![
        Box::new(Corelite::default()),
        Box::new(Csfq::default()),
        Box::new(RED),
        Box::new(FRED),
        Box::new(FIFO),
        Box::new(GREEDY),
    ]
}

/// The registered discipline names, in registry order.
pub fn names() -> Vec<&'static str> {
    default_registry().iter().map(|d| d.name()).collect()
}

/// Looks up a discipline by its registered name (default configuration).
pub fn by_name(name: &str) -> Option<Box<dyn Discipline>> {
    default_registry().into_iter().find(|d| d.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Route;
    use sim_core::time::SimTime;

    fn flow(weight: u32) -> ScenarioFlow {
        ScenarioFlow {
            transport: Default::default(),
            path: Route::new(0, 1).into(),
            weight,
            min_rate: 0.0,
            activations: vec![(SimTime::ZERO, None)],
        }
    }

    #[test]
    fn registry_has_six_uniquely_named_disciplines() {
        let names = names();
        assert_eq!(
            names,
            vec!["corelite", "csfq", "red", "fred", "fifo", "greedy"]
        );
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn by_name_round_trips_and_rejects_unknowns() {
        for name in names() {
            assert_eq!(by_name(name).expect("registered").name(), name);
        }
        assert!(by_name("wfq").is_none());
    }

    #[test]
    fn weight_oblivious_disciplines_compete_as_equals() {
        let f = flow(3);
        for name in ["red", "fred", "greedy"] {
            let d = by_name(name).unwrap();
            assert_eq!(d.reference_weight(&f), 1.0, "{name}");
            assert_eq!(d.offered_rate(&f), Some(GREEDY_SOURCE_PPS), "{name}");
        }
    }

    #[test]
    fn weight_aware_disciplines_keep_the_flow_weight() {
        let f = flow(3);
        for name in ["corelite", "csfq", "fifo"] {
            let d = by_name(name).unwrap();
            assert_eq!(d.reference_weight(&f), 3.0, "{name}");
        }
        assert_eq!(by_name("fifo").unwrap().offered_rate(&f), Some(90.0));
        assert_eq!(by_name("corelite").unwrap().offered_rate(&f), None);
    }
}
