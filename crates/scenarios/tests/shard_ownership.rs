//! A sharded run builds what each shard owns, and only that.
//!
//! Each node's logic is built once in the whole run, by the worker that
//! owns the node: the partition pass reads only the topology and the
//! offered load, and a worker stands a zero-sized placeholder in for the
//! nodes of other shards. Each flow's delivery record (goodput, delay,
//! cumulative service) lives on the shard that owns its egress; the
//! merge checks every slot of every run for that, and fails the run if a
//! record is missing from the egress owner's report or kept by another
//! shard.

mod shapes;

use std::sync::Mutex;
use std::thread::ThreadId;

use netsim::logic::RouterLogic;
use scenarios::{Discipline, ScenarioFlow};

/// `inner`, noting the thread and the node seed of every logic it builds
/// (a node's seed is a function of its index, so it names the node).
struct CountingFactories<'a> {
    inner: &'a dyn Discipline,
    built: Mutex<Vec<(ThreadId, u64)>>,
}

impl CountingFactories<'_> {
    fn note(&self, seed: u64) {
        let me = std::thread::current().id();
        self.built
            .lock()
            .expect("no test panicked")
            .push((me, seed));
    }

    fn take(&self) -> Vec<(ThreadId, u64)> {
        std::mem::take(&mut *self.built.lock().expect("no test panicked"))
    }
}

impl Discipline for CountingFactories<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        self.note(seed);
        self.inner.core_logic(seed)
    }

    fn edge_logic(&self, seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        self.note(seed);
        self.inner.edge_logic(seed, flow)
    }

    fn egress_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        self.note(seed);
        self.inner.egress_logic(seed)
    }

    fn reference_weight(&self, flow: &ScenarioFlow) -> f64 {
        self.inner.reference_weight(flow)
    }

    fn offered_rate(&self, flow: &ScenarioFlow) -> Option<f64> {
        self.inner.offered_rate(flow)
    }
}

#[test]
fn each_node_logic_is_built_once_by_its_owner_and_records_stay_with_the_egress() {
    let (scenario, corelite) = shapes::k16_churn_shape();
    let counting = CountingFactories {
        inner: &corelite,
        built: Mutex::new(Vec::new()),
    };
    // The serial run builds every node once: the node set.
    let serial = scenario.run(&counting);
    let mut nodes: Vec<u64> = counting.take().into_iter().map(|(_, seed)| seed).collect();
    nodes.sort_unstable();
    assert!(nodes.len() > 100, "{} nodes", nodes.len());
    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "node seeds differ");

    let (sharded, per_shard) = scenario.run_sharded(&counting, 2);
    let built = counting.take();
    let test_thread = std::thread::current().id();
    assert!(
        built.iter().all(|&(thread, _)| thread != test_thread),
        "the partition pass built {} logics",
        built.iter().filter(|&&(t, _)| t == test_thread).count()
    );
    let mut workers: Vec<ThreadId> = Vec::new();
    for &(thread, _) in &built {
        if !workers.contains(&thread) {
            workers.push(thread);
        }
    }
    assert_eq!(workers.len(), 2, "both workers built their own nodes");
    let mut sharded_nodes: Vec<u64> = built.into_iter().map(|(_, seed)| seed).collect();
    sharded_nodes.sort_unstable();
    assert_eq!(
        sharded_nodes, nodes,
        "each node's logic is built once across the workers"
    );

    // Every flow slot's record came from its egress owner alone (checked
    // in the merge), and the merged report is the serial one.
    assert!(per_shard.iter().all(|&events| events > 0), "{per_shard:?}");
    assert!(sharded.report.flows.len() > 1_000);
    assert_eq!(
        format!("{:?}", sharded.report),
        format!("{:?}", serial.report)
    );
}
