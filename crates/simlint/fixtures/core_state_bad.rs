//! Positive fixture: FlowId-keyed maps injected into a core-router
//! module — exactly the per-flow state the paper's §2–3 claim forbids,
//! whether in a std collection or in the slab.
use std::collections::BTreeMap;

use netsim::slab::{ActiveSet, DenseMap};

pub struct CoreRouter {
    per_flow_rates: BTreeMap<FlowId, f64>,
    arrivals: Vec<(FlowId, u64)>,
    slab_rates: DenseMap<FlowId, f64>,
    active_flows: ActiveSet<FlowId>,
}
