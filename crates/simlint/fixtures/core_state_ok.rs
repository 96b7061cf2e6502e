//! Negative fixture: per-*link* state is fine in a core router — only
//! per-flow state violates core-statelessness.
use std::collections::BTreeMap;

pub struct CoreRouter {
    links: BTreeMap<LinkId, LinkState>,
    link_rates: DenseMap<LinkId, f64>,
    epoch_markers: u64,
}

pub fn classify(flow: FlowId) -> bool {
    // Mentioning FlowId as a value type is not per-flow *state*.
    flow.index() == 0
}
