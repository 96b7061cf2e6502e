//! Positive fixture: a go-back-N-style sender module (the
//! `transport_sender_` prefix classifies it as a hot-path, per-id-state
//! module, like `crates/netsim/src/transport.rs`) committing the two
//! transport sins — tree-keyed per-flow state and a per-ack allocation.
use std::collections::BTreeMap;

pub struct BadSender {
    flows: BTreeMap<FlowId, u64>, // flagged: dense-state
}

impl RouterLogic for BadSender {
    fn on_control(&mut self, acks: &[u64]) {
        let batch = acks.to_vec(); // flagged: hot-alloc, a copy per ack
        self.flows.insert(FlowId(0), batch.len() as u64);
    }
}
