//! Negative fixture: the idiomatic ack-clocked sender — slab-backed
//! per-flow state, a scratch buffer allocated once in the constructor
//! and reused per ack.

pub struct OkSender {
    flows: DenseMap<FlowId, u64>,
    scratch: Vec<u64>,
}

impl OkSender {
    pub fn new() -> Self {
        // Setup-time allocation: constructors are not per-event.
        OkSender {
            flows: DenseMap::new(),
            scratch: Vec::with_capacity(64),
        }
    }
}

impl RouterLogic for OkSender {
    fn on_control(&mut self, acks: &[u64]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(acks);
    }
}
