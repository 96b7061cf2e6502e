//! A deliberate `hot-alloc` violation in a `Ctx` effect method: a context
//! that collects what the logic asks for in a fresh vector per call, to
//! be applied later — the command queue the engine no longer has.
//! (`hot_alloc_` prefix: a hot-path module.)

struct Ctx<'a> {
    pending: &'a mut Vec<Vec<u64>>,
    node: u64,
}

impl Ctx<'_> {
    fn forward(&mut self, link: u64, packet: u64) {
        self.pending.push(vec![self.node, link, packet]); // flagged: a Vec per effect
    }

    fn set_timer(&mut self, delay: u64, tag: u64) {
        let effect = Box::new([self.node, delay, tag]); // flagged: a Box per effect
        self.pending.push(effect.to_vec()); // flagged: and a copy of it
    }
}
