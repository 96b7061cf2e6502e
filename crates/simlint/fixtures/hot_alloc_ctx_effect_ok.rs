//! Effects in place: a context that borrows the engine and applies each
//! effect as it is called — the packet goes onto its link, the timer
//! into the event queue — so nothing is collected per callback.

struct Engine {
    now: u64,
    link_busy_until: Vec<u64>,
    queue: Vec<(u64, u64)>,
}

struct Ctx<'a> {
    engine: &'a mut Engine,
    node: u64,
}

impl Ctx<'_> {
    fn forward(&mut self, link: usize, packet: u64) {
        let departs = self.engine.link_busy_until[link].max(self.engine.now) + 1;
        self.engine.link_busy_until[link] = departs;
        self.engine.queue.push((departs, packet));
    }

    fn set_timer(&mut self, delay: u64, tag: u64) {
        let fires = self.engine.now + delay;
        self.engine.queue.push((fires, self.node << 32 | tag));
    }
}
