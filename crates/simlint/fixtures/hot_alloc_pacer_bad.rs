//! A deliberate `hot-alloc` violation on the paced-emission path: a
//! pacer that records every armed timer in a fresh vector, allocating
//! once per emitted packet. (`hot_alloc_` prefix: a hot-path module.)

struct Pacer {
    slots: Vec<u32>,
    armed: Vec<Vec<u64>>,
}

impl Pacer {
    fn arm(&mut self, slot: usize, now: u64, delay: u64) {
        if self.slots[slot] & 1 == 0 {
            self.slots[slot] |= 1;
            self.armed.push(vec![now, delay]); // flagged: a Vec per arm
        }
    }
}
