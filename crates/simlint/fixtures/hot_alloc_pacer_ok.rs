//! The allocation-free pacer: one word per slot (generation above a
//! pending bit), grown by `resize` the first time a slot is seen and
//! only flipped in place from then on.

struct Pacer {
    slots: Vec<u32>,
}

impl Pacer {
    fn reset(&mut self, slot: usize) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, 0);
        }
        self.slots[slot] = self.slots[slot].wrapping_add(2) & !1;
    }

    fn arm(&mut self, slot: usize) -> bool {
        let idle = self.slots[slot] & 1 == 0;
        self.slots[slot] |= 1;
        idle
    }

    fn fired(&mut self, param: u64) -> Option<usize> {
        let slot = param as u32 as usize;
        let word = self.slots.get_mut(slot)?;
        let live = *word >> 1 == (param >> 32) as u32 && *word & 1 != 0;
        *word &= !1;
        live.then_some(slot)
    }
}
