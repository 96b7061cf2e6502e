//! Paced emission: one generation-guarded, self-rescheduling timer
//! chain per slot.
//!
//! The paper has one shaping mechanism — an edge releases a flow's
//! packets at its allowed rate — and every source, edge and sender here
//! drives it the same way: a timer fires, the logic emits, the timer is
//! re-armed one gap later. [`Pacer`] owns that chain and its one
//! invariant: **at most one live timer per slot**. The generation is
//! bumped by [`reset`](Pacer::reset) on every start, stop and occupant
//! change, so a timer armed under an earlier generation — a finished
//! activation, or a recycled slot's previous occupant — is rejected by
//! [`fired`](Pacer::fired) instead of feeding a chain it no longer owns.
//! Disciplines keep only "what is the next gap" and "build the packet".

use sim_core::time::SimDuration;

use crate::logic::{Ctx, TimerKind};

/// Low bit of a slot word: a timer of the current generation is
/// outstanding. The generation lives in the 31 bits above it.
const PENDING: u32 = 1;

/// The timer chains of one logic, keyed by slot (a flow's
/// [`index`](crate::ids::FlowId::index), or any other dense index).
#[derive(Debug)]
pub struct Pacer {
    tag: u32,
    /// One word per slot: 31-bit generation, 1 pending bit.
    slots: Vec<u32>,
}

impl Pacer {
    /// A pacer whose timers carry `tag`.
    pub const fn new(tag: u32) -> Self {
        Pacer {
            tag,
            slots: Vec::new(),
        }
    }

    fn word(&mut self, slot: usize) -> &mut u32 {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, 0);
        }
        &mut self.slots[slot]
    }

    /// Kills `slot`'s outstanding chain, if any: call on every start,
    /// stop and occupant change. The next [`arm`](Pacer::arm) begins a
    /// fresh chain under a new generation.
    pub fn reset(&mut self, slot: usize) {
        let word = self.word(slot);
        // Adding 2 steps the generation (wrapping at 2^31) without
        // carrying into the pending bit, which the mask then clears.
        *word = word.wrapping_add(2) & !PENDING;
    }

    /// The timer parameter of `slot`'s current generation: generation
    /// high, slot low. A second chain sharing the slot's lifetime (the
    /// go-back-N tick beside its RTO) arms with this and checks
    /// [`live`](Pacer::live).
    pub fn param(&self, slot: usize) -> u64 {
        let generation = self.slots.get(slot).map_or(0, |w| w >> 1);
        (u64::from(generation) << 32) | slot as u64
    }

    /// Sets `slot`'s timer to fire after `delay`, unless one is already
    /// outstanding.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, slot: usize, delay: SimDuration) {
        let word = self.word(slot);
        if *word & PENDING == 0 {
            *word |= PENDING;
            ctx.set_timer(delay, TimerKind::with_param(self.tag, self.param(slot)));
        }
    }

    /// The slot a timer parameter names, if it was armed under the
    /// slot's current generation.
    pub fn live(&self, param: u64) -> Option<usize> {
        let slot = param as u32 as usize;
        (self.slots.get(slot)? >> 1 == (param >> 32) as u32).then_some(slot)
    }

    /// Resolves a fired timer: `Some(slot)` with the chain idle again
    /// (re-[`arm`](Pacer::arm) to continue it), or `None` for a stale
    /// timer, which must be ignored.
    pub fn fired(&mut self, param: u64) -> Option<usize> {
        let slot = self.live(param)?;
        let pending = self.slots[slot] & PENDING != 0;
        self.slots[slot] &= !PENDING;
        pending.then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::timer_params_set_by as timers;

    const GAP: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn a_fire_after_reset_is_rejected() {
        let mut p = Pacer::new(7);
        let armed = timers(|ctx| p.arm(ctx, 3, GAP));
        assert_eq!(armed, [3], "generation 0, slot 3");
        p.reset(3);
        assert_eq!(p.fired(armed[0]), None);
        assert_eq!(p.live(armed[0]), None);
    }

    #[test]
    fn reset_and_arm_inside_a_gap_leave_one_live_chain() {
        let mut p = Pacer::new(7);
        p.reset(0);
        let first = timers(|ctx| p.arm(ctx, 0, GAP));
        // Stop and restart before the first timer fires.
        p.reset(0);
        p.reset(0);
        let second = timers(|ctx| p.arm(ctx, 0, GAP));
        assert_eq!((first[0] >> 32, second[0] >> 32), (1, 3));
        assert_eq!(p.fired(first[0]), None, "the old chain is dead");
        assert_eq!(p.fired(second[0]), Some(0));
        assert_eq!(p.fired(second[0]), None, "and fires once per arm");
    }

    #[test]
    fn arm_while_pending_is_a_no_op() {
        let mut p = Pacer::new(7);
        let set = timers(|ctx| {
            p.arm(ctx, 1, GAP);
            p.arm(ctx, 1, GAP);
        });
        assert_eq!(set.len(), 1);
        assert_eq!(p.fired(set[0]), Some(1));
        assert_eq!(timers(|ctx| p.arm(ctx, 1, GAP)), set, "idle again");
    }

    #[test]
    fn never_armed_and_out_of_range_slots_do_not_fire() {
        let mut p = Pacer::new(7);
        p.reset(2);
        assert_eq!(p.fired(p.param(2)), None, "reset but never armed");
        assert_eq!(p.fired(1), None, "in range, generation 0, never armed");
        assert_eq!(p.fired(9), None, "out of range");
        assert_eq!(p.live(9), None);
        assert_eq!(p.live(p.param(2)), Some(2));
    }

    #[test]
    fn generation_wraps_without_disturbing_the_pending_bit() {
        let mut p = Pacer::new(7);
        p.slots = vec![!PENDING]; // the last generation, idle
        assert_eq!(p.param(0) >> 32, (1 << 31) - 1);
        let last = timers(|ctx| p.arm(ctx, 0, GAP));
        assert_eq!(p.slots[0], u32::MAX, "armed under the last generation");
        p.reset(0);
        assert_eq!(p.slots[0], 0, "generation 0, not pending");
        assert_eq!(p.fired(last[0]), None);
        let wrapped = timers(|ctx| p.arm(ctx, 0, GAP));
        assert_eq!(wrapped, [0]);
        assert_eq!(p.fired(wrapped[0]), Some(0));
    }
}
