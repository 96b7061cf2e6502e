//! A deterministic event queue for discrete-event simulation.
//!
//! Events are ordered by timestamp; events with equal timestamps are
//! delivered in insertion order (stable FIFO tie-break). This makes a
//! simulation run a pure function of its inputs and seed.
//!
//! Two interchangeable backends implement the same delivery contract:
//!
//! * [`QueueBackend::Wheel`] (the default) — a hand-rolled hierarchical
//!   timer wheel. Scheduling and delivery are O(1) amortized for the
//!   near-future events that dominate a packet-level simulation (link
//!   serialization plus propagation); events beyond the wheel horizon
//!   spill into a small overflow heap and migrate in as the clock
//!   reaches their window. See DESIGN.md §9 for the
//!   layout.
//! * [`QueueBackend::Heap`] — the original `BinaryHeap` ordering, kept
//!   for differential testing and as a reference for the ordering
//!   contract.
//!
//! The wheel assumes the simulation invariant that time never rewinds:
//! events must not be scheduled earlier than the latest delivered event
//! (debug-asserted; in release builds such a push is clamped to the
//! current tick). The heap backend has no such requirement.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the wheel tick in nanoseconds: one tick is 2^17 ns ≈ 131 µs.
/// Events inside one tick are ordered exactly by `(time, seq)` — the
/// tick granularity batches *storage*, never delivery order — so the
/// tick size is a pure performance knob: it trades cascade depth
/// (cheaper with coarse ticks, since link-scale delays land directly in
/// the bottom levels) against the size of the per-tick sort (costlier
/// with coarse ticks). 131 µs keeps the per-tick population at a
/// handful of events for packet-level workloads while eliminating most
/// cascades; see DESIGN.md §9.
const TICK_SHIFT: u32 = 17;
/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. Four 64-slot levels cover 2^24 ticks ≈ 36.6 simulated
/// minutes ahead of the current tick; anything farther overflows to a
/// heap.
const LEVELS: usize = 4;
/// Total tick bits the wheel resolves (24).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Entries per block of a wheel slot's chain.
const BLOCK: usize = 16;
/// Cells per payload slab chunk: a handle is `chunk * CHUNK + index`.
const CHUNK: usize = 1 << 10;

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timer wheel with overflow heap (default).
    Wheel,
    /// Binary heap (the seed implementation; reference semantics).
    Heap,
}

/// A timestamped event queue with deterministic ordering.
///
/// Payloads sit still in one free-listed slab; what the backends order,
/// sort and cascade are 24-byte `(time, key, handle)` entries, so the
/// cost of moving an event around the queue does not depend on `E`.
///
/// # Example
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c'); // same instant: FIFO order
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    payloads: Payloads<E>,
    order: Order,
    /// Tie-break key of the next [`push`](Self::push).
    next_seq: u64,
    popped: u64,
}

#[derive(Debug, Clone)]
enum Order {
    Wheel(TimerWheel),
    /// The seed implementation: O(log n) per operation, no
    /// monotonic-push requirement. Kept as the ordering oracle.
    Heap(BinaryHeap<Entry>),
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in the payload slab, on top of
    /// its 24-byte ordering entry: `E`, plus a tag word unless `E` has a
    /// spare value to tell a vacant cell by. For callers to pin.
    pub const CELL_BYTES: usize = std::mem::size_of::<Cell<E>>();

    /// Creates an empty wheel-backed queue.
    pub fn new() -> Self {
        EventQueue::with_backend(QueueBackend::Wheel, 0)
    }

    /// Creates an empty wheel-backed queue with capacity for `capacity`
    /// same-tick pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_backend(QueueBackend::Wheel, capacity)
    }

    /// Creates an empty queue on the chosen backend.
    pub fn with_backend(backend: QueueBackend, capacity: usize) -> Self {
        EventQueue {
            payloads: Payloads::new(),
            order: match backend {
                QueueBackend::Wheel => Order::Wheel(TimerWheel::with_capacity(capacity)),
                QueueBackend::Heap => Order::Heap(BinaryHeap::with_capacity(capacity)),
            },
            next_seq: 0,
            popped: 0,
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.order {
            Order::Wheel(_) => QueueBackend::Wheel,
            Order::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// On the wheel backend, `time` must not precede the latest
    /// delivered event's time (simulation time never rewinds); this is
    /// debug-asserted, and release builds clamp such an event to the
    /// current tick.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, event);
    }

    /// Schedules `event` to fire at `time` under a caller-chosen tie-break
    /// key instead of the internal insertion counter.
    ///
    /// Same-time events pop in ascending `key` order. Keys must be unique
    /// across the queue's lifetime (duplicate `(time, key)` pairs make the
    /// pop order unspecified), and a queue should use either `push` or
    /// `push_keyed` exclusively — mixing them interleaves the two key
    /// spaces arbitrarily. Caller keys let independently filled queues
    /// (e.g. one per topology shard) agree on a global total order.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        let entry = Entry {
            time,
            seq: key,
            handle: self.payloads.insert(event),
        };
        match &mut self.order {
            Order::Wheel(w) => w.place(entry),
            Order::Heap(h) => h.push(entry),
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are broken by insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match &mut self.order {
            Order::Wheel(w) => w.pop(),
            Order::Heap(h) => h.pop(),
        }?;
        Some(self.deliver(entry))
    }

    /// Removes and returns the earliest event if its timestamp is at or
    /// before `end`; returns `None` (leaving the event pending) when the
    /// earliest event is later, or the queue is empty.
    ///
    /// Equivalent to a `peek_time`-check-then-`pop`, but in one call: a
    /// horizon-bounded dispatch loop pays for locating the minimum once
    /// per event instead of twice.
    pub fn pop_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        self.pop_keyed_at_or_before(end)
            .map(|(time, _, event)| (time, event))
    }

    /// [`pop_at_or_before`](Self::pop_at_or_before), also returning the
    /// tie-break key the event was pushed under (its insertion sequence
    /// number after a plain [`push`](Self::push)), so a caller that keys
    /// its events need not store the key in the payload as well.
    pub fn pop_keyed_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let entry = match &mut self.order {
            Order::Wheel(w) => {
                let entry = w.pop_at_or_before(end)?;
                // Touch-ahead: the slab is filled in LIFO order and read
                // in time order, so the *next* pop's cell is usually cold.
                // Loading its tag now lets the core overlap that miss
                // with the caller's dispatch of this event. A plain load
                // the optimizer may not drop — nothing is read from it.
                if let Some(next) = w.cur.last() {
                    let cell = self.payloads.cell(next.handle);
                    std::hint::black_box(matches!(cell, Cell::Free(_)));
                }
                entry
            }
            // The oracle stays as plain as it can be.
            Order::Heap(h) => {
                if h.peek()?.time > end {
                    return None;
                }
                h.pop()?
            }
        };
        let key = entry.seq;
        let (time, event) = self.deliver(entry);
        Some((time, key, event))
    }

    fn deliver(&mut self, entry: Entry) -> (SimTime, E) {
        self.popped += 1;
        (entry.time, self.payloads.take(entry.handle))
    }

    /// Returns the timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.order {
            Order::Wheel(w) => w.peek_time(),
            Order::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.payloads.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending events, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = &E> {
        let cells = self.payloads.chunks.iter().flatten();
        cells.filter_map(|cell| match cell {
            Cell::Full(event) => Some(event),
            Cell::Free(_) => None,
        })
    }

    /// Returns the total number of events delivered so far. Monotone
    /// over the queue's lifetime; [`clear`](Self::clear) does not reset
    /// it.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Removes all pending events without delivering them.
    ///
    /// Only *pending* state is discarded: [`delivered`](Self::delivered)
    /// keeps its count (cleared events were never delivered), and the
    /// internal FIFO sequence keeps advancing, so events pushed after a
    /// `clear` still tie-break after everything pushed before it. On the
    /// wheel backend the clock rewinds to zero, so a cleared queue can
    /// be reused for a fresh run starting at `SimTime::ZERO`.
    pub fn clear(&mut self) {
        self.payloads.clear();
        match &mut self.order {
            Order::Wheel(w) => w.clear(),
            Order::Heap(h) => h.clear(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Where the queue keeps its payloads: a slab whose vacant cells chain
/// into a LIFO free list, so a steady-state queue reuses the cells it
/// just emptied (hot in cache) and never allocates. Its chunks are full
/// but the last: the first grows by doubling, as a short run needs, and
/// each later one is allocated whole, [`CHUNK`] cells.
#[derive(Debug, Clone)]
struct Payloads<E> {
    chunks: Vec<Vec<Cell<E>>>,
    /// Head of the free list, or [`NO_CELL`].
    free: u32,
    live: usize,
}

#[derive(Debug, Clone)]
enum Cell<E> {
    Full(E),
    /// Vacant; holds the next free cell, or [`NO_CELL`].
    Free(u32),
}

const NO_CELL: u32 = u32::MAX;

impl<E> Payloads<E> {
    /// Starts empty and grows with the pending peak: sizing the slab
    /// ahead (1024 cells of a netsim event are 106 kB) cost a short run's
    /// set-up more than the dozen doublings cost a long one.
    fn new() -> Self {
        Payloads {
            chunks: Vec::new(),
            free: NO_CELL,
            live: 0,
        }
    }

    fn cell(&mut self, handle: u32) -> &mut Cell<E> {
        &mut self.chunks[handle as usize / CHUNK][handle as usize % CHUNK]
    }

    fn insert(&mut self, event: E) -> u32 {
        self.live += 1;
        let handle = self.free;
        if handle == NO_CELL {
            return self.append(event);
        }
        let cell = self.cell(handle);
        let Cell::Free(next) = *cell else {
            unreachable!("free list points at a live payload");
        };
        *cell = Cell::Full(event);
        self.free = next;
        handle
    }

    /// Fills a fresh cell; with none free, the `live - 1` before it are all full.
    #[cold]
    fn append(&mut self, event: E) -> u32 {
        let handle = self.live - 1;
        assert!(handle < NO_CELL as usize, "more than 2^32 pending events");
        if handle / CHUNK == self.chunks.len() {
            let room = if handle < CHUNK { 0 } else { CHUNK };
            self.chunks.push(Vec::with_capacity(room));
        }
        self.chunks[handle / CHUNK].push(Cell::Full(event));
        handle as u32
    }

    fn take(&mut self, handle: u32) -> E {
        let free = self.free;
        let cell = std::mem::replace(self.cell(handle), Cell::Free(free));
        let Cell::Full(event) = cell else {
            unreachable!("entry handle points at a vacant cell");
        };
        self.free = handle;
        self.live -= 1;
        event
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.free = NO_CELL;
        self.live = 0;
    }
}

/// What the backends order: `(time, seq)` is the delivery key, `handle`
/// finds the payload. 24 bytes whatever the event type.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    time: SimTime,
    seq: u64,
    handle: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that in a max-heap (and at the *back* of a sorted
        // vec) the earliest (time, seq) comes out first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hierarchical timer wheel.
///
/// Ticks are `time >> TICK_SHIFT`. Level `l` of the wheel stores every
/// pending event whose tick agrees with the current tick on all digits
/// above `l` (base-64 digits) and first differs at digit `l`; the slot
/// index is the event's digit `l`. Events whose tick differs above the
/// top level (≥ 2^24 ticks ahead) wait in `overflow`, a min-heap, and
/// migrate into the wheel when the clock enters their 2^24-tick window.
///
/// `cur` holds the current tick's events sorted ascending in `Entry`'s
/// inverted order (earliest at the back), so delivery is an O(1)
/// comparison-free `Vec::pop`. Events pushed *into the current tick
/// after it started* — a running transmission train scheduling within
/// its own tick, or the adversarial all-one-tick microbench — go to
/// `late`, a small max-heap in the same inverted order, instead of an
/// O(n) sorted insert into `cur`; `pop` merges the two sources by
/// comparing `cur.last()` against `late.peek()`. Since `(time, seq)` is
/// a total order (seqs are unique), the merged sequence is exactly the
/// globally sorted one, and slot events all carry later ticks than
/// anything in `cur`/`late`, so the pending minimum is always: best of
/// `cur`/`late`, else the lowest occupied slot of the lowest occupied
/// level, else the overflow top — which makes `peek_time` cheap and
/// `pop` lazy: the wheel only advances when both same-tick sources run
/// dry.
///
/// A slot's entries sit in a chain of [`BLOCK`]-entry blocks from one
/// arena, `blocks`, whose free blocks form a LIFO list. Draining a slot
/// (into `cur` at level 0, by cascade above) returns its blocks there for
/// the next slot to fill, so the wheel retains room for the entries
/// pending at once plus a partly filled block per occupied slot, whatever
/// a slot held before, and a steady state allocates nothing.
#[derive(Debug, Clone)]
struct TimerWheel {
    /// Current tick's events, sorted ascending by `Entry`'s (inverted)
    /// order; the earliest event is at the back.
    cur: Vec<Entry>,
    /// `LEVELS * SLOTS` chains, indexed `level * SLOTS + slot`.
    slots: Box<[Slot; LEVELS * SLOTS]>,
    /// Every block a chain holds or has held; free ones chain from `free`.
    blocks: Vec<Block>,
    free: u32,
    /// One occupancy bitmap per level (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon, min-first.
    overflow: BinaryHeap<Entry>,
    /// The tick of the most recent delivery (starts at 0). May run
    /// ahead of the last delivery up to the earliest *pending* tick: a
    /// bounded [`pop_at_or_before`](Self::pop_at_or_before) advances the
    /// wheel before discovering the next event lies beyond its horizon.
    now_tick: u64,
    /// Timestamp of the most recent delivery — the true monotonic floor
    /// for pushes. Events between `floor` and `now_tick` are still
    /// ordered exactly: they join `late`, which orders by real
    /// `(time, seq)`, ahead of every slot entry (whose ticks are all
    /// `>= now_tick`).
    floor: SimTime,
    /// Same-tick late arrivals, max-first in `Entry`'s inverted order
    /// (top = earliest). Usually empty: most pushes land a full
    /// serialization time ahead, beyond the current tick.
    late: BinaryHeap<Entry>,
}

/// A slot's first and last block and the entries in the last (the others
/// are full); `len` is [`BLOCK`] in an empty slot, as in a full one.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NO_BLOCK,
    tail: NO_BLOCK,
    len: BLOCK as u32,
};

#[derive(Debug, Clone)]
struct Block {
    entries: [Entry; BLOCK],
    /// The next block of its chain (unset in the last) or free list.
    next: u32,
}

const NO_BLOCK: u32 = u32::MAX;

impl TimerWheel {
    fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            cur: Vec::with_capacity(capacity),
            slots: Box::new([EMPTY_SLOT; LEVELS * SLOTS]),
            blocks: Vec::new(),
            free: NO_BLOCK,
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            now_tick: 0,
            floor: SimTime::ZERO,
            late: BinaryHeap::new(),
        }
    }

    /// Files `e` into `late`, a wheel slot, or the overflow heap
    /// according to its tick's highest digit differing from `now_tick`.
    fn place(&mut self, e: Entry) {
        let tick = e.time.as_nanos() >> TICK_SHIFT;
        if tick <= self.now_tick {
            debug_assert!(
                e.time >= self.floor,
                "event scheduled at {:?} before the latest delivery at {:?}",
                e.time,
                self.floor,
            );
            // O(log n) heap push, not an O(n) sorted insert into `cur`;
            // `pop` merges the two sources in exact (time, seq) order.
            self.late.push(e);
            return;
        }
        let diff = tick ^ self.now_tick;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1u64 << slot;
        self.push_to_slot(level * SLOTS + slot, e);
    }

    /// Appends `e` to slot `index`'s chain, linking a free block if the last is full.
    fn push_to_slot(&mut self, index: usize, e: Entry) {
        if self.slots[index].len as usize == BLOCK {
            if self.free == NO_BLOCK {
                self.grow_blocks();
            }
            let block = self.free;
            self.free = self.blocks[block as usize].next;
            let slot = &mut self.slots[index];
            match slot.head {
                NO_BLOCK => slot.head = block,
                _ => self.blocks[slot.tail as usize].next = block,
            }
            (slot.tail, slot.len) = (block, 0);
        }
        let slot = &mut self.slots[index];
        self.blocks[slot.tail as usize].entries[slot.len as usize] = e;
        slot.len += 1;
    }

    /// Adds a free block, growing the arena by half: nearer the peak than doubling.
    #[cold]
    fn grow_blocks(&mut self) {
        let block = self.blocks.len();
        assert!(block < NO_BLOCK as usize, "more than 2^32 - 1 wheel blocks");
        if block == self.blocks.capacity() {
            self.blocks.reserve_exact(block / 2 + 4);
        }
        let (entries, next) = ([Entry::default(); BLOCK], self.free);
        self.blocks.push(Block { entries, next });
        self.free = block as u32;
    }

    /// Empties slot `index` into `cur` (a level-0 slot is one tick) or
    /// one level down or more (a cascade), freeing each block as it goes.
    fn drain_slot(&mut self, index: usize) {
        let Slot { head, tail, len } = std::mem::replace(&mut self.slots[index], EMPTY_SLOT);
        let mut head = head;
        while head != NO_BLOCK {
            let block = head as usize;
            let n = if head == tail { len as usize } else { BLOCK };
            let next = std::mem::replace(&mut self.blocks[block].next, self.free);
            (self.free, head) = (head, if head == tail { NO_BLOCK } else { next });
            if index < SLOTS {
                self.cur.extend_from_slice(&self.blocks[block].entries[..n]);
            } else {
                // Copied out first: the placements may relink the block.
                let entries = self.blocks[block].entries;
                entries[..n].iter().for_each(|&e| self.place(e));
            }
        }
    }

    /// Slot `index`'s entries, block by block.
    fn chain(&self, index: usize) -> impl Iterator<Item = &[Entry]> {
        let Slot { head, tail, len } = self.slots[index];
        let next = move |&b: &u32| (b != tail).then(|| self.blocks[b as usize].next);
        std::iter::successors((head != NO_BLOCK).then_some(head), next).map(move |b| {
            let n = if b == tail { len as usize } else { BLOCK };
            &self.blocks[b as usize].entries[..n]
        })
    }

    /// The earliest pending same-tick entry: the better of `cur`'s back
    /// and `late`'s top (the larger in `Entry`'s inverted order).
    fn peek_same_tick(&self) -> Option<&Entry> {
        match (self.cur.last(), self.late.peek()) {
            (Some(c), Some(l)) => Some(if c > l { c } else { l }),
            (c, l) => c.or(l),
        }
    }

    /// Removes the earliest same-tick entry when `late` is non-empty —
    /// out of the hot path so the common all-in-`cur` case stays a
    /// comparison-free `Vec::pop`.
    #[cold]
    fn pop_merged(&mut self) -> Entry {
        debug_assert!(!self.late.is_empty());
        match self.cur.last() {
            Some(c) if c > self.late.peek().expect("checked non-empty") => {
                self.cur.pop().expect("checked non-empty")
            }
            _ => self.late.pop().expect("checked non-empty"),
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        let e = loop {
            if self.late.is_empty() {
                // Fast path: the current tick's events all sit in `cur`,
                // earliest at the back.
                if let Some(e) = self.cur.pop() {
                    break e;
                }
            } else {
                break self.pop_merged();
            }
            if !self.advance() {
                return None;
            }
        };
        self.floor = e.time;
        Some(e)
    }

    fn pop_at_or_before(&mut self, end: SimTime) -> Option<Entry> {
        loop {
            let next = if self.late.is_empty() {
                match self.cur.last() {
                    Some(c) => c.time,
                    None => {
                        // The advance may carry `now_tick` past `end`'s
                        // tick; that is harmless (see the `now_tick`
                        // field docs) and the event stays pending for a
                        // later pop.
                        if !self.advance() {
                            return None;
                        }
                        continue;
                    }
                }
            } else {
                self.peek_same_tick().expect("late is non-empty").time
            };
            if next > end {
                return None;
            }
            return self.pop();
        }
    }

    /// Advances the wheel until `cur` or `late` holds the next tick's
    /// events. Returns `false` if nothing is pending.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty() && self.late.is_empty());
        loop {
            let Some(level) = self.occupied.iter().position(|&bits| bits != 0) else {
                // Wheel empty: enter the overflow's next 2^24-tick
                // window and migrate that window's events in.
                let Some(top) = self.overflow.peek() else {
                    return false;
                };
                let min_tick = top.time.as_nanos() >> TICK_SHIFT;
                self.now_tick = min_tick & !((1u64 << WHEEL_BITS) - 1);
                while let Some(top) = self.overflow.peek() {
                    let tick = top.time.as_nanos() >> TICK_SHIFT;
                    if tick >> WHEEL_BITS != self.now_tick >> WHEEL_BITS {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked entry pops");
                    self.place(e);
                }
                // `place` routes events at the new current tick to
                // `late` (there is no slot for them).
                if !self.late.is_empty() {
                    return true; // window base == an event's tick
                }
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let shift = level as u32 * LEVEL_BITS;
            // Jump to the slot's base tick: digits above `level` keep
            // their value, digit `level` becomes `slot`, lower digits
            // reset to zero. Slots never sit at or below the current
            // digit (pushes are monotone), so this moves time forward.
            self.now_tick = (self.now_tick & !(((1u64) << (shift + LEVEL_BITS)) - 1))
                | ((slot as u64) << shift);
            self.occupied[level] &= !(1u64 << slot);
            // A level-0 slot goes into the (empty) `cur`, ordered for
            // back-pop delivery; a higher one cascades down (or into
            // `late` for events landing exactly on the new current tick).
            self.drain_slot(level * SLOTS + slot);
            if level == 0 {
                self.cur.sort_unstable();
                return true;
            }
            if !self.late.is_empty() {
                return true;
            }
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.peek_same_tick() {
            return Some(e.time);
        }
        if let Some(level) = self.occupied.iter().position(|&bits| bits != 0) {
            // The earliest (time, seq) is the *maximum* in Entry's
            // inverted order, and it sits in the lowest occupied slot.
            let index = level * SLOTS + self.occupied[level].trailing_zeros() as usize;
            return self.chain(index).flatten().max().map(|e| e.time);
        }
        self.overflow.peek().map(|e| e.time)
    }

    fn clear(&mut self) {
        self.cur.clear();
        self.late.clear();
        *self.slots = [EMPTY_SLOT; LEVELS * SLOTS];
        // Kept room: the arena refills it without allocating.
        self.blocks.clear();
        self.free = NO_BLOCK;
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.now_tick = 0;
        self.floor = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Entries the wheel's slots have room for.
    fn wheel_room<E>(q: &EventQueue<E>) -> usize {
        let Order::Wheel(w) = &q.order else {
            unreachable!()
        };
        w.blocks.capacity() * BLOCK
    }

    /// Cells the payload slab has room for.
    fn slab_room<E>(q: &EventQueue<E>) -> usize {
        q.payloads.chunks.iter().map(Vec::capacity).sum()
    }

    fn both_backends() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_backend(QueueBackend::Wheel, 16),
            EventQueue::with_backend(QueueBackend::Heap, 16),
        ]
    }

    #[test]
    fn pending_lists_exactly_the_undelivered_events() {
        for mut q in both_backends() {
            for i in 0..5 {
                q.push(SimTime::from_millis(i), i);
            }
            q.pop();
            q.pop();
            q.push(SimTime::from_millis(9), 9);
            let mut pending: Vec<u64> = q.pending().copied().collect();
            pending.sort_unstable();
            assert_eq!(pending, [2, 3, 4, 9]);
        }
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_backends() {
            q.push(SimTime::from_secs(3), 3);
            q.push(SimTime::from_secs(1), 1);
            q.push(SimTime::from_secs(2), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ties_break_fifo() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for mut q in both_backends() {
            q.push(SimTime::from_secs(5), 5);
            q.push(SimTime::from_secs(1), 1);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(SimTime::from_secs(2), 2);
            q.push(SimTime::from_secs(4), 4);
            assert_eq!(q.pop().unwrap().1, 2);
            q.push(SimTime::from_secs(3), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 4);
            assert_eq!(q.pop().unwrap().1, 5);
        }
    }

    #[test]
    fn bookkeeping_counts() {
        for mut q in both_backends() {
            assert!(q.is_empty());
            q.push(SimTime::ZERO, 0);
            q.push(SimTime::ZERO, 0);
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(SimTime::ZERO));
            q.pop();
            assert_eq!(q.delivered(), 1);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.delivered(), 1);
        }
    }

    #[test]
    fn clear_preserves_delivered_and_fifo_sequence() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(1);
            q.push(t, 1);
            q.push(t, 2);
            assert_eq!(q.pop(), Some((t, 1)));
            q.clear();
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_time(), None);
            // delivered() keeps counting across the clear.
            assert_eq!(q.delivered(), 1);
            // Pushes after the clear still tie-break FIFO among
            // themselves, and the queue is usable from t = 0 again.
            q.push(t, 10);
            q.push(SimTime::ZERO, 9);
            q.push(t, 11);
            assert_eq!(q.pop(), Some((SimTime::ZERO, 9)));
            assert_eq!(q.pop(), Some((t, 10)));
            assert_eq!(q.pop(), Some((t, 11)));
            assert_eq!(q.delivered(), 4);
        }
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // 2^24 ticks × 2^17 ns ≈ 2199 s: schedule well past it, in
        // several different overflow windows, plus near-future events.
        for mut q in both_backends() {
            q.push(SimTime::from_secs(9_000), 100);
            q.push(SimTime::from_secs(3_000), 40);
            q.push(SimTime::from_micros(3), 0);
            q.push(SimTime::from_secs(3_000), 41);
            q.push(SimTime::from_secs(2_000), 18);
            assert_eq!(q.pop().unwrap().1, 0);
            assert_eq!(q.pop().unwrap().1, 18);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(3_000)));
            assert_eq!(q.pop().unwrap().1, 40);
            assert_eq!(q.pop().unwrap().1, 41);
            assert_eq!(q.pop().unwrap().1, 100);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn sub_tick_times_deliver_in_time_order() {
        // Distinct SimTimes inside one tick must still deliver
        // by (time, seq), not insertion order.
        for mut q in both_backends() {
            q.push(SimTime::from_nanos(700), 7);
            q.push(SimTime::from_nanos(100), 1);
            q.push(SimTime::from_nanos(100), 2);
            q.push(SimTime::from_nanos(300), 3);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, [1, 2, 3, 7]);
        }
    }

    #[test]
    fn pop_at_or_before_respects_the_bound() {
        for mut q in both_backends() {
            q.push(SimTime::from_millis(10), 1);
            q.push(SimTime::from_millis(30), 3);
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
            assert_eq!(
                q.pop_at_or_before(SimTime::from_millis(10)),
                Some((SimTime::from_millis(10), 1))
            );
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(20)), None);
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop_at_or_before(SimTime::from_secs(1)),
                Some((SimTime::from_millis(30), 3))
            );
            assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
        }
    }

    #[test]
    fn late_push_after_bounded_pop_stays_ordered() {
        // A bounded pop may advance the wheel to the earliest pending
        // tick before finding it beyond the bound. Events pushed
        // afterwards with earlier timestamps (but not earlier than the
        // last delivery) must still come out first.
        for mut q in both_backends() {
            q.push(SimTime::from_millis(1), 1);
            q.push(SimTime::from_millis(100), 100);
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(1)).unwrap().1, 1);
            // Wheel has advanced toward tick(100 ms) internally.
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(50)), None);
            q.push(SimTime::from_millis(60), 60);
            q.push(SimTime::from_millis(55), 55);
            q.push(SimTime::from_millis(55), 56);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, [55, 56, 60, 100]);
        }
    }

    /// A payload that counts its drops per id.
    struct Counted(usize, Rc<RefCell<Vec<u32>>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.borrow_mut()[self.0] += 1;
        }
    }

    #[test]
    fn every_payload_is_dropped_exactly_once() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            const N: usize = 300;
            let drops = Rc::new(RefCell::new(vec![0u32; N]));
            let mut q = EventQueue::with_backend(backend, 4);
            let mut next = 0;
            let mut push = |q: &mut EventQueue<Counted>, ms: u64| {
                q.push(SimTime::from_millis(ms), Counted(next, drops.clone()));
                next += 1;
            };
            // Through `pop`: the caller owns (and drops) what it gets.
            for i in 0..100 {
                push(&mut q, 1 + i % 7);
            }
            for _ in 0..60 {
                let (_, popped) = q.pop().expect("pending");
                assert_eq!(drops.borrow()[popped.0], 0);
            }
            // Refill over the freed cells, then `clear`.
            for i in 0..100 {
                push(&mut q, 10 + i % 5_000);
            }
            q.clear();
            assert_eq!(drops.borrow()[..200].iter().sum::<u32>(), 200);
            // Pending at queue drop, some beyond the wheel horizon.
            for i in 0..100 {
                push(&mut q, i * 40_000);
            }
            assert_eq!(q.len(), 100);
            drop(q);
            assert!(drops.borrow().iter().all(|&d| d == 1), "{backend:?}");
        }
    }

    #[test]
    fn a_reused_handle_never_aliases_a_live_payload() {
        // Interleave pushes and pops so freed cells are refilled while
        // their neighbours are live; every pop must return the payload
        // pushed under that (time, key).
        for mut q in both_backends() {
            let mut rng = crate::rng::DetRng::new(9);
            let mut now = 0u64;
            let mut live = std::collections::BTreeMap::new();
            for key in 0..5_000u64 {
                let at = now + rng.next_u64() % 3_000_000;
                q.push_keyed(SimTime::from_nanos(at), key, at ^ key);
                live.insert((at, key), at ^ key);
                if rng.index(3) > 0 {
                    let (t, payload) = q.pop().expect("just pushed");
                    let (&(at, key), &want) = live.iter().next().expect("model non-empty");
                    assert_eq!((t.as_nanos(), payload), (at, want));
                    live.remove(&(at, key));
                    now = at;
                }
            }
            assert_eq!(q.len(), live.len());
        }
    }

    #[test]
    fn entries_are_24_bytes_whatever_the_payload() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn keyed_pops_return_the_key_the_event_was_pushed_under() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(2);
            q.push_keyed(t, 70, 1);
            q.push_keyed(t, 5, 2);
            q.push_keyed(SimTime::from_millis(9), 6, 3);
            assert_eq!(q.pop_keyed_at_or_before(t), Some((t, 5, 2)));
            assert_eq!(q.pop_keyed_at_or_before(t), Some((t, 70, 1)));
            assert_eq!(q.pop_keyed_at_or_before(t), None);
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn touch_ahead_is_invisible() {
        // The bounded pop peeks at the next same-tick entry's payload
        // cell; where there is none — the last entry of a tick, a queue
        // of one, a queue cleared between pops — it must do nothing, and
        // it never changes what comes out.
        let far = SimTime::from_secs(9);
        for mut q in both_backends() {
            q.push(SimTime::from_nanos(5), 1);
            assert_eq!(q.pop_at_or_before(far), Some((SimTime::from_nanos(5), 1)));
            assert_eq!(q.pop_at_or_before(far), None);
            // Two entries in one tick, one in a later tick.
            q.push(SimTime::from_nanos(10), 2);
            q.push(SimTime::from_nanos(20), 3);
            q.push(SimTime::from_millis(7), 4);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 2);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 3);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 4);
            q.push(SimTime::from_millis(8), 5);
            q.push(SimTime::from_millis(8), 6);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 5);
            q.clear();
            assert_eq!(q.pop_at_or_before(far), None);
            q.push(SimTime::from_nanos(1), 7);
            q.push(SimTime::from_nanos(1), 8);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 7);
            assert_eq!(q.pop_at_or_before(far).unwrap().1, 8);
            assert_eq!(q.delivered(), 7);
        }
    }

    #[test]
    fn the_wheel_retains_room_for_peak_pending_not_for_slots_touched() {
        // Forty rounds, each filling a different level-2 slot with
        // PER_ROUND events and draining it through every lower level:
        // what the wheel keeps afterwards is room for a round at each
        // level it passed through, not forty level-2 buffers.
        const PER_ROUND: u64 = 4_000;
        let mut q = EventQueue::with_backend(QueueBackend::Wheel, 0);
        let level2_slot_ns = 1u64 << (TICK_SHIFT + 2 * LEVEL_BITS);
        for round in 1..=40u64 {
            for i in 0..PER_ROUND {
                q.push(SimTime::from_nanos(round * level2_slot_ns + i * 1_000), i);
            }
            while q.pop().is_some() {}
        }
        let retained = wheel_room(&q);
        assert!(
            retained <= 4 * PER_ROUND as usize,
            "wheel retains room for {retained} entries after rounds of {PER_ROUND}"
        );
        assert!(slab_room(&q) <= 2 * PER_ROUND as usize);
    }

    #[test]
    fn sparse_far_slots_do_not_hold_the_dense_bands_buffers() {
        // Churn-shaped: a dense band of events 0.5–1 s ahead, each popped
        // event rescheduled into the band, and now and then a tail event
        // 2–30 s ahead — a few per level-2 slot at any time, the stop of
        // a long-lived flow. Twenty simulated seconds cross level 2 some
        // 37 times. The dense band drains level-2 slots the tail keeps
        // occupied for seconds; the wheel's retained room must still
        // follow what is pending at once.
        const DENSE: u64 = 2_000;
        let mut q = EventQueue::with_backend(QueueBackend::Wheel, 0);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |lo_ms: u64, hi_ms: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            SimDuration::from_micros(lo_ms * 1_000 + rng % ((hi_ms - lo_ms) * 1_000))
        };
        for i in 0..DENSE {
            q.push(SimTime::ZERO + next(500, 1_000), i);
        }
        let (mut peak, mut pops) = (0, 0u64);
        while let Some((now, tag)) = q.pop() {
            if now > SimTime::from_secs(20) {
                break;
            }
            pops += 1;
            if tag < DENSE {
                q.push(now + next(500, 1_000), tag);
                if pops % 256 == 0 {
                    q.push(now + next(2_000, 30_000), DENSE);
                }
            }
            peak = peak.max(q.len());
        }
        let retained = wheel_room(&q);
        assert!(
            retained <= 4 * peak,
            "wheel retains room for {retained} entries at a peak of {peak} pending"
        );
    }

    #[test]
    fn a_dense_band_leaves_the_wheel_room_for_what_is_pending_at_once() {
        // `k16_churn`-shaped: some 8 k events pending, nearly all of them
        // rescheduled 60–100 ms ahead (a churn flow's linger), so each
        // level-1 slot (8.4 ms) gathers hundreds of entries before it
        // cascades, and a thin tail 0.1–1 s ahead keeps every level-1
        // slot occupied. A slot buffer that kept the room of its fullest
        // moment would leave the wheel some 1 k entries of room per
        // level-1 slot, 63 k in all.
        const PENDING: u64 = 8_000;
        let mut q = EventQueue::with_backend(QueueBackend::Wheel, 0);
        let mut rng = crate::rng::DetRng::new(3);
        let mut ahead = move || {
            let us = match rng.index(100) {
                0..=2 => 100_000 + rng.next_u64() % 900_000,
                _ => 60_000 + rng.next_u64() % 40_000,
            };
            SimDuration::from_micros(us)
        };
        for i in 0..PENDING {
            q.push(SimTime::ZERO + ahead(), i);
        }
        let (mut peak, mut fullest, mut pops) = (0, 0, 0u64);
        while let Some((now, tag)) = q.pop() {
            if now > SimTime::from_secs(3) {
                break;
            }
            q.push(now + ahead(), tag);
            peak = peak.max(q.len());
            pops += 1;
            if now > SimTime::from_secs(1) && pops % 512 == 0 {
                let Order::Wheel(w) = &q.order else {
                    unreachable!()
                };
                let level1 = (SLOTS..2 * SLOTS).map(|i| w.chain(i).map(<[Entry]>::len).sum());
                fullest = fullest.max(level1.max().unwrap_or(0));
            }
        }
        assert!(fullest > 600, "the fullest level-1 slot held {fullest}");
        let retained = wheel_room(&q);
        assert!(
            retained <= 2 * peak,
            "wheel retains room for {retained} entries at a peak of {peak} pending"
        );
    }

    #[test]
    fn the_slab_retains_at_most_a_chunk_past_its_peak() {
        // The serial `k16_churn` peak: 8,999 pending, 807 past 8,192. A
        // slab that doubled would keep 16,384 cells.
        const PEAK: u64 = 8_999;
        let mut q = EventQueue::with_backend(QueueBackend::Wheel, 0);
        for i in 0..PEAK - 4_000 {
            q.push(SimTime::from_micros(i), i);
        }
        for _ in 0..2_000 {
            q.pop();
        }
        for i in 0..6_000 {
            q.push(SimTime::from_millis(10 + i), i);
        }
        assert_eq!(q.len(), PEAK as usize);
        while q.pop().is_some() {}
        assert_eq!(slab_room(&q), 9 * CHUNK);
    }

    #[test]
    fn default_backend_is_wheel() {
        assert_eq!(EventQueue::<u32>::new().backend(), QueueBackend::Wheel);
        assert_eq!(
            EventQueue::<u32>::with_backend(QueueBackend::Heap, 0).backend(),
            QueueBackend::Heap
        );
    }
}
