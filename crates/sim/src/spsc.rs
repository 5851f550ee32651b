//! The packet-delivery queue: per-source SPSC rings behind a timed facade.
//!
//! [`TimedQueue`](crate::queue::TimedQueue) serializes every producer and
//! consumer on one mutex. That is fine for genuinely multi-producer lanes
//! (the LAPI completion queue) but it is the wrong shape for packet
//! delivery: the adapter already serializes all packets of a directed
//! `(src, dst)` flow under the sender-side flow lock, so each *source* is a
//! single producer into the destination's receive
//! queue. [`DeliveryRings`] exploits that: one SPSC circular ring per source
//! lane (modeled on cpp-ipc's circular-array channels), lock-free on the
//! producer side, with a spin-then-park protocol for blocked consumers. A
//! ring starts at [`FIRST_SLOTS`] and doubles on demand up to the configured
//! capacity, and the consumer visits only lanes that have carried a packet,
//! so memory and drain cost follow the traffic, not `lanes × capacity`.
//!
//! Ordering semantics are identical to `TimedQueue`: elements are handed
//! out in `(timestamp, tie-break, push-sequence)` order among those
//! currently visible. The consumer drains every ring into a private staging
//! heap before popping, and the push sequence comes from one shared atomic
//! counter, so the pop order is the same pure function of (timestamps, push
//! order, tie-break seed) that the reference heap computes
//! (`tests::matches_timed_queue_order_exactly`).

use std::cell::UnsafeCell;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::queue::{Entry, QueueClosed, Stamped, DEFAULT_ESCAPE};
use crate::sched::SimCondvar;
use crate::time::VTime;

/// How long a producer spins on a full ring before yielding the CPU.
const FULL_SPINS: u32 = 64;

/// Slots in a lane's first buffer (or the capacity bound, if smaller).
const FIRST_SLOTS: usize = 64;

type Slot<T> = UnsafeCell<MaybeUninit<Entry<T>>>;

fn alloc_slots<T>(cap: usize) -> *mut Slot<T> {
    let boxed: Box<[Slot<T>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    Box::into_raw(boxed) as *mut Slot<T>
}

/// # Safety
/// `p` must come from `alloc_slots(cap)` and not be used afterwards; live
/// entries must have been read out first (slots are `MaybeUninit`).
unsafe fn free_slots<T>(p: *mut Slot<T>, cap: usize) {
    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, cap)));
}

/// One single-producer/single-consumer circular ring (one source lane).
///
/// The buffer is allocated by the producer on first push and doubled by it
/// when full (`DeliveryRings::grow`), so an `n`-node switch pays neither
/// `n²` ring allocations for lanes that never carry traffic nor the full
/// capacity for lanes that stay shallow. `head`/`tail` are free-running
/// cursors; indices are `cursor & (cap - 1)` (`cap` is a power of two), so
/// they stay valid across a resize.
struct Ring<T> {
    buf: AtomicPtr<Slot<T>>,
    /// Slots in `buf`; 0 until the first push.
    cap: AtomicUsize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl<T> Ring<T> {
    fn new() -> Self {
        Ring {
            buf: AtomicPtr::new(std::ptr::null_mut()),
            cap: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }
}

/// What the consumer owns under the `staged` lock.
struct Staged<T> {
    /// Rings are FIFO per lane but route skew makes per-lane timestamps
    /// non-monotonic, so visible entries are re-ordered here before popping.
    heap: BinaryHeap<Entry<T>>,
    /// Lanes that have carried a packet, in first-push order: the only
    /// rings `drain_into` visits. A producer registers its lane when it
    /// allocates the lane's first buffer.
    lanes: Vec<usize>,
}

/// Shared state behind [`DeliveryRings`] handles.
struct RingsInner<T> {
    rings: Box<[Ring<T>]>,
    /// Upper bound on a lane's slots: growth stops and back-pressure
    /// starts here.
    cap: usize,
    /// Global push order across all lanes — the `seq` every entry carries,
    /// playing the role of `TimedQueue`'s per-push sequence counter.
    next_seq: AtomicU64,
    /// Entries pushed but not yet handed to a caller (staged included):
    /// the lock-free emptiness hint `len`/`is_empty` read.
    depth: AtomicUsize,
    closed: AtomicBool,
    /// Consumer side. Serializes concurrent consumers (dispatcher thread +
    /// application probe) and, because a ring's `buf`/`cap` change only
    /// under it, gives a resizing producer the ring to itself.
    staged: Mutex<Staged<T>>,
    /// Park/wake handshake for blocked consumers (see `recv_merge`).
    park: Mutex<()>,
    cond: SimCondvar,
    waiters: AtomicUsize,
}

// SAFETY: every slot is written by exactly one producer (guarded by the
// adapter's per-flow lock) and read by consumers only after observing the
// producer's Release store of `tail`; a ring's buffer is replaced only by
// that producer, under the `staged` lock every consumer holds while it
// reads the ring; the staging heap and park state are mutex-protected.
// `T: Send` is required because entries cross threads.
unsafe impl<T: Send> Send for RingsInner<T> {}
unsafe impl<T: Send> Sync for RingsInner<T> {}

impl<T> RingsInner<T> {
    /// Move every visible ring entry into the staging heap. Caller holds
    /// the `staged` lock (the guard proves it).
    fn drain_into(&self, staged: &mut Staged<T>) {
        let Staged { heap, lanes } = staged;
        for &lane in lanes.iter() {
            let ring = &self.rings[lane];
            // ordering: Relaxed ×3 — buf and cap change, and head advances,
            // only under the `staged` lock, which the caller holds.
            let buf = ring.buf.load(Ordering::Relaxed);
            let mask = ring.cap.load(Ordering::Relaxed) - 1;
            let mut head = ring.head.load(Ordering::Relaxed);
            // ordering: Acquire pairs with the producer's Release store of
            // `tail`: entries below it are fully written.
            let tail = ring.tail.load(Ordering::Acquire);
            while head != tail {
                // SAFETY: [head, tail) slots are initialized (published by
                // the producer's Release) and not yet consumed; reading
                // them out transfers ownership to the staging heap.
                let e = unsafe { (*(*buf.add(head & mask)).get()).assume_init_read() };
                heap.push(e);
                head = head.wrapping_add(1);
                // ordering: Release — hand the slot back to the producer;
                // pairs with its Acquire load in the full-ring wait loop.
                ring.head.store(head, Ordering::Release);
            }
        }
    }
}

impl<T> Drop for RingsInner<T> {
    fn drop(&mut self) {
        let mut staged = self.staged.lock();
        // Undelivered entries leave the rings here and drop with the heap.
        self.drain_into(&mut staged);
        for &lane in &staged.lanes {
            let ring = &self.rings[lane];
            // ordering: Relaxed ×2 — `&mut self` proves exclusive access.
            let p = ring.buf.load(Ordering::Relaxed);
            let cap = ring.cap.load(Ordering::Relaxed);
            // SAFETY: a registered lane owns the `cap`-slot buffer `grow`
            // stored last, emptied above.
            unsafe { free_slots(p, cap) };
        }
    }
}

/// A multi-lane SPSC delivery queue with `TimedQueue`-compatible
/// semantics. Cloning yields another handle to the same queue.
pub struct DeliveryRings<T> {
    inner: Arc<RingsInner<T>>,
    escape: Duration,
}

impl<T> Clone for DeliveryRings<T> {
    fn clone(&self) -> Self {
        DeliveryRings {
            inner: Arc::clone(&self.inner),
            escape: self.escape,
        }
    }
}

impl<T: Send> DeliveryRings<T> {
    /// New queue with `lanes` source lanes, each a ring of at most
    /// `capacity` entries (rounded up to a power of two), and the default
    /// real-time escape for blocking operations.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        Self::with_escape(lanes, capacity, DEFAULT_ESCAPE)
    }

    /// New queue with a custom real-time escape (tests use short escapes to
    /// exercise the deadlock diagnostics).
    pub fn with_escape(lanes: usize, capacity: usize, escape: Duration) -> Self {
        assert!(lanes > 0, "a delivery queue needs at least one lane");
        let cap = capacity.max(2).next_power_of_two();
        DeliveryRings {
            inner: Arc::new(RingsInner {
                rings: (0..lanes).map(|_| Ring::new()).collect(),
                cap,
                next_seq: AtomicU64::new(0),
                depth: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                staged: Mutex::new(Staged {
                    heap: BinaryHeap::new(),
                    lanes: Vec::new(),
                }),
                park: Mutex::new(()),
                cond: SimCondvar::new(),
                waiters: AtomicUsize::new(0),
            }),
            escape,
        }
    }

    /// Most entries a lane's ring may hold (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Slots currently allocated for `lane`: 0 before its first push, then
    /// `max(FIRST_SLOTS, high-water depth)` rounded up to a power of two,
    /// never above [`Self::capacity`].
    pub fn lane_slots(&self, lane: usize) -> usize {
        // ordering: Relaxed — a monitoring read of a producer-owned value.
        self.inner.rings[lane].cap.load(Ordering::Relaxed)
    }

    /// Producer-side, cold: give `lane` its first buffer (registering the
    /// lane with the consumer) or double a full one, moving `[head, tail)`
    /// across. Runs under the `staged` lock, which every consumer holds
    /// while it reads a ring, so nobody else touches the buffer meanwhile.
    #[cold]
    fn grow(&self, lane: usize) -> (*mut Slot<T>, usize) {
        let inner = &*self.inner;
        let ring = &inner.rings[lane];
        // ordering: Relaxed ×2 — only this lane's producer stores these.
        let old = ring.buf.load(Ordering::Relaxed);
        let old_cap = ring.cap.load(Ordering::Relaxed);
        let cap = if old.is_null() {
            FIRST_SLOTS.min(inner.cap)
        } else {
            old_cap * 2
        };
        let new = alloc_slots::<T>(cap);
        let mut staged = inner.staged.lock();
        if old.is_null() {
            staged.lanes.push(lane);
        } else {
            // ordering: Relaxed ×2 — tail is this producer's own, and head
            // only moves under the `staged` lock, held here.
            let mut cur = ring.head.load(Ordering::Relaxed);
            let tail = ring.tail.load(Ordering::Relaxed);
            while cur != tail {
                // SAFETY: [head, tail) slots of the old buffer are
                // initialized and unconsumed; each is moved bitwise to the
                // slot the same cursor maps to in the new buffer, and the
                // old copy is never read again.
                unsafe {
                    let e = (*old.add(cur & (old_cap - 1))).get().read();
                    (*new.add(cur & (cap - 1))).get().write(e);
                }
                cur = cur.wrapping_add(1);
            }
            // SAFETY: `old` was this lane's `old_cap`-slot buffer; its
            // entries were moved out above and no consumer holds the
            // pointer outside the lock.
            unsafe { free_slots(old, old_cap) };
        }
        // ordering: Relaxed ×2 — consumers read these under the `staged`
        // lock, whose release below publishes them with the moved entries.
        ring.buf.store(new, Ordering::Relaxed);
        ring.cap.store(cap, Ordering::Relaxed);
        (new, cap)
    }

    /// Enqueue `item` on `lane` as an event at virtual time `at`.
    ///
    /// The caller must guarantee that pushes on one lane are serialized
    /// (the adapter's per-flow lock provides this). Returns `true` if the
    /// item was accepted; pushing to a closed queue refuses the item and
    /// returns `false`, like `TimedQueue::push` — callers use the refusal
    /// to write the packet off in the trace ledger. A full ring doubles
    /// until it reaches [`Self::capacity`]; from there the push
    /// spins-then-yields until the consumer frees a slot, and if no
    /// consumer drains within the real-time escape, the simulated program
    /// is stuck and this panics with a diagnostic.
    pub fn push_from(&self, lane: usize, at: VTime, item: T) -> bool {
        let inner = &*self.inner;
        // ordering: SeqCst — the close flag participates in the same total
        // order as depth/waiters so a post-close push is reliably dropped.
        if inner.closed.load(Ordering::SeqCst) {
            return false;
        }
        // ordering: Relaxed — the counter only needs uniqueness and
        // monotonicity; within the deterministic envelope pushes are
        // causally serialized, which fixes the observed order.
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let tie = crate::runtime::tiebreak_key(seq);
        let ring = &inner.rings[lane];
        // ordering: Relaxed ×3 — buf, cap and tail are only ever stored by
        // this (single) producer.
        let mut buf = ring.buf.load(Ordering::Relaxed);
        let mut cap = ring.cap.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Relaxed);
        let mut spins: u32 = 0;
        let mut deadline: Option<Instant> = None;
        // liveness: the consumer advances `head` as it drains the lane and
        // `close` breaks the wait; past the real-time escape the spin
        // panics with a diagnostic instead of livelocking.
        loop {
            // ordering: Acquire pairs with the consumer's Release store in
            // `drain_into`: observing the advanced head also means the
            // consumer is done reading the slot we are about to overwrite.
            let head = ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) < cap {
                break;
            }
            if cap < inner.cap {
                (buf, cap) = self.grow(lane);
                break;
            }
            // ordering: SeqCst — see the close check above.
            if inner.closed.load(Ordering::SeqCst) {
                return false;
            }
            spins += 1;
            if spins > FULL_SPINS {
                // Scheduler-aware: a fiber producer must give the (possibly
                // sole) worker back to the consumer that drains this ring.
                crate::sched::yield_now();
                let now = Instant::now();
                let dl = *deadline.get_or_insert(now + self.escape);
                if now >= dl {
                    panic!(
                        "DeliveryRings::push_from: lane {lane} ring full for {:?} of real \
                         time — no consumer is draining (simulated deadlock; is the \
                         destination polling?)\n\
                         ring: cap={} depth={} closed={}\n{}",
                        self.escape,
                        inner.cap,
                        // ordering: SeqCst — diagnostic read of the shared counter.
                        inner.depth.load(Ordering::SeqCst),
                        inner.closed.load(Ordering::SeqCst),
                        crate::trace::tail_report(crate::trace::REPORT_TAIL)
                    );
                }
            }
        }
        // SAFETY: the slot at `tail` is unoccupied (checked against `head`
        // above, or fresh from `grow`) and this thread is the lane's only
        // producer.
        unsafe {
            (*buf.add(tail & (cap - 1)))
                .get()
                .write(MaybeUninit::new(Entry { at, tie, seq, item }));
        }
        // ordering: Release publishes the slot write to consumers that load
        // `tail` with Acquire in `drain_into`.
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        // Dekker handshake with parking consumers: the depth increment must
        // be globally ordered against the consumer's waiter registration so
        // at least one side sees the other (either the consumer re-checks
        // depth > 0 and skips the park, or we see waiters > 0 and wake it).
        //
        // ordering: SeqCst — first half of the handshake described above.
        inner.depth.fetch_add(1, Ordering::SeqCst);
        // ordering: SeqCst — second half of the handshake above.
        if inner.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the park mutex serializes with the consumer's
            // register-then-recheck-then-wait critical section, so the
            // notify cannot fall between its recheck and its wait.
            let _g = inner.park.lock();
            inner.cond.notify_one();
        }
        true
    }

    fn pop_staged(&self, staged: &mut BinaryHeap<Entry<T>>) -> Option<Stamped<T>> {
        staged.pop().map(|e| {
            // ordering: SeqCst — keeps the emptiness hint in the same total
            // order as the park handshake in `push_from`.
            self.inner.depth.fetch_sub(1, Ordering::SeqCst);
            Stamped {
                at: e.at,
                item: e.item,
            }
        })
    }

    /// Close the queue: blocked and future receivers get [`QueueClosed`]
    /// once the remaining elements are drained; late pushes are dropped.
    pub fn close(&self) {
        // ordering: SeqCst — ordered against the producers' close checks
        // and the consumers' park handshake.
        self.inner.closed.store(true, Ordering::SeqCst);
        let _g = self.inner.park.lock();
        self.inner.cond.notify_all();
    }

    /// Number of undelivered elements — a lock-free hint read from an
    /// atomic counter (exact when producers and consumers are quiescent,
    /// momentarily stale during concurrent pushes).
    pub fn len(&self) -> usize {
        // ordering: SeqCst — the hint shares the counter the park
        // handshake uses; a plain Relaxed load would also be sound here.
        self.inner.depth.load(Ordering::SeqCst)
    }

    /// Is the queue (apparently) empty? Lock-free, see [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nonblocking: take the earliest-stamped visible element.
    pub fn try_recv(&self) -> Result<Option<Stamped<T>>, QueueClosed> {
        let mut staged = self.inner.staged.lock();
        self.inner.drain_into(&mut staged);
        match self.pop_staged(&mut staged.heap) {
            Some(s) => Ok(Some(s)),
            // ordering: SeqCst — see `close`.
            None if self.inner.closed.load(Ordering::SeqCst) => Err(QueueClosed),
            None => Ok(None),
        }
    }

    /// Blocking: wait for the earliest element, merging its timestamp into
    /// `clock`. Panics if the real-time escape elapses (simulated deadlock).
    pub fn recv_merge(&self, clock: &VClock) -> Result<Stamped<T>, QueueClosed> {
        match self.recv_inner(None) {
            Ok(Some(s)) => {
                clock.merge(s.at);
                Ok(s)
            }
            Ok(None) => self.deadlock_panic(clock),
            Err(e) => Err(e),
        }
    }

    /// Blocking receive bounded by `dur` of *real* time: `Ok(None)` on
    /// timeout.
    pub fn recv_timeout(&self, dur: Duration) -> Result<Option<Stamped<T>>, QueueClosed> {
        self.recv_inner(Some(dur))
    }

    /// Shared blocking core: `Ok(None)` means the wait bound elapsed
    /// (`bound` = `None` uses the escape; the caller panics in that case).
    fn recv_inner(&self, bound: Option<Duration>) -> Result<Option<Stamped<T>>, QueueClosed> {
        let inner = &*self.inner;
        let deadline = Instant::now() + bound.unwrap_or(self.escape);
        // liveness: the producer bumps `depth` and notifies `cond` under
        // the park mutex after every push, and `close` does the same; the
        // deadline bounds the whole loop either way.
        loop {
            {
                let mut staged = inner.staged.lock();
                self.inner.drain_into(&mut staged);
                if let Some(s) = self.pop_staged(&mut staged.heap) {
                    return Ok(Some(s));
                }
                // ordering: SeqCst — see `close`.
                if inner.closed.load(Ordering::SeqCst) {
                    return Err(QueueClosed);
                }
            }
            // Park protocol (producer side in `push_from`): register as a
            // waiter, then re-check under the park mutex, then wait. The
            // SeqCst handshake on depth/waiters plus the mutex-bracketed
            // notify make a lost wakeup impossible; the timed wait below is
            // belt and braces on top, not a correctness requirement.
            //
            // ordering: SeqCst — Dekker handshake with `push_from`.
            inner.waiters.fetch_add(1, Ordering::SeqCst);
            let mut g = inner.park.lock();
            // ordering: SeqCst — re-check after registering; pairs with the
            // producer's depth increment.
            let timed_out = if inner.depth.load(Ordering::SeqCst) == 0
                && !inner.closed.load(Ordering::SeqCst)
            {
                let now = Instant::now();
                if now >= deadline {
                    true
                } else {
                    inner.cond.wait_for(&mut g, deadline - now).timed_out()
                }
            } else {
                false
            };
            drop(g);
            // ordering: SeqCst — see the fetch_add above.
            inner.waiters.fetch_sub(1, Ordering::SeqCst);
            if timed_out && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// The real-time escape fired while blocked: the simulated program is
    /// deadlocked. Never returns.
    fn deadlock_panic(&self, clock: &VClock) -> ! {
        let inner = &*self.inner;
        panic!(
            "DeliveryRings::recv: no event within {:?} of real time — the simulated \
             program is deadlocked (is anyone making progress? polling-mode LAPI \
             requires the target to poll)\n\
             queue: depth={} closed={} waiter-clock={}ns\n{}",
            self.escape,
            // ordering: SeqCst — diagnostic reads.
            inner.depth.load(Ordering::SeqCst),
            inner.closed.load(Ordering::SeqCst),
            clock.now().as_ns(),
            crate::trace::tail_report(crate::trace::REPORT_TAIL)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TimedQueue;
    use crate::time::VDur;
    use std::thread;

    #[test]
    fn pops_in_timestamp_order_across_lanes() {
        let q = DeliveryRings::new(3, 8);
        q.push_from(0, VTime::from_us(30), "c");
        q.push_from(1, VTime::from_us(10), "a");
        q.push_from(2, VTime::from_us(20), "b");
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, "a");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "b");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "c");
        assert_eq!(clock.now(), VTime::from_us(30));
    }

    #[test]
    fn same_lane_ties_break_by_push_order() {
        let q = DeliveryRings::new(1, 16);
        for i in 0..10 {
            q.push_from(0, VTime::from_us(5), i);
        }
        let clock = VClock::new();
        for i in 0..10 {
            assert_eq!(q.recv_merge(&clock).unwrap().item, i);
        }
    }

    #[test]
    fn wraparound_preserves_order_and_content() {
        // Capacity 8, 100 elements: the cursors wrap the ring many times
        // while a consumer keeps pace.
        let q = DeliveryRings::new(1, 8);
        let q2 = q.clone();
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                q2.push_from(0, VTime::from_us(i), i);
            }
        });
        let clock = VClock::new();
        for want in 0..100u64 {
            let got = q.recv_merge(&clock).unwrap();
            assert_eq!(got.item, want);
            assert_eq!(got.at, VTime::from_us(want));
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn full_ring_backpressure_blocks_until_drained() {
        let q = DeliveryRings::new(1, 4);
        for i in 0..4u64 {
            q.push_from(0, VTime::from_us(i), i);
        }
        assert_eq!(q.len(), 4);
        // The 5th push must block until the consumer frees a slot.
        let q2 = q.clone();
        let pusher = thread::spawn(move || {
            q2.push_from(0, VTime::from_us(4), 4u64);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!pusher.is_finished(), "push on a full ring must wait");
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, 0);
        pusher.join().unwrap();
        for want in 1..5u64 {
            assert_eq!(q.recv_merge(&clock).unwrap().item, want);
        }
    }

    #[test]
    fn ring_grows_across_a_wrapped_window() {
        let q = DeliveryRings::new(2, 256);
        assert_eq!(q.lane_slots(0), 0);
        // Walk the cursors to 40 so the next 64 entries wrap the buffer.
        for i in 0..40u64 {
            q.push_from(0, VTime::from_us(i), i);
            assert_eq!(q.try_recv().unwrap().unwrap().item, i);
        }
        assert_eq!(q.lane_slots(0), FIRST_SLOTS);
        for i in 40..105u64 {
            q.push_from(0, VTime::from_us(i), i);
        }
        assert_eq!(q.lane_slots(0), 2 * FIRST_SLOTS, "the 65th doubled it");
        assert_eq!(q.lane_slots(1), 0, "an idle lane owns nothing");
        for i in 40..105u64 {
            let got = q.try_recv().unwrap().unwrap();
            assert_eq!((got.at, got.item), (VTime::from_us(i), i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slots_follow_the_high_water_depth() {
        for k in [1usize, 64, 65, 200, 1000, 4096] {
            let q = DeliveryRings::new(1, 4096);
            for round in 0..3 {
                for i in 0..k {
                    q.push_from(0, VTime::ZERO, i);
                }
                let drained = std::iter::from_fn(|| q.try_recv().unwrap()).count();
                assert_eq!(drained, k, "round {round}");
                assert_eq!(q.lane_slots(0), k.next_power_of_two().max(FIRST_SLOTS));
            }
        }
    }

    #[test]
    fn growth_stops_at_capacity_then_backpressure() {
        let q = DeliveryRings::with_escape(1, 128, Duration::from_millis(40));
        for i in 0..128u64 {
            q.push_from(0, VTime::from_us(i), i);
        }
        assert_eq!(q.lane_slots(0), 128);
        // At the bound a full ring waits for the consumer; with none, the
        // escape fires — exactly as a fixed 128-slot ring did.
        let push = std::panic::AssertUnwindSafe(|| q.push_from(0, VTime::ZERO, 128));
        let msg = *std::panic::catch_unwind(push)
            .expect_err("a full ring at capacity must not accept")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("ring full"), "{msg}");
        assert_eq!((q.lane_slots(0), q.len()), (128, 128));
        for i in 0..128u64 {
            assert_eq!(q.try_recv().unwrap().unwrap().item, i);
        }
    }

    #[test]
    fn drop_after_grow_frees_undelivered_entries() {
        let payload = Arc::new(());
        let q = DeliveryRings::new(1, 256);
        for _ in 0..100 {
            q.push_from(0, VTime::ZERO, Arc::clone(&payload));
        }
        for _ in 0..10 {
            q.try_recv().unwrap().unwrap(); // stages all 100, delivers 10
        }
        for _ in 0..30 {
            q.push_from(0, VTime::ZERO, Arc::clone(&payload)); // left in the ring
        }
        assert_eq!((q.lane_slots(0), Arc::strong_count(&payload)), (128, 121));
        drop(q);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    #[should_panic(expected = "ring full")]
    fn full_ring_with_no_consumer_panics_after_escape() {
        let q = DeliveryRings::with_escape(1, 2, Duration::from_millis(40));
        for i in 0..3u64 {
            q.push_from(0, VTime::ZERO, i);
        }
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn recv_escape_hatch_panics() {
        let q: DeliveryRings<()> = DeliveryRings::with_escape(1, 4, Duration::from_millis(30));
        let clock = VClock::new();
        let _ = q.recv_merge(&clock);
    }

    #[test]
    fn close_drains_remaining_then_reports() {
        let q = DeliveryRings::new(2, 4);
        q.push_from(1, VTime::from_us(1), 7);
        q.close();
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, 7);
        assert!(q.recv_merge(&clock).is_err());
        // push after close is dropped
        q.push_from(0, VTime::ZERO, 9);
        assert_eq!(q.try_recv(), Err(QueueClosed));
    }

    #[test]
    fn close_unblocks_parked_consumer() {
        let q: DeliveryRings<()> = DeliveryRings::new(1, 4);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.recv_merge(&VClock::new()));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(QueueClosed));
    }

    #[test]
    fn push_races_parked_recv_without_missed_wakeup() {
        // Hammer the park/notify handshake: a consumer that parks just as
        // the producer publishes must always be woken.
        let q = DeliveryRings::new(1, 64);
        let q2 = q.clone();
        let n = 500u64;
        let h = thread::spawn(move || {
            let clock = VClock::new();
            for _ in 0..n {
                q2.recv_merge(&clock).unwrap();
            }
        });
        for i in 0..n {
            q.push_from(0, VTime::from_us(i), i);
            if i % 7 == 0 {
                // Give the consumer time to drain and park again.
                thread::sleep(Duration::from_micros(200));
            }
        }
        h.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let q: DeliveryRings<u8> = DeliveryRings::new(1, 4);
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Ok(None));
        q.push_from(0, VTime::from_us(4), 9);
        let got = q.recv_timeout(Duration::from_millis(10)).unwrap().unwrap();
        assert_eq!(got.item, 9);
        q.close();
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Err(QueueClosed));
    }

    #[test]
    fn len_hint_is_lock_free_and_exact_when_quiescent() {
        let q = DeliveryRings::new(2, 8);
        assert!(q.is_empty());
        q.push_from(0, VTime::ZERO, 1);
        q.push_from(1, VTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        let clock = VClock::new();
        q.recv_merge(&clock).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn matches_timed_queue_order_exactly() {
        // The determinism contract: the same (timestamp, push-order) input
        // pops identically from both implementations.
        let script: Vec<(usize, u64)> = (0..64)
            .map(|i| ((i * 7) % 3, ((i * 13) % 11) as u64))
            .collect();
        let heap = TimedQueue::new();
        let rings = DeliveryRings::new(3, 128);
        for (lane, us) in &script {
            heap.push(VTime::from_us(*us), (*lane, *us));
            rings.push_from(*lane, VTime::from_us(*us), (*lane, *us));
        }
        let mut a = Vec::new();
        while let Ok(Some(s)) = heap.try_recv() {
            a.push((s.at, s.item));
        }
        let mut b = Vec::new();
        while let Ok(Some(s)) = rings.try_recv() {
            b.push((s.at, s.item));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn cross_thread_delivery_merges_time() {
        let q = DeliveryRings::new(1, 4);
        let q2 = q.clone();
        let h = thread::spawn(move || {
            let clock = VClock::new();
            let s = q2.recv_merge(&clock).unwrap();
            (s.item, clock.now())
        });
        thread::sleep(Duration::from_millis(10));
        q.push_from(0, VTime::from_us(42), "pkt");
        let (item, t) = h.join().unwrap();
        assert_eq!(item, "pkt");
        assert_eq!(t, VTime::from_us(42));
    }

    #[test]
    fn heavy_concurrent_wraparound_stress() {
        // Two producers on separate lanes, one consumer, tiny rings: the
        // cursors wrap hundreds of times and every element must surface
        // exactly once with its stamp intact.
        let q = DeliveryRings::new(2, 8);
        let n = 2_000u64;
        let mut handles = Vec::new();
        for lane in 0..2usize {
            let q2 = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..n {
                    q2.push_from(
                        lane,
                        VTime::from_us(i) + VDur::from_ns(lane as u64),
                        (lane, i),
                    );
                }
            }));
        }
        let mut seen = vec![Vec::new(); 2];
        let clock = VClock::new();
        for _ in 0..2 * n {
            let s = q.recv_merge(&clock).unwrap();
            seen[s.item.0].push(s.item.1);
        }
        for h in handles {
            h.join().unwrap();
        }
        for lane_seen in &mut seen {
            lane_seen.sort_unstable();
            assert_eq!(*lane_seen, (0..n).collect::<Vec<_>>());
        }
        assert!(q.is_empty());
    }
}
