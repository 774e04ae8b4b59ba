//! Bounded single-producer/single-consumer ring-buffer queues — the native
//! realization of the paper's *synchronization array* (Section 2.1).
//!
//! Each DSWP queue connects exactly one producer stage to one consumer
//! stage, so the transfer path needs no locks. The hardware synchronization
//! array the paper models costs roughly a cycle per `produce`/`consume`; a
//! software queue costs at least one cross-core cache-line transfer per
//! value. The ring is laid out so that, on the fast path, the slot holding
//! the value is the *only* line that crosses cores:
//!
//! * **Slots and stamps.** Values live in slots, each carrying a sequence
//!   stamp. The producer writes a value at position `p`, then stores the
//!   stamp `p + 1` with Release (FastForward / Vyukov style). The consumer
//!   at position `head` loads its slot's stamp with Acquire: reading
//!   `head + 1` means the value — and every ordinary memory write the
//!   producer made before producing it, the property DSWP's
//!   memory-synchronization flows rely on — is visible. The consumer never
//!   loads `tail` on the fast path.
//! * **Mask and logical capacity.** The slot array has `capacity` rounded
//!   up to a power of two, so a position maps to its slot with a mask, not
//!   a division. The producer still never lets `tail - head` exceed
//!   `capacity`, so a queue blocks exactly like a `capacity`-slot queue;
//!   the spare slots are never all in use. A slot is rewritten only for
//!   position `p + size` after position `p` was consumed, so a stale stamp
//!   can never read as the one the consumer waits for.
//! * **Cached head.** The producer keeps the last `head` it read on a line
//!   of its own (Lamport style) and re-reads the consumer's `head` (with
//!   Acquire, which orders the consumer's slot reads before the producer's
//!   reuse of the slots) only when that cache says there is not enough room.
//!   A stale cache only underestimates the free space. Each re-read also
//!   samples the occupancy for [`QueueStats::max_occupancy`], so the
//!   statistic costs nothing on the fast path.
//! * **Published tail.** The producer still stores `tail` with Release
//!   after every publish, although the consumer does not need it: `len`,
//!   `is_empty` and `is_full` (the monitor's satisfiability checks and the
//!   `DEPTH` probe) and the value counts of [`QueueStats`] read it, so they
//!   stay exact. The consumer follows the stamps, so it may run ahead of
//!   the published `tail` for the moment between a stamp and the `tail`
//!   store.
//!
//! The **batched** operations ([`push_batch`](SpscQueue::push_batch) /
//! [`pop_batch`](SpscQueue::pop_batch)) move a chunk of values with one
//! `tail` store and one `head` store. A chunk's first stamp is stored last,
//! so the consumer, which reads in order, sees a chunk whole or not at all.
//!
//! Blocking (full queue on produce, empty queue on consume) is *not*
//! handled here; the runtime's internal `Monitor` parks
//! and unparks threads and performs global deadlock detection. This module
//! only offers the non-blocking `try_*`/`*_batch` operations plus occupancy
//! statistics.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The largest queue capacity, in values: 2^20 slots (16 MiB per queue).
/// `dswpc --queue-cap` rejects larger values, and [`SpscQueue::new`]
/// asserts it.
pub const MAX_CAPACITY: usize = 1 << 20;

/// Pads a hot atomic to its own cache line to avoid false sharing between
/// fields written by different threads (the paper's Section 4.2 studies
/// exactly this effect in its `bslive` experiment).
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct CacheLine<T>(pub(crate) T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Number of power-of-two histogram buckets: sizes 1, 2–3, 4–7, … , ≥128.
const HIST_BUCKETS: usize = 8;

/// The histogram bucket of a batch of `n` values (0 counts as 1).
fn bucket(n: usize) -> usize {
    (n | 1).ilog2().min(HIST_BUCKETS as u32 - 1) as usize
}

/// Single-writer histogram of batch sizes. Only the owning endpoint thread
/// (producer for flushes, consumer for refills) records into it, so plain
/// load+store on the atomics is exact — the atomics exist only so the
/// runtime thread can snapshot after joining.
#[derive(Debug, Default)]
struct Histo {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histo {
    fn record(&self, n: usize) {
        let bucket = &self.buckets[bucket(n)];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum.store(
            self.sum.load(Ordering::Relaxed) + n as u64,
            Ordering::Relaxed,
        );
    }

    fn snapshot(&self) -> BatchHistogram {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        BatchHistogram {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a batch-size distribution (flushes or refills) with
/// power-of-two buckets: `buckets[i]` counts batches of size
/// `2^i ..= 2^(i+1)-1` (last bucket is open-ended).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    /// Power-of-two size buckets: 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64–127,
    /// ≥128.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of batches recorded.
    pub count: u64,
    /// Total number of values across all batches.
    pub sum: u64,
}

impl BatchHistogram {
    /// Mean batch size, or 0.0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Statistics written only by the producer endpoint, grouped onto their own
/// cache line(s). Before this grouping, `producer_blocks` and
/// `consumer_blocks` sat adjacent in the struct: a producer stalling on a
/// full queue and a consumer stalling on an empty one would ping-pong the
/// same line between cores on every failed attempt — false sharing on the
/// *statistics*, precisely the effect the padded cursors already avoid on
/// the transfer path.
#[repr(align(64))]
#[derive(Debug, Default)]
struct ProducerStats {
    /// Largest occupancy seen on a fresh read of `head` (see
    /// [`QueueStats::max_occupancy`]).
    max_occupancy: AtomicUsize,
    /// Times the producer found the queue full.
    blocks: AtomicU64,
    /// Sizes of successful producer-side publishes (batched or single).
    flush_hist: Histo,
}

/// Statistics written only by the consumer endpoint (see [`ProducerStats`]).
#[repr(align(64))]
#[derive(Debug, Default)]
struct ConsumerStats {
    /// Times the consumer found the queue empty.
    blocks: AtomicU64,
    /// Sizes of successful consumer-side acquires (batched or single).
    refill_hist: Histo,
}

/// One ring slot: a value and the stamp that publishes it. Aligned to 16
/// bytes so a slot never straddles two cache lines.
#[repr(align(16))]
#[derive(Debug, Default)]
struct Slot {
    /// `position + 1` of the value in `value` once it is published; 0
    /// before the slot's first use.
    stamp: AtomicUsize,
    value: AtomicI64,
}

/// A bounded SPSC queue of `i64` words.
#[derive(Debug)]
pub struct SpscQueue {
    /// `capacity` rounded up to a power of two.
    slots: Box<[Slot]>,
    /// `slots.len() - 1`: maps a position to its slot.
    mask: usize,
    /// Logical capacity: the most values the queue holds at once.
    capacity: usize,
    /// Consumer cursor: number of values consumed so far.
    head: CacheLine<AtomicUsize>,
    /// Producer cursor: number of values produced so far.
    tail: CacheLine<AtomicUsize>,
    /// The producer's last read of `head` (only the producer touches it).
    head_cache: CacheLine<AtomicUsize>,
    /// Producer-endpoint statistics, on their own cache line(s).
    producer: ProducerStats,
    /// Consumer-endpoint statistics, on their own cache line(s).
    consumer: ConsumerStats,
    /// Produced-value log (only filled when stream recording is on).
    stream: Mutex<Vec<i64>>,
    record_stream: bool,
    /// Set when an endpoint stage died (crash recovery) or a fault plan
    /// poisons the queue: producers must stop, consumers may drain what is
    /// already buffered and must then stop.
    poisoned: AtomicBool,
}

/// Occupancy and traffic statistics of one queue, mirroring the simulator's
/// `OccupancyStats` at per-queue granularity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Configured capacity in values.
    pub capacity: usize,
    /// Total values produced over the run.
    pub produced: u64,
    /// Total values consumed over the run.
    pub consumed: u64,
    /// Largest occupancy the producer saw when it re-read the consumer's
    /// cursor: whenever its cached copy showed too little room (so at least
    /// once per `capacity` values produced) and while it waited on a full
    /// queue. Each sample is exact at its moment, so this is a lower bound
    /// of the true maximum; 0 when the producer never had to re-read (it
    /// never produced more than `capacity` values ahead of its cache).
    pub max_occupancy: usize,
    /// Produce attempts that found the queue full (backpressure events).
    pub producer_blocks: u64,
    /// Consume attempts that found the queue empty (starvation events).
    pub consumer_blocks: u64,
    /// Distribution of producer-side publish (flush) sizes.
    pub flush_sizes: BatchHistogram,
    /// Distribution of consumer-side acquire (refill) sizes.
    pub refill_sizes: BatchHistogram,
}

impl SpscQueue {
    /// Creates a queue holding up to `capacity` values.
    ///
    /// # Panics
    ///
    /// Unless `1 <= capacity <= MAX_CAPACITY`.
    pub fn new(capacity: usize, record_stream: bool) -> Self {
        assert!(
            (1..=MAX_CAPACITY).contains(&capacity),
            "queue capacity must be in 1..={MAX_CAPACITY}, got {capacity}"
        );
        let size = capacity.next_power_of_two();
        SpscQueue {
            slots: (0..size).map(|_| Slot::default()).collect(),
            mask: size - 1,
            capacity,
            head: CacheLine(AtomicUsize::new(0)),
            tail: CacheLine(AtomicUsize::new(0)),
            head_cache: CacheLine(AtomicUsize::new(0)),
            producer: ProducerStats::default(),
            consumer: ConsumerStats::default(),
            stream: Mutex::new(Vec::new()),
            record_stream,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the queue as poisoned: one of its endpoint stages is dead (or
    /// a fault plan says so). Blocked peers observe the flag through the
    /// monitor and shut down with a structured error instead of waiting for
    /// values that will never arrive (or never be consumed).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`poison`](Self::poison) was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Counts one blocked produce attempt (called from the producer thread).
    pub(crate) fn count_producer_block(&self) {
        self.producer.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one blocked consume attempt (called from the consumer thread).
    pub(crate) fn count_consumer_block(&self) {
        self.consumer.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// The most values the queue holds at once.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The producer's fresh occupancy at `tail`: re-reads the consumer's
    /// `head` into the cache and records the occupancy the producer will
    /// have after publishing `adding` more values (at most the free room).
    fn refresh(&self, tail: usize, adding: usize) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        self.head_cache.0.store(head, Ordering::Relaxed);
        let occ = tail.wrapping_sub(head);
        // Only the producer writes this; load+store beats an RMW.
        let seen = (occ + adding).min(self.capacity);
        let max = &self.producer.max_occupancy;
        if seen > max.load(Ordering::Relaxed) {
            max.store(seen, Ordering::Relaxed);
        }
        occ
    }

    /// Free slots by a fresh read of the consumer's `head`. Must only be
    /// called from the single producer thread.
    pub(crate) fn room(&self) -> usize {
        self.capacity - self.refresh(self.tail.0.load(Ordering::Relaxed), 0)
    }

    /// Attempts to enqueue a prefix of `vals`, publishing however many fit
    /// with one store of `tail`. Returns the number of values accepted (0
    /// when the queue is full or `vals` is empty). Must only be called from
    /// the single producer thread.
    ///
    /// ```
    /// use dswp_rt::queue::SpscQueue;
    ///
    /// let q = SpscQueue::new(4, false);
    /// assert_eq!(q.push_batch(&[1, 2, 3]), 3);
    /// // Only one slot left: the batch is truncated, never split or lost.
    /// assert_eq!(q.push_batch(&[4, 5]), 1);
    /// assert_eq!(q.push_batch(&[6]), 0); // full
    /// assert_eq!(q.len(), 4);
    /// ```
    #[inline]
    pub fn push_batch(&self, vals: &[i64]) -> usize {
        if vals.is_empty() {
            return 0;
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        // Bound the publish by the cached head; re-read the consumer's
        // `head` only when the cache shows fewer free slots than `vals`.
        let mut occ = tail.wrapping_sub(self.head_cache.0.load(Ordering::Relaxed));
        if self.capacity - occ < vals.len() {
            occ = self.refresh(tail, vals.len());
        }
        let n = (self.capacity - occ).min(vals.len());
        if n == 0 {
            return 0;
        }
        // Last slot first: the consumer reads in order, so once it sees the
        // first stamp (stored last, with Release) it sees the whole batch,
        // and never takes a batch half-written.
        for (i, &v) in vals[..n].iter().enumerate().rev() {
            let pos = tail.wrapping_add(i);
            let slot = &self.slots[pos & self.mask];
            slot.value.store(v, Ordering::Relaxed);
            slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
        }
        self.tail.0.store(tail.wrapping_add(n), Ordering::Release);
        self.producer.flush_hist.record(n);
        if self.record_stream {
            // Poison-tolerant: a stage that crashed mid-push must not take
            // the survivors down with a second panic.
            self.stream
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend_from_slice(&vals[..n]);
        }
        n
    }

    /// The value at position `pos`, if the producer has stamped it.
    #[inline]
    fn take(&self, pos: usize) -> Option<i64> {
        let slot = &self.slots[pos & self.mask];
        (slot.stamp.load(Ordering::Acquire) == pos.wrapping_add(1))
            .then(|| slot.value.load(Ordering::Relaxed))
    }

    /// Attempts to dequeue up to `max` values into `out`, consuming however
    /// many are stamped with one store of `head`. Returns the number of
    /// values appended. Must only be called from the single consumer thread.
    ///
    /// ```
    /// use dswp_rt::queue::SpscQueue;
    ///
    /// let q = SpscQueue::new(8, false);
    /// q.push_batch(&[10, 20, 30]);
    /// let mut out = Vec::new();
    /// assert_eq!(q.pop_batch(&mut out, 2), 2); // bounded by `max`
    /// assert_eq!(q.pop_batch(&mut out, 16), 1); // bounded by occupancy
    /// assert_eq!(out, vec![10, 20, 30]);
    /// ```
    pub fn pop_batch(&self, out: &mut Vec<i64>, max: usize) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let mut n = 0;
        while n < max {
            let Some(v) = self.take(head.wrapping_add(n)) else {
                break;
            };
            out.push(v);
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        self.head.0.store(head.wrapping_add(n), Ordering::Release);
        self.consumer.refill_hist.record(n);
        n
    }

    /// Attempts to enqueue `v`. Returns `false` when the queue is full.
    /// Must only be called from the single producer thread.
    #[inline]
    pub fn try_produce(&self, v: i64) -> bool {
        self.push_batch(std::slice::from_ref(&v)) == 1
    }

    /// Attempts to dequeue a value. Returns `None` when the queue is empty.
    /// Must only be called from the single consumer thread.
    #[inline]
    pub fn try_consume(&self) -> Option<i64> {
        let head = self.head.0.load(Ordering::Relaxed);
        let v = self.take(head)?;
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        self.consumer.refill_hist.record(1);
        Some(v)
    }

    /// Current occupancy by the published cursors: exact once both
    /// endpoints are idle, a racy snapshot otherwise, always within
    /// `0..=capacity`.
    pub fn len(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        // The consumer may run ahead of the published `tail`, and two loads
        // from a third thread are no one snapshot.
        (tail.wrapping_sub(head) as isize).clamp(0, self.capacity as isize) as usize
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue is currently full (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Final statistics. Exact once every stage of the run has reported.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            capacity: self.capacity,
            produced: self.tail.0.load(Ordering::Acquire) as u64,
            consumed: self.head.0.load(Ordering::Acquire) as u64,
            max_occupancy: self.producer.max_occupancy.load(Ordering::Relaxed),
            producer_blocks: self.producer.blocks.load(Ordering::Relaxed),
            consumer_blocks: self.consumer.blocks.load(Ordering::Relaxed),
            flush_sizes: self.producer.flush_hist.snapshot(),
            refill_sizes: self.consumer.refill_hist.snapshot(),
        }
    }

    /// Drains the recorded produced-value stream.
    pub fn take_stream(&self) -> Vec<i64> {
        std::mem::take(
            &mut *self
                .stream
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = SpscQueue::new(4, false);
        assert!(q.try_produce(1));
        assert!(q.try_produce(2));
        assert!(q.try_produce(3));
        assert_eq!(q.try_consume(), Some(1));
        assert!(q.try_produce(4));
        assert!(q.try_produce(5));
        assert!(q.is_full());
        assert!(!q.try_produce(6));
        assert_eq!(q.try_consume(), Some(2));
        assert_eq!(q.try_consume(), Some(3));
        assert_eq!(q.try_consume(), Some(4));
        assert_eq!(q.try_consume(), Some(5));
        assert_eq!(q.try_consume(), None);
        assert_eq!(q.stats().max_occupancy, 4);
        assert_eq!(q.stats().produced, 5);
    }

    #[test]
    fn capacity_one_ping_pongs() {
        let q = SpscQueue::new(1, false);
        for i in 0..100 {
            assert!(q.try_produce(i));
            assert!(!q.try_produce(i));
            assert_eq!(q.try_consume(), Some(i));
            assert_eq!(q.try_consume(), None);
        }
    }

    #[test]
    fn batch_push_accepts_prefix_when_nearly_full() {
        let q = SpscQueue::new(4, false);
        assert_eq!(q.push_batch(&[1, 2, 3]), 3);
        assert_eq!(q.push_batch(&[4, 5, 6]), 1); // only one slot left
        assert_eq!(q.push_batch(&[9]), 0); // full
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 10), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(q.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn batch_roundtrip_across_wraparound() {
        let q = SpscQueue::new(8, false);
        let mut next = 0i64;
        let mut expect = 0i64;
        let mut out = Vec::new();
        for round in 0..100 {
            let chunk: Vec<i64> = (0..(round % 7 + 1))
                .map(|_| {
                    next += 1;
                    next
                })
                .collect();
            let pushed = q.push_batch(&chunk);
            out.clear();
            q.pop_batch(&mut out, 16);
            for &v in &out {
                expect += 1;
                assert_eq!(v, expect);
            }
            // Push whatever didn't fit so values are never lost.
            let mut rest = &chunk[pushed..];
            while !rest.is_empty() {
                let n = q.push_batch(rest);
                rest = &rest[n..];
                if n == 0 {
                    out.clear();
                    q.pop_batch(&mut out, 16);
                    for &v in &out {
                        expect += 1;
                        assert_eq!(v, expect);
                    }
                }
            }
        }
        out.clear();
        q.pop_batch(&mut out, usize::MAX);
        for &v in &out {
            expect += 1;
            assert_eq!(v, expect);
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn pop_batch_is_bounded_by_max() {
        let q = SpscQueue::new(8, false);
        assert_eq!(q.push_batch(&[1, 2, 3, 4, 5]), 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.pop_batch(&mut out, 0), 0);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn histograms_count_batch_sizes() {
        let q = SpscQueue::new(64, false);
        q.push_batch(&[0; 16]);
        q.push_batch(&[0; 1]);
        let mut out = Vec::new();
        q.pop_batch(&mut out, 17);
        let s = q.stats();
        assert_eq!(s.flush_sizes.count, 2);
        assert_eq!(s.flush_sizes.sum, 17);
        assert_eq!(s.flush_sizes.buckets[4], 1); // 16 lands in the 16–31 bucket
        assert_eq!(s.flush_sizes.buckets[0], 1); // the single value
        assert_eq!(s.refill_sizes.count, 1);
        assert_eq!(s.refill_sizes.sum, 17);
        assert!((s.refill_sizes.mean() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_batched_transfer_preserves_order_and_values() {
        const N: i64 = 100_000;
        let q = Arc::new(SpscQueue::new(32, false));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut i = 0i64;
            while i < N {
                let hi = (i + 13).min(N);
                let chunk: Vec<i64> = (i..hi).collect();
                let mut rest = &chunk[..];
                while !rest.is_empty() {
                    let n = qp.push_batch(rest);
                    rest = &rest[n..];
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
                i = hi;
            }
        });
        let mut expected = 0i64;
        let mut buf = Vec::new();
        while expected < N {
            buf.clear();
            if q.pop_batch(&mut buf, 16) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &buf {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert!(q.stats().max_occupancy <= 32);
    }

    /// The retry policy of a test thread whose queue operation failed:
    /// spin a little, then yield on every further failure, so a producer
    /// and a consumer sharing fewer cores than threads hand the core over
    /// instead of spinning out a whole time slice.
    #[derive(Default)]
    struct Backoff {
        spins: u32,
    }

    impl Backoff {
        const SPINS: u32 = 64;

        fn wait(&mut self) {
            if self.spins < Self::SPINS {
                self.spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn concurrent_transfer_preserves_order_and_values() {
        const N: i64 = 100_000;
        let q = Arc::new(SpscQueue::new(8, false));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut backoff = Backoff::default();
            for i in 0..N {
                while !qp.try_produce(i) {
                    backoff.wait();
                }
            }
        });
        let mut expected = 0;
        let mut backoff = Backoff::default();
        while expected < N {
            if let Some(v) = q.try_consume() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                backoff.wait();
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert!(q.stats().max_occupancy <= 8);
    }

    /// Capacities that are not powers of two (the ring is larger than
    /// the logical capacity) and 1, over many wrap-arounds of the ring,
    /// against a model FIFO: a publish is admitted exactly up to the free
    /// logical space, even while the producer's cached head is stale.
    #[test]
    fn logical_capacity_holds_over_many_wraparounds() {
        for cap in [1usize, 3, 5, 33] {
            let q = SpscQueue::new(cap, false);
            assert_eq!(q.slots.len(), cap.next_power_of_two());
            let mut model = std::collections::VecDeque::new();
            let mut next = 0i64;
            let mut out = Vec::new();
            for round in 0..4000usize {
                // Produce: singles on even rounds, a batch on odd ones.
                let want = round % (cap + 2) + 1;
                let vals: Vec<i64> = (next..next + want as i64).collect();
                let free = cap - model.len();
                let accepted = if round % 2 == 0 {
                    vals.iter().take_while(|&&v| q.try_produce(v)).count()
                } else {
                    q.push_batch(&vals)
                };
                assert_eq!(accepted, want.min(free), "cap {cap} round {round}");
                model.extend(&vals[..accepted]);
                next += accepted as i64;
                assert_eq!(q.len(), model.len());
                assert!(q.len() <= cap);
                assert_eq!(q.is_full(), model.len() == cap);
                // Consume a varying amount, sometimes nothing, so the
                // producer's cached head goes stale.
                let take = (round * 7) % (cap + 1);
                out.clear();
                if round % 3 == 0 {
                    q.pop_batch(&mut out, take);
                } else {
                    out.extend((0..take).map_while(|_| q.try_consume()));
                }
                assert_eq!(out.len(), take.min(model.len()));
                for &v in &out {
                    assert_eq!(Some(v), model.pop_front(), "cap {cap} round {round}");
                }
            }
            out.clear();
            q.pop_batch(&mut out, usize::MAX);
            assert!(out.iter().copied().eq(model.drain(..)));
            let s = q.stats();
            assert_eq!(s.produced, next as u64);
            assert_eq!(s.consumed, next as u64);
            assert!(s.max_occupancy <= cap);
            assert!(next > 10 * cap.next_power_of_two() as i64);
        }
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn capacity_above_the_maximum_is_rejected() {
        SpscQueue::new(MAX_CAPACITY + 1, false);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn capacity_that_cannot_round_up_is_rejected() {
        SpscQueue::new(usize::MAX, false);
    }

    /// A concurrent transfer mixing single and batched operations; the
    /// consumer checks the published occupancy on every consume.
    #[test]
    fn concurrent_occupancy_never_exceeds_capacity() {
        const N: i64 = 50_000;
        for cap in [3usize, 33] {
            let q = Arc::new(SpscQueue::new(cap, false));
            let qp = Arc::clone(&q);
            let producer = std::thread::spawn(move || {
                let mut i = 0i64;
                while i < N {
                    let pushed = if i % 5 == 0 {
                        let hi = (i + 4).min(N);
                        qp.push_batch(&(i..hi).collect::<Vec<_>>()) as i64
                    } else {
                        i64::from(qp.try_produce(i))
                    };
                    if pushed == 0 {
                        std::thread::yield_now();
                    }
                    i += pushed;
                }
            });
            let mut expected = 0i64;
            let mut out = Vec::new();
            while expected < N {
                out.clear();
                if expected % 3 == 0 {
                    q.pop_batch(&mut out, 2);
                } else {
                    out.extend(q.try_consume());
                }
                assert!(q.len() <= cap, "cap {cap}: len {}", q.len());
                if out.is_empty() {
                    std::thread::yield_now();
                }
                for &v in &out {
                    assert_eq!(v, expected);
                    expected += 1;
                }
            }
            producer.join().unwrap();
            assert!(q.is_empty());
            assert!(q.stats().max_occupancy <= cap);
        }
    }

    /// The property DSWP's memory-synchronization flows rely on: a plain
    /// relaxed write the producer makes before producing a value is visible
    /// to the consumer once it has consumed that value. The slot stamp's
    /// Release/Acquire pair carries it; the consumer never reads `tail`.
    #[test]
    fn consumed_value_makes_prior_writes_visible() {
        const N: usize = 50_000;
        let cells: Arc<Vec<AtomicI64>> = Arc::new((0..N).map(|_| AtomicI64::new(0)).collect());
        let q = Arc::new(SpscQueue::new(4, false));
        let (qp, cp) = (Arc::clone(&q), Arc::clone(&cells));
        let producer = std::thread::spawn(move || {
            let mut backoff = Backoff::default();
            for i in 0..N {
                cp[i].store(3 * i as i64 + 1, Ordering::Relaxed);
                while !qp.try_produce(i as i64) {
                    backoff.wait();
                }
            }
        });
        let mut backoff = Backoff::default();
        for _ in 0..N {
            let i = loop {
                match q.try_consume() {
                    Some(i) => break i as usize,
                    None => backoff.wait(),
                }
            };
            assert_eq!(cells[i].load(Ordering::Relaxed), 3 * i as i64 + 1);
        }
        producer.join().unwrap();
    }

    #[test]
    fn poisoning_still_allows_draining() {
        let q = SpscQueue::new(4, false);
        assert!(q.try_produce(1));
        assert!(q.try_produce(2));
        assert!(!q.is_poisoned());
        q.poison();
        assert!(q.is_poisoned());
        // Buffered values survive poisoning; the *blocking* layer decides
        // that producers stop and consumers stop once drained.
        assert_eq!(q.try_consume(), Some(1));
        assert_eq!(q.try_consume(), Some(2));
        assert_eq!(q.try_consume(), None);
    }

    #[test]
    fn max_occupancy_follows_a_consumer_that_keeps_pace() {
        // The consumer takes each value before the next is produced, so at
        // most one value is ever queued. The producer's cached head shows the
        // queue full after eight publishes; every re-read must see it empty.
        let q = SpscQueue::new(8, false);
        for i in 0..100 {
            assert!(q.try_produce(i));
            assert_eq!(q.try_consume(), Some(i));
        }
        assert_eq!(q.stats().max_occupancy, 1);
    }

    #[test]
    fn room_rereads_the_consumer_cursor() {
        let q = SpscQueue::new(5, false);
        assert_eq!(q.room(), 5);
        assert_eq!(q.push_batch(&[1, 2, 3, 4, 5]), 5);
        assert_eq!(q.room(), 0);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3), 3);
        assert_eq!(q.room(), 3);
        // The refreshed cache lets the next publish go without a re-read.
        assert_eq!(q.push_batch(&[6, 7, 8]), 3);
        assert_eq!(q.stats().max_occupancy, 5);
    }

    #[test]
    fn stream_recording() {
        let q = SpscQueue::new(4, true);
        q.try_produce(7);
        q.try_produce(8);
        q.try_consume();
        assert_eq!(q.take_stream(), vec![7, 8]);
    }

    #[test]
    fn stream_records_batches_in_order() {
        let q = SpscQueue::new(4, true);
        assert_eq!(q.push_batch(&[1, 2, 3]), 3);
        let mut out = Vec::new();
        q.pop_batch(&mut out, 2);
        assert_eq!(q.push_batch(&[4, 5, 6]), 3);
        assert_eq!(q.take_stream(), vec![1, 2, 3, 4, 5, 6]);
    }
}
