//! Bounded single-producer/single-consumer ring-buffer queues — the native
//! realization of the paper's *synchronization array* (Section 2.1).
//!
//! Each DSWP queue connects exactly one producer stage to one consumer
//! stage, so the transfer path needs no locks: a fixed slot array plus two
//! monotonic atomic cursors. The producer owns `tail`, the consumer owns
//! `head`; `produce` publishes a slot with a release store of `tail`
//! (making the producer's preceding ordinary memory writes visible to the
//! consumer — the property DSWP's memory-synchronization flows rely on),
//! and `consume` acquires it.
//!
//! The hardware synchronization array the paper models costs roughly a
//! cycle per `produce`/`consume`; a software queue costs a cross-core
//! cache-line transfer per cursor update. The **batched** fast path
//! ([`push_batch`](SpscQueue::push_batch) /
//! [`pop_batch`](SpscQueue::pop_batch)) amortizes that gap: a chunk of
//! values is published with a *single* release store, and drained with a
//! single acquire load plus a single release store of `head`.
//!
//! Blocking (full queue on produce, empty queue on consume) is *not*
//! handled here; the runtime's internal `Monitor` parks
//! and unparks threads and performs global deadlock detection. This module
//! only offers the non-blocking `try_*`/`*_batch` operations plus occupancy
//! statistics.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pads a hot atomic to its own cache line to avoid false sharing between
/// the producer's and consumer's cursors (the paper's Section 4.2 studies
/// exactly this effect in its `bslive` experiment).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

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
    /// Records one batch of `n` values (single-owner accumulation — the
    /// worker-side counterpart of [`Histo::record`]).
    pub(crate) fn add(&mut self, n: usize) {
        self.buckets[bucket(n)] += 1;
        self.count += 1;
        self.sum += n as u64;
    }

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
    /// Maximum observed occupancy (updated on publish).
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

/// A bounded SPSC queue of `i64` words.
#[derive(Debug)]
pub struct SpscQueue {
    slots: Box<[UnsafeCell<i64>]>,
    capacity: usize,
    /// Consumer cursor: number of values consumed so far.
    head: CacheLine<AtomicUsize>,
    /// Producer cursor: number of values produced so far.
    tail: CacheLine<AtomicUsize>,
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

// SAFETY: the `UnsafeCell` slots are only written by the single producer
// before the release store of `tail`, and only read by the single consumer
// after the acquire load of `tail`; the cursors order every access.
unsafe impl Sync for SpscQueue {}

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
    /// Maximum simultaneous occupancy observed.
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
    /// Creates a queue with `capacity` slots (`capacity >= 1`).
    pub fn new(capacity: usize, record_stream: bool) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        SpscQueue {
            slots: (0..capacity).map(|_| UnsafeCell::new(0)).collect(),
            capacity,
            head: CacheLine(AtomicUsize::new(0)),
            tail: CacheLine(AtomicUsize::new(0)),
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

    /// Attempts to enqueue a prefix of `vals`, publishing however many fit
    /// with a **single** release store of `tail`. Returns the number of
    /// values accepted (0 when the queue is full or `vals` is empty).
    /// Must only be called from the single producer thread.
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
    pub fn push_batch(&self, vals: &[i64]) -> usize {
        if vals.is_empty() {
            return 0;
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        let occ = tail.wrapping_sub(head);
        let n = (self.capacity - occ).min(vals.len());
        if n == 0 {
            return 0;
        }
        // SAFETY: slots `tail .. tail+n` are outside the consumer's visible
        // window until the release store below.
        for (i, &v) in vals[..n].iter().enumerate() {
            unsafe {
                *self.slots[tail.wrapping_add(i) % self.capacity].get() = v;
            }
        }
        self.tail.0.store(tail.wrapping_add(n), Ordering::Release);
        // Only the producer writes this; load+store beats an RMW.
        let max = &self.producer.max_occupancy;
        if occ + n > max.load(Ordering::Relaxed) {
            max.store(occ + n, Ordering::Relaxed);
        }
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

    /// Attempts to dequeue up to `max` values into `out`, consuming however
    /// many are available with a **single** acquire of `tail` and a single
    /// release store of `head`. Returns the number of values appended.
    /// Must only be called from the single consumer thread.
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
        if max == 0 {
            return 0;
        }
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        // SAFETY: the acquire load of `tail` made the producer's writes to
        // these slots visible, and the producer will not reuse them until
        // the release store of `head` below.
        for i in 0..n {
            out.push(unsafe { *self.slots[head.wrapping_add(i) % self.capacity].get() });
        }
        self.head.0.store(head.wrapping_add(n), Ordering::Release);
        self.consumer.refill_hist.record(n);
        n
    }

    /// Attempts to enqueue `v`. Returns `false` when the queue is full.
    /// Must only be called from the single producer thread.
    pub fn try_produce(&self, v: i64) -> bool {
        self.push_batch(std::slice::from_ref(&v)) == 1
    }

    /// Attempts to dequeue a value. Returns `None` when the queue is empty.
    /// Must only be called from the single consumer thread.
    pub fn try_consume(&self) -> Option<i64> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the acquire load of `tail` made the producer's write to
        // this slot visible, and the producer will not reuse it until the
        // release store of `head` below.
        let v = unsafe { *self.slots[head % self.capacity].get() };
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        self.consumer.refill_hist.record(1);
        Some(v)
    }

    /// Current occupancy (racy snapshot; exact from the owning threads).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue is currently full (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Final statistics. Exact once all stage threads have joined.
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

    #[test]
    fn concurrent_transfer_preserves_order_and_values() {
        const N: i64 = 100_000;
        let q = Arc::new(SpscQueue::new(8, false));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while !qp.try_produce(i) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.try_consume() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert!(q.stats().max_occupancy <= 8);
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
