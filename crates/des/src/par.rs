//! Conservative parallel DES: sharded calendar queues synchronized by
//! link lookahead.
//!
//! The sequential engine ([`crate::Simulation`]) funnels every event
//! through one banded calendar queue behind one mutex — correct, fully
//! deterministic, and single-core. This module shards the event set:
//! each *shard* owns its own banded calendar queue, its own mutable state
//! `S`, and a committed virtual clock. Shards interact only through
//! declared *links*, each carrying a strictly positive **lookahead**:
//! a lower bound on how far in the future any cross-shard event posted
//! over that link must land (for the SCRAMNet ring, the calibrated hop
//! latency — one node cannot affect its neighbour sooner than the fiber
//! allows).
//!
//! ## The conservative bound
//!
//! Every shard continuously publishes a monotone *clock bound*: a
//! promise that it will never again execute an event (and therefore
//! never post a message) below that time. A shard may safely execute
//! all local events with timestamp strictly below
//!
//! ```text
//! safe = min over in-links (published bound of source + link lookahead)
//! ```
//!
//! because any message still in flight on a link was posted at or above
//! the source's published bound and carries at least the link's
//! lookahead of delay. The per-link lower-bound timestamps implied by
//! the published bounds stand in for explicit null messages: an idle
//! neighbour's bound keeps advancing (to `min(its next event, its own
//! safe)`), so no shard ever blocks on a neighbour that has nothing to
//! say. Strictly positive lookahead on every link of a cycle is what
//! makes the bound productive — around the ring the minimum hop cost
//! accumulates, so some shard can always move.
//!
//! Cross-shard events travel through bounded SPSC mailboxes (one per
//! link, lock-free, single-producer/single-consumer by construction:
//! a link's producer side is owned by exactly one shard and a shard is
//! owned by exactly one worker). When a mailbox is full the producer
//! spills into an unbounded sender-side overflow so lookahead cycles
//! can never deadlock on backpressure; spills are counted and flushed
//! opportunistically.
//!
//! ## Determinism
//!
//! Event keys are `(time, creator_shard << 48 | creator_seq)` — a total
//! order per shard that does not depend on arrival interleaving, worker
//! assignment, or thread count. Two shards' events at the *same*
//! timestamp may execute in either wall-clock order across engines, but
//! shard states are disjoint and any cross-shard influence is delayed
//! by at least one (positive) lookahead, so per-shard execution
//! histories — and therefore all observable outcomes — are identical
//! for every thread count and for the sequential reference executor
//! ([`ParSim::run_seq`]). The engine double-checks the conservative
//! bound at delivery: an entry arriving below its destination's
//! committed clock increments [`ShardStats::late_arrivals`] (asserted
//! zero by the lookahead-safety property tests).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::calq::CalendarQueue;
use crate::time::Time;

/// A boxed shard event: runs against the owning shard's context at its
/// fire time.
pub type ShardEvent<S> = Box<dyn FnOnce(&mut ShardCtx<'_, S>) + Send + 'static>;

/// Maximum events one shard executes per scheduling pass before its
/// worker visits its sibling shards again (fairness within a worker).
const PASS_BATCH: u64 = 256;

/// Per-shard sender sequence numbers live in the low 48 bits of an
/// event key; the creator shard id in the high 16. 2^48 events per
/// shard is far beyond any simulated workload.
const SEQ_BITS: u32 = 48;

fn pack_key(shard: u32, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS, "per-shard event counter overflow");
    ((shard as u64) << SEQ_BITS) | seq
}

/// One cross-shard message: fire time, deterministic key, callback.
struct Entry<S> {
    time: Time,
    key: u64,
    ev: ShardEvent<S>,
}

/// A bounded lock-free SPSC ring. The producer side is touched only by
/// the worker executing the source shard, the consumer side only by the
/// worker owning the destination shard.
struct Mailbox<S> {
    buf: Box<[UnsafeCell<MaybeUninit<Entry<S>>>]>,
    /// Consumer index (monotone, wraps via masking).
    head: AtomicUsize,
    /// Producer index.
    tail: AtomicUsize,
}

// Safety: entries are `Send` (ShardEvent requires it) and the SPSC
// index protocol gives each slot exactly one owner at a time.
unsafe impl<S> Send for Mailbox<S> {}
unsafe impl<S> Sync for Mailbox<S> {}

impl<S> Mailbox<S> {
    fn new(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Mailbox {
            buf,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Producer side: enqueue unless full.
    fn try_push(&self, e: Entry<S>) -> Result<(), Entry<S>> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.buf.len() {
            return Err(e);
        }
        unsafe { (*self.buf[tail & self.mask()].get()).write(e) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeue if non-empty.
    fn pop(&self) -> Option<Entry<S>> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let e = unsafe { (*self.buf[head & self.mask()].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(e)
    }

    /// Entries currently enqueued (approximate under concurrency; exact
    /// from either owning side).
    fn depth(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

impl<S> Drop for Mailbox<S> {
    fn drop(&mut self) {
        // Sole owner at drop time: release any undelivered entries.
        while self.pop().is_some() {}
    }
}

/// A shard's published clock bound, cache-line padded so neighbours
/// polling it don't false-share with the owner's hot state.
#[repr(align(128))]
struct PublishedBound {
    v: AtomicU64,
}

impl PublishedBound {
    fn new() -> Arc<Self> {
        Arc::new(PublishedBound {
            v: AtomicU64::new(0),
        })
    }
}

/// A handle naming one directed link created by [`ParSim::link`]; posts
/// go through it via [`ShardCtx::post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    src: u32,
    /// Index into the source shard's out-link table.
    idx: u32,
}

impl Link {
    /// The source shard of this link.
    pub fn src(&self) -> u32 {
        self.src
    }
}

/// Producer side of one link, owned by the source shard.
struct OutLink<S> {
    dst: u32,
    mbox: Arc<Mailbox<S>>,
    /// Unbounded overflow for a full mailbox; drained FIFO before any
    /// new fast-path push so per-link order is preserved.
    spill: VecDeque<Entry<S>>,
    /// Minimum timestamp among entries spilled since the spill was last
    /// empty. Spill order is post order, NOT time order (posts carry
    /// variable extra delay beyond the lookahead), so the published
    /// clock bound must stay below *every* spilled entry, not just the
    /// front one. Reset to `Time::MAX` when the spill drains: entries
    /// then sit in the mailbox, whose pushes happen-before any bound
    /// published afterwards, and receivers drain before executing.
    spill_floor: Time,
}

/// Consumer side of one link, owned by the destination shard.
struct InLink<S> {
    mbox: Arc<Mailbox<S>>,
    /// The source shard's published clock bound.
    src_bound: Arc<PublishedBound>,
    lookahead: Time,
}

/// Per-shard execution counters, reported in [`ParReport::shards`] and
/// surfaced as per-shard `wallclock` breakdowns by the bench harness.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Events executed on this shard.
    pub executed: u64,
    /// Cross-shard events posted by this shard.
    pub posted: u64,
    /// Scheduling passes where local events were pending but none lay
    /// below the conservative safe bound (lookahead stalls).
    pub stall_passes: u64,
    /// Scheduling passes that executed at least one event.
    pub busy_passes: u64,
    /// Deepest in-link mailbox observed at drain time.
    pub max_mailbox_depth: usize,
    /// Posts that overflowed a bounded mailbox into the sender-side
    /// spill queue.
    pub spilled: u64,
    /// Cross-shard entries that arrived with a timestamp below the
    /// shard's committed clock — conservative-bound violations, always
    /// zero when every link's lookahead is a true lower bound.
    pub late_arrivals: u64,
    /// Largest local pending-queue depth observed.
    pub peak_queue_depth: usize,
}

/// One shard: disjoint state, a private calendar queue, link endpoints.
struct Shard<S> {
    id: u32,
    state: S,
    queue: CalendarQueue<ShardEvent<S>>,
    /// Creator-sequence counter for this shard's events (local and
    /// posted alike).
    next_seq: u64,
    /// Time of the last executed event.
    committed: Time,
    /// This shard's published clock bound (shared with every out-link's
    /// destination).
    bound: Arc<PublishedBound>,
    inbox: Vec<InLink<S>>,
    out: Vec<OutLink<S>>,
    /// `(dst, lookahead)` per out-link — split from `out` so an
    /// executing event (which mutably borrows `state`/`queue`) can
    /// still read link metadata for the post-time contract check.
    out_meta: Vec<(u32, Time)>,
    /// Posts buffered during one event's execution, routed after it
    /// returns (reused, so steady-state posting allocates only the
    /// event box itself).
    outgoing: Vec<(u32, Entry<S>)>,
    stats: ShardStats,
    /// Telemetry sink (see [`ParSim::set_recorder`]): busy passes sample
    /// per-shard clock skew and queue/spill depths as gauge series.
    rec: Option<Arc<obs::Recorder>>,
}

/// Execution context handed to every shard event: the shard's state
/// plus its scheduling capabilities.
pub struct ShardCtx<'a, S> {
    now: Time,
    id: u32,
    /// The shard's mutable state.
    pub state: &'a mut S,
    queue: &'a mut CalendarQueue<ShardEvent<S>>,
    next_seq: &'a mut u64,
    outgoing: &'a mut Vec<(u32, Entry<S>)>,
    out_meta: &'a [(u32, Time)],
    pending: &'a AtomicU64,
    stats: &'a mut ShardStats,
}

impl<S> ShardCtx<'_, S> {
    /// Current virtual time (the fire time of the executing event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The executing shard's id.
    pub fn shard(&self) -> u32 {
        self.id
    }

    /// Schedule a local event on this shard at absolute time `t >= now`.
    pub fn schedule_at(&mut self, t: Time, f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        assert!(t >= self.now, "local event scheduled into the past");
        let key = pack_key(self.id, *self.next_seq);
        *self.next_seq += 1;
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.queue.push(t, key, Box::new(f));
    }

    /// Schedule a local event `dt` nanoseconds from now.
    pub fn schedule_in(&mut self, dt: Time, f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        self.schedule_at(self.now + dt, f)
    }

    /// Post a cross-shard event over `link`, to fire on the destination
    /// shard at absolute time `t`. The conservative contract: `t` must
    /// be at least `now + lookahead(link)` — the lookahead promised at
    /// [`ParSim::link`] time is exactly what the safe bound relies on,
    /// so posting closer than that is a model bug and panics.
    pub fn post(
        &mut self,
        link: Link,
        t: Time,
        f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        assert_eq!(link.src, self.id, "posting on another shard's link");
        let (_dst, lookahead) = self.out_meta[link.idx as usize];
        assert!(
            t >= self.now + lookahead,
            "cross-shard post at t={t} violates lookahead {lookahead} from now={}",
            self.now
        );
        let key = pack_key(self.id, *self.next_seq);
        *self.next_seq += 1;
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.stats.posted += 1;
        self.outgoing.push((
            link.idx,
            Entry {
                time: t,
                key,
                ev: Box::new(f),
            },
        ));
    }
}

/// Summary of one parallel (or sequential-reference) run.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// Largest committed event time across shards.
    pub end_time: Time,
    /// Total events executed.
    pub dispatches: u64,
    /// Worker threads used (1 for [`ParSim::run_seq`]).
    pub threads: usize,
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl ParReport {
    /// Total conservative-bound violations (must be zero for a sound
    /// lookahead assignment).
    pub fn late_arrivals(&self) -> u64 {
        self.shards.iter().map(|s| s.late_arrivals).sum()
    }

    /// Total lookahead stall passes across shards.
    pub fn stall_passes(&self) -> u64 {
        self.shards.iter().map(|s| s.stall_passes).sum()
    }

    /// Sum of per-shard peak queue depths — the engine-wide analogue of
    /// the sequential `peak_queue_depth`.
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.peak_queue_depth).sum()
    }
}

/// Default bounded mailbox capacity per link.
const DEFAULT_MAILBOX_CAP: usize = 1024;

/// The sharded simulation: `N` shards of state `S`, linked by
/// lookahead-carrying SPSC mailboxes.
pub struct ParSim<S> {
    shards: Vec<Shard<S>>,
    pending: Arc<AtomicU64>,
    mailbox_cap: usize,
}

impl<S: Send> ParSim<S> {
    /// Create one shard per element of `states`.
    pub fn new(states: impl IntoIterator<Item = S>) -> Self {
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| Shard {
                id: i as u32,
                state,
                queue: CalendarQueue::new(),
                next_seq: 0,
                committed: 0,
                bound: PublishedBound::new(),
                inbox: Vec::new(),
                out: Vec::new(),
                out_meta: Vec::new(),
                outgoing: Vec::new(),
                stats: ShardStats::default(),
                rec: None,
            })
            .collect();
        ParSim {
            shards,
            pending: Arc::new(AtomicU64::new(0)),
            mailbox_cap: DEFAULT_MAILBOX_CAP,
        }
    }

    /// Override the bounded per-link mailbox capacity (rounded up to a
    /// power of two). Tests use tiny capacities to exercise the spill
    /// path.
    pub fn set_mailbox_cap(&mut self, cap: usize) {
        assert!(cap >= 1, "mailbox capacity must be positive");
        self.mailbox_cap = cap;
    }

    /// Attach a telemetry sink: when the recorder's telemetry gate is
    /// on, every busy scheduling pass samples the shard's committed-
    /// clock skew (`par.clock_skew_ns` — distance from the conservative
    /// safe bound), local calendar depth (`par.queue_depth`), and
    /// sender-side spill backlog (`par.spill_depth`) as gauge series
    /// keyed by shard id. Worker threads sample concurrently, so the
    /// series are diagnostic (never golden-gated); with the gate off
    /// the cost is one relaxed load per pass.
    pub fn set_recorder(&mut self, rec: Arc<obs::Recorder>) {
        for sh in &mut self.shards {
            sh.rec = Some(Arc::clone(&rec));
        }
    }

    /// Borrow a shard's state (between runs; test observability).
    pub fn state(&self, shard: u32) -> &S {
        &self.shards[shard as usize].state
    }

    /// Mutably borrow a shard's state (setup between runs).
    pub fn state_mut(&mut self, shard: u32) -> &mut S {
        &mut self.shards[shard as usize].state
    }

    /// Consume the simulation, returning every shard's state.
    pub fn into_states(self) -> Vec<S> {
        self.shards.into_iter().map(|s| s.state).collect()
    }

    /// Declare a directed link `src → dst` whose cross-shard events are
    /// always posted at least `lookahead` nanoseconds into the future.
    /// The lookahead must be strictly positive: zero-lookahead cycles
    /// would let the conservative bound wedge.
    pub fn link(&mut self, src: u32, dst: u32, lookahead: Time) -> Link {
        assert!(lookahead > 0, "link lookahead must be strictly positive");
        assert!((src as usize) < self.shards.len(), "link src out of range");
        assert!((dst as usize) < self.shards.len(), "link dst out of range");
        let mbox = Arc::new(Mailbox::new(self.mailbox_cap));
        let src_bound = Arc::clone(&self.shards[src as usize].bound);
        self.shards[dst as usize].inbox.push(InLink {
            mbox: Arc::clone(&mbox),
            src_bound,
            lookahead,
        });
        let sh = &mut self.shards[src as usize];
        sh.out.push(OutLink {
            dst,
            mbox,
            spill: VecDeque::new(),
            spill_floor: Time::MAX,
        });
        sh.out_meta.push((dst, lookahead));
        Link {
            src,
            idx: (sh.out.len() - 1) as u32,
        }
    }

    /// Seed an initial event on `shard` at absolute time `t` (before a
    /// run; during a run events schedule through their [`ShardCtx`]).
    pub fn schedule(
        &mut self,
        shard: u32,
        t: Time,
        f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        let sh = &mut self.shards[shard as usize];
        let key = pack_key(sh.id, sh.next_seq);
        sh.next_seq += 1;
        self.pending.fetch_add(1, Ordering::Relaxed);
        sh.queue.push(t, key, Box::new(f));
    }

    /// Sequential reference executor: one merged loop over all shards in
    /// global `(time, lowest shard id)` order, with cross-shard posts
    /// delivered directly. Produces per-shard execution histories
    /// identical to [`ParSim::run`] at any thread count — the golden
    /// mode the parallel engine is gated against.
    pub fn run_seq(&mut self) -> ParReport {
        loop {
            let mut best: Option<(Time, usize)> = None;
            for (i, sh) in self.shards.iter().enumerate() {
                if let Some(t) = sh.queue.peek_time() {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((t, i)) = best else { break };
            let sh = &mut self.shards[i];
            let (et, ev) = sh.queue.pop_due(t).expect("peeked event present");
            exec_event(sh, et, ev, &self.pending);
            // Route the event's posts directly into destination queues,
            // in post order (FIFO per link, like the mailboxes).
            let mut outgoing = std::mem::take(&mut self.shards[i].outgoing);
            for (idx, e) in outgoing.drain(..) {
                let dst = self.shards[i].out[idx as usize].dst as usize;
                if e.time < self.shards[dst].committed {
                    self.shards[dst].stats.late_arrivals += 1;
                }
                self.shards[dst].queue.push(e.time, e.key, e.ev);
                let depth = self.shards[dst].queue.len();
                let peak = &mut self.shards[dst].stats.peak_queue_depth;
                *peak = depth.max(*peak);
            }
            self.shards[i].outgoing = outgoing; // hand the buffer back
        }
        self.report(1)
    }

    /// Run to completion on `threads` worker threads. Shards are
    /// assigned round-robin; each worker repeatedly passes over its
    /// shards — drain in-link mailboxes, execute everything below the
    /// conservative safe bound, publish a fresh clock bound — until the
    /// global pending-event count hits zero.
    pub fn run(&mut self, threads: usize) -> ParReport {
        assert!(threads >= 1, "need at least one worker thread");
        let n = self.shards.len();
        if n == 0 {
            return self.report(threads);
        }
        let threads = threads.min(n);
        let mut buckets: Vec<Vec<Shard<S>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, sh) in self.shards.drain(..).enumerate() {
            buckets[i % threads].push(sh);
        }
        let pending = Arc::clone(&self.pending);
        let poisoned = Arc::new(AtomicBool::new(false));
        let mut returned: Vec<Shard<S>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    let pending = Arc::clone(&pending);
                    let poisoned = Arc::clone(&poisoned);
                    scope.spawn(move || worker_loop(bucket, &pending, &poisoned))
                })
                .collect();
            let mut panic_payload = None;
            for h in handles {
                match h.join() {
                    Ok(shards) => returned.extend(shards),
                    Err(p) => panic_payload = Some(p),
                }
            }
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
        });
        returned.sort_by_key(|s| s.id);
        self.shards = returned;
        self.report(threads)
    }

    fn report(&self, threads: usize) -> ParReport {
        ParReport {
            end_time: self.shards.iter().map(|s| s.committed).max().unwrap_or(0),
            dispatches: self.shards.iter().map(|s| s.stats.executed).sum(),
            threads,
            shards: self.shards.iter().map(|s| s.stats.clone()).collect(),
        }
    }
}

/// Cap a candidate published bound so every post still sitting in a
/// sender-side spill queue stays covered: the receiver of link `L` adds
/// `L`'s lookahead back onto the bound, so a spilled entry at time `t`
/// forbids publishing anything above `t - lookahead(L)`. Without this
/// cap a neighbor could commit past an event that exists only in our
/// overflow buffer — a late arrival.
fn cap_by_spill<S>(sh: &Shard<S>, mut bound: Time) -> Time {
    for (link, &(_dst, lookahead)) in sh.out.iter().zip(&sh.out_meta) {
        bound = bound.min(link.spill_floor.saturating_sub(lookahead));
    }
    bound
}

/// Execute one event on `sh` at time `t`, leaving its cross-shard posts
/// buffered in `sh.outgoing`. Publishes the shard's clock *before*
/// running the event so any post the event makes is covered by the
/// bound its receiver reads (the event's own posts land at
/// `>= t + lookahead`, so publishing `t` covers them; older spilled
/// posts cap the publish below `t` when necessary).
fn exec_event<S>(sh: &mut Shard<S>, t: Time, ev: ShardEvent<S>, pending: &AtomicU64) {
    sh.bound.v.fetch_max(cap_by_spill(sh, t), Ordering::AcqRel);
    sh.committed = t;
    let mut ctx = ShardCtx {
        now: t,
        id: sh.id,
        state: &mut sh.state,
        queue: &mut sh.queue,
        next_seq: &mut sh.next_seq,
        outgoing: &mut sh.outgoing,
        out_meta: &sh.out_meta,
        pending,
        stats: &mut sh.stats,
    };
    ev(&mut ctx);
    sh.stats.executed += 1;
    pending.fetch_sub(1, Ordering::AcqRel);
}

/// One worker's life: round-robin passes over its shards until the
/// global event count drains (or a sibling worker panics).
fn worker_loop<S: Send>(
    mut shards: Vec<Shard<S>>,
    pending: &AtomicU64,
    poisoned: &AtomicBool,
) -> Vec<Shard<S>> {
    struct PoisonOnPanic<'a>(&'a AtomicBool);
    impl Drop for PoisonOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Release);
            }
        }
    }
    let _guard = PoisonOnPanic(poisoned);
    let mut idle: u32 = 0;
    loop {
        let mut progress = false;
        for sh in &mut shards {
            progress |= shard_pass(sh, pending);
        }
        if pending.load(Ordering::Acquire) == 0 || poisoned.load(Ordering::Acquire) {
            break;
        }
        if progress {
            idle = 0;
        } else {
            idle += 1;
            backoff(idle);
        }
    }
    shards
}

/// Adaptive idle backoff: brief spins, then scheduler yields, then a
/// short sleep — the yield tier is what keeps oversubscribed runs
/// (more workers than cores) from burning a whole quantum spinning.
fn backoff(idle: u32) {
    if idle < 8 {
        std::hint::spin_loop();
    } else if idle < 128 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

/// One scheduling pass over one shard. The order is load-bearing (see
/// the module docs): the safe bound is computed from in-link clocks
/// *before* the mailbox drain, so any entry the drain misses was posted
/// by a source whose clock had already reached the value we read —
/// i.e. its timestamp is at least `safe`, and executing strictly below
/// `safe` then publishing `min(next event, safe)` can never outrun it.
fn shard_pass<S>(sh: &mut Shard<S>, pending: &AtomicU64) -> bool {
    let mut progress = false;
    // Flush any spilled posts (FIFO per link) before new work.
    for link in &mut sh.out {
        while let Some(e) = link.spill.pop_front() {
            match link.mbox.try_push(e) {
                Ok(()) => progress = true,
                Err(e) => {
                    link.spill.push_front(e);
                    break;
                }
            }
        }
        if link.spill.is_empty() {
            link.spill_floor = Time::MAX;
        }
    }
    // 1. Conservative safe bound from the in-link published clocks.
    let safe = sh
        .inbox
        .iter()
        .map(|l| {
            l.src_bound
                .v
                .load(Ordering::Acquire)
                .saturating_add(l.lookahead)
        })
        .min()
        .unwrap_or(Time::MAX);
    // 2. Drain in-link mailboxes into the local calendar.
    let mut pass_mbox = 0usize;
    for l in &sh.inbox {
        let depth = l.mbox.depth();
        pass_mbox = pass_mbox.max(depth);
        if depth > sh.stats.max_mailbox_depth {
            sh.stats.max_mailbox_depth = depth;
        }
        while let Some(e) = l.mbox.pop() {
            if e.time < sh.committed {
                sh.stats.late_arrivals += 1;
            }
            sh.queue.push(e.time, e.key, e.ev);
            progress = true;
        }
    }
    let depth = sh.queue.len();
    if depth > sh.stats.peak_queue_depth {
        sh.stats.peak_queue_depth = depth;
    }
    // 3. Execute events strictly below the safe bound (bounded batch).
    let horizon = safe.saturating_sub(1);
    let mut executed = 0u64;
    while executed < PASS_BATCH {
        let Some((t, ev)) = sh.queue.pop_due(horizon) else {
            break;
        };
        exec_event(sh, t, ev, pending);
        // Route this event's posts in post order (FIFO per link):
        // mailbox fast path, spill when full.
        for (idx, e) in sh.outgoing.drain(..) {
            let link = &mut sh.out[idx as usize];
            if !link.spill.is_empty() {
                // Preserve per-link FIFO behind an existing backlog.
                sh.stats.spilled += 1;
                link.spill_floor = link.spill_floor.min(e.time);
                link.spill.push_back(e);
            } else if let Err(e) = link.mbox.try_push(e) {
                sh.stats.spilled += 1;
                link.spill_floor = link.spill_floor.min(e.time);
                link.spill.push_back(e);
            }
        }
        executed += 1;
    }
    if executed > 0 {
        sh.stats.busy_passes += 1;
        progress = true;
        // Telemetry: busy passes sample shard health (stalled passes
        // spin too fast to sample usefully). One relaxed load when off.
        if let Some(rec) = &sh.rec {
            if rec.telemetry_on() {
                let t = sh.committed;
                if safe != Time::MAX {
                    rec.gauge(
                        t,
                        sh.id,
                        "par.clock_skew_ns",
                        safe.saturating_sub(sh.committed),
                    );
                }
                rec.gauge(t, sh.id, "par.queue_depth", sh.queue.len() as u64);
                rec.gauge(t, sh.id, "par.mailbox_depth", pass_mbox as u64);
                let spill: usize = sh.out.iter().map(|l| l.spill.len()).sum();
                rec.gauge(t, sh.id, "par.spill_depth", spill as u64);
            }
        }
    } else if sh.queue.peek_time().is_some() {
        sh.stats.stall_passes += 1;
    }
    // 4. Publish a fresh clock bound: we will never again execute below
    //    min(next local event, safe) — capped by any spill backlog (see
    //    `cap_by_spill`).
    let bound = sh.queue.peek_time().unwrap_or(Time::MAX).min(safe);
    sh.bound
        .v
        .fetch_max(cap_by_spill(sh, bound), Ordering::AcqRel);
    progress
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shard counts its own executions and records (time, tag)
    /// history.
    #[derive(Default)]
    struct Log {
        history: Vec<(Time, u64)>,
    }

    fn ping_pong(n_rounds: u64) -> ParSim<Log> {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        let ab = sim.link(0, 1, 100);
        let ba = sim.link(1, 0, 100);
        fn bounce(ctx: &mut ShardCtx<'_, Log>, out: Link, back: Link, left: u64) {
            let t = ctx.now();
            ctx.state.history.push((t, left));
            if left > 0 {
                ctx.post(out, t + 100, move |c| bounce(c, back, out, left - 1));
            }
        }
        sim.schedule(0, 0, move |c| bounce(c, ab, ba, n_rounds));
        sim
    }

    #[test]
    fn seq_and_parallel_agree_on_ping_pong() {
        let mut a = ping_pong(40);
        let ra = a.run_seq();
        let mut b = ping_pong(40);
        let rb = b.run(2);
        assert_eq!(ra.dispatches, rb.dispatches);
        assert_eq!(ra.end_time, rb.end_time);
        assert_eq!(rb.late_arrivals(), 0);
        for i in 0..2 {
            assert_eq!(a.state(i).history, b.state(i).history, "shard {i}");
        }
    }

    #[test]
    fn tiny_mailbox_spills_and_still_delivers_everything() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        sim.set_mailbox_cap(2);
        let link = sim.link(0, 1, 10);
        // A burst of posts from one event floods the capacity-2 mailbox.
        sim.schedule(0, 0, move |c| {
            for k in 0..64u64 {
                c.post(link, 10 + k, move |c2| {
                    let t = c2.now();
                    c2.state.history.push((t, k));
                });
            }
        });
        let r = sim.run(2);
        assert_eq!(r.dispatches, 65);
        assert_eq!(r.late_arrivals(), 0);
        assert!(r.shards[0].spilled > 0, "capacity 2 must overflow");
        let h = &sim.state(1).history;
        assert_eq!(h.len(), 64);
        // Delivered in deterministic (time, key) order.
        assert!(h.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn posting_inside_the_lookahead_panics() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        let link = sim.link(0, 1, 500);
        sim.schedule(0, 0, move |c| {
            c.post(link, 100, |_| {});
        });
        sim.run_seq();
    }

    #[test]
    fn ring_of_shards_makes_progress_under_cyclic_links() {
        // A 4-cycle with small lookahead: conservative engines wedge on
        // zero-lookahead cycles; positive lookahead must keep this live.
        let n = 4u32;
        let mut sim = ParSim::new((0..n).map(|_| Log::default()));
        let links: Vec<Link> = (0..n).map(|i| sim.link(i, (i + 1) % n, 50)).collect();
        fn hop(ctx: &mut ShardCtx<'_, Log>, links: Arc<Vec<Link>>, left: u64) {
            let t = ctx.now();
            ctx.state.history.push((t, left));
            if left > 0 {
                let link = links[ctx.shard() as usize];
                ctx.post(link, t + 50, move |c| hop(c, links, left - 1));
            }
        }
        let links = Arc::new(links);
        let l2 = Arc::clone(&links);
        sim.schedule(0, 0, move |c| hop(c, l2, 100));
        let r = sim.run(4);
        assert_eq!(r.dispatches, 101);
        assert_eq!(r.end_time, 100 * 50);
        assert_eq!(r.late_arrivals(), 0);
    }

    #[test]
    fn determinism_across_thread_counts() {
        let runs: Vec<Vec<Vec<(Time, u64)>>> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                let mut sim = ping_pong(25);
                sim.run(t);
                (0..2).map(|i| sim.state(i).history.clone()).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        // Keep shard 1 busy while shard 0 panics.
        fn tick(ctx: &mut ShardCtx<'_, Log>, left: u64) {
            if left > 0 {
                ctx.schedule_in(10, move |c| tick(c, left - 1));
            }
        }
        sim.schedule(1, 0, |c| tick(c, 10_000));
        sim.schedule(0, 50, |_| panic!("event exploded"));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(2)));
        assert!(res.is_err(), "panic must propagate out of run()");
    }
}
