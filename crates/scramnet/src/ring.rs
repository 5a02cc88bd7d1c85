//! The register-insertion ring: packet propagation, replication into every
//! bank, link occupancy, fault injection, and the single-writer checker.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use des::obs::{Layer, Stage, NO_NODE};
use des::{Link, Reserved, Signal, SimHandle, Then, Time};
use parking_lot::{Mutex, MutexGuard};

use crate::bank::{Bank, Span};
use crate::cost::{CostModel, TxMode, BYPASS_HOP_NS, INTERRUPT_DISPATCH_NS};
use crate::fifo::Fifo;
use crate::nic::Nic;
use crate::stats::{AtomicRingStats, Bump, RingStats};
use crate::{Word, WordAddr};

/// Construction-time options beyond node count and memory size.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Transmission mode for injected writes.
    pub mode: TxMode,
    /// Record the last writer of every word and panic-free report
    /// cross-writer conflicts (used to verify BBP's single-writer layout).
    pub track_provenance: bool,
    /// Fault injection: probability that a word flips one bit while
    /// being applied at a replica (0.0 = the healthy hardware the paper
    /// assumes; SCRAMNet's link-level error detection is what lets the
    /// BBP carry "no protocol information on messages"). Seeded and
    /// deterministic. A probability: [`Ring::with_config`] panics on
    /// anything outside `0.0..=1.0`, NaN included.
    pub bit_error_rate: f64,
    /// Seed for the error-injection stream.
    pub error_seed: u64,
    /// Dual-ring wrap on severed links: when a packet reaches a broken
    /// egress link it loops back across the redundant counter-rotating
    /// ring to the head of the source's segment and keeps replicating
    /// there (FDDI-style ring wrap). A lone cut is then healed
    /// transparently; a *pair* of cuts segments the ring into two
    /// independent sub-rings, each internally fully connected. Off by
    /// default: the legacy model truncates at the first break, which
    /// the existing fault campaigns and golden traces rely on.
    pub segment_wrap: bool,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            mode: TxMode::Fixed4,
            track_provenance: false,
            bit_error_rate: 0.0,
            error_seed: 0,
            segment_wrap: false,
        }
    }
}

/// An interrupt subscription: writes landing in `[start, end)` on this
/// node's bank fire `signal`.
struct Watch {
    start: WordAddr,
    end: WordAddr,
    signal: Signal,
}

/// A bridge tap: observes every write applied at one node's bank.
/// Used by [`crate::RingHierarchy`] to forward traffic between rings.
pub(crate) type Tap = Box<dyn Fn(usize, WordAddr, &[Word], Time) + Send>;

/// Bypass state as an atomic bitset: one bit per node (the ring caps at
/// 256 nodes, so four words cover it). Injects read a [`BypassSnapshot`]
/// — four relaxed loads — instead of cloning a `Mutex<Vec<bool>>`.
#[derive(Default)]
struct BypassMask {
    words: [AtomicU64; 4],
}

impl BypassMask {
    fn set(&self, node: usize, bypassed: bool) {
        let (w, bit) = (node / 64, 1u64 << (node % 64));
        if bypassed {
            self.words[w].fetch_or(bit, Ordering::Relaxed);
        } else {
            self.words[w].fetch_and(!bit, Ordering::Relaxed);
        }
    }

    fn get(&self, node: usize) -> bool {
        self.words[node / 64].load(Ordering::Relaxed) & (1 << (node % 64)) != 0
    }

    fn snapshot(&self) -> BypassSnapshot {
        BypassSnapshot {
            words: [
                self.words[0].load(Ordering::Relaxed),
                self.words[1].load(Ordering::Relaxed),
                self.words[2].load(Ordering::Relaxed),
                self.words[3].load(Ordering::Relaxed),
            ],
        }
    }
}

/// A point-in-time copy of the bypass bitset, `Copy`-cheap on the stack.
#[derive(Clone, Copy)]
struct BypassSnapshot {
    words: [u64; 4],
}

impl BypassSnapshot {
    #[inline]
    fn get(&self, node: usize) -> bool {
        self.words[node / 64] & (1 << (node % 64)) != 0
    }

    #[inline]
    fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }
}

/// The set of peers one node can currently exchange traffic with, as
/// carved out by severed links and bypassed NICs: the node's ring
/// *segment*. Dual-ring wrap heals a lone cut (the whole ring remains
/// one segment); a pair of cuts splits it into two arcs. Bypassed NICs
/// are excluded (their banks miss all traffic); the node itself is
/// always a member. This is the hardware's segment map — it says
/// nothing about whether the peer's *host* is alive, which is exactly
/// the distinction the protocol layer needs: a peer outside the set is
/// *unreachable*, not necessarily dead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReachabilitySet {
    words: [u64; 4],
}

impl ReachabilitySet {
    #[inline]
    fn insert(&mut self, node: usize) {
        self.words[node / 64] |= 1 << (node % 64);
    }

    /// True if `node` is in the set.
    #[inline]
    pub fn contains(&self, node: usize) -> bool {
        self.words[node / 64] & (1 << (node % 64)) != 0
    }

    /// Number of reachable nodes (including the node itself).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One packet in flight: the header a series of transit events
/// ([`SimHandle::schedule_series`]) moves by value from hop to hop, and
/// the one pooled buffer it owns. The buffer holds the packet's itinerary
/// as runs, with the message trace id after the first run when it has one
/// (only ever while full tracing is enabled, so no protocol word changes),
/// then the payload, which every hop reads in place. A run is hops the
/// packet's head makes back to back, each at the node after the last
/// ([`RingShared::next`]) and applying exactly `hop_ns` after it, which on
/// a register-insertion ring is every hop but one after a bypassed node, a
/// wait at a busy link or the dual-ring wrap. A run's word holds its first
/// node in the low byte and its hop count in the byte above; every run but
/// the first is also its first hop's apply time (two words, before its
/// word). The first run's time is the series' first, and its word carries
/// [`TRACED`]. A buffer is as long as its plan's size [`class`] and pooled
/// by class, so a warm steady state injects an N-hop packet with zero
/// allocations. A packet booked behind its source's chain has no plan yet:
/// it waits as a record in the source's FIFO ([`Chain`]) until the packet
/// ahead of it queues it.
pub(crate) struct HopPlan {
    /// `run₀ ++ [trace; 2] if traced ++ ([time; 2] ++ run) × (runs − 1) ++
    /// payload`, then the class's slack.
    buf: Box<[Word]>,
    addr: WordAddr,
    writer: u32,
    /// Payload words.
    len: u32,
    /// Hops planned: at most 255, one per node of the ring but its source.
    hops: u8,
    /// Runs the hops make: at most one a hop.
    runs: u8,
    /// Next hop to fire.
    next: u8,
    /// The node that sourced it: whose chain a head carries on.
    src: u8,
    /// The packet is its source's head: its last hop queues the next
    /// packet of its source's FIFO, or ends the chain.
    head: bool,
}

/// The transit closure captures the ring and the header, and the
/// scheduler stores a closure of at most this many bytes in its queue
/// entry: a packet in flight is its entry and its buffer, nothing else.
const _: () = assert!(
    std::mem::size_of::<(Arc<RingShared>, HopPlan)>() <= des::INLINE_BYTES,
    "the transit closure must fit the scheduler's inline budget"
);

/// Words of a trace id.
const TRACE_WORDS: usize = 2;

/// Words a run takes, but the first: its time and its word.
const RUN_WORDS: usize = 3;

/// One more hop in a run's word.
const RUN_HOP: Word = 1 << 8;

/// The bit of the first run's word that says the trace id follows it.
const TRACED: Word = 1 << 16;

/// Buffers a size class keeps in its pool, at most: a drained burst gives
/// the rest back to the allocator.
const POOLED: usize = 256;

/// Words a FIFO record holds before its plan's: its first hop's time and
/// its reserved tie-break value, in three ([`key_words`]), then `addr` and
/// `writer`. The plan's words follow, as its buffer would hold them, and
/// its hop and run counts are its FIFO tag: a sixteen-word packet's record
/// on a 16-node ring is 22 words, and a page holds eleven.
const RECORD_WORDS: usize = 5;

/// Bits of a record's first-hop time, beside the 40 of a tie-break value
/// (as many as a `des` queue key keeps): a packet whose first hop is later
/// than 2^56 ns, over two years, is queued at its inject.
const RECORD_TIME_BITS: u32 = 56;

/// A first hop's time and tie-break value as the three words a record
/// keeps them in, low first.
fn key_words(t: Time, seq: u64) -> [Word; 3] {
    assert!(seq < 1 << 40, "a simulation schedules at most 2^40 entries");
    let v = u128::from(t) | u128::from(seq) << RECORD_TIME_BITS;
    [0, 32, 64].map(|shift| (v >> shift) as Word)
}

/// The time and tie-break value [`key_words`] made `w` of.
fn words_key(w: &[Word]) -> (Time, u64) {
    let v = w.iter().rev().fold(0, |v, &w| v << 32 | u128::from(w));
    (
        (v & ((1 << RECORD_TIME_BITS) - 1)) as Time,
        (v >> RECORD_TIME_BITS) as u64,
    )
}

/// The size class of a plan of `len` words: its index and the words its
/// buffer holds. Classes are exact up to 16 words, then eight to a
/// doubling, so a buffer is less than 1/8 longer than its plan, and a
/// buffer's own length is of its class.
fn class(len: usize) -> (usize, usize) {
    let shift = (len.max(16) - 1).ilog2() - 3;
    let steps = len.div_ceil(1 << shift);
    (steps + 8 * shift as usize, steps << shift)
}

/// `v` as two words, low word first.
fn split(v: u64) -> [Word; 2] {
    let [a, b, c, d, e, f, g, h] = v.to_le_bytes();
    [[a, b, c, d], [e, f, g, h]].map(Word::from_le_bytes)
}

/// The `u64` whose words, low first, are `w`: none is 0.
fn join(w: &[Word]) -> u64 {
    w.iter().rev().fold(0, |v, &w| v << 32 | u64::from(w))
}

impl HopPlan {
    /// Where run `r ≥ 1` starts, its apply time before its word: past the
    /// first run's word, the trace id if any and the runs between. "Run
    /// `runs`" starts where the payload does.
    fn at(&self, r: usize) -> usize {
        let traced = usize::from(self.buf[0] & TRACED != 0);
        1 + TRACE_WORDS * traced + RUN_WORDS * (r - 1)
    }

    /// Run `r`: its first node and its hops.
    fn run(&self, r: usize) -> (usize, u8) {
        let at = if r == 0 { 0 } else { self.at(r) + 2 };
        let [node, hops, ..] = self.buf[at].to_le_bytes();
        (usize::from(node), hops)
    }

    /// When run `r ≥ 1`'s first hop applies.
    fn start(&self, r: usize) -> Time {
        join(&self.buf[self.at(r)..][..2])
    }

    /// The trace id: 0 when the first run's word is not [`TRACED`].
    fn trace(&self) -> u64 {
        join(&self.buf[1..self.at(1)])
    }

    fn payload(&self) -> &[Word] {
        let at = self.at(usize::from(self.runs));
        &self.buf[at..at + self.len as usize]
    }
}

/// What an inject reads and writes beyond the banks, as one value behind
/// one lock ([`RingShared::state`]): entered once per inject (the link
/// walk, which takes a plan buffer or appends a FIFO record) and once per
/// packet on its last hop (the buffer's return to the pool, or the next
/// packet of a chain taking it); a hop before it, a PIO access and a look
/// enter nothing — the banks and the bit-error countdown are beside it,
/// in [`RingShared`]. The conflict log is here too, entered only when a
/// tracked write finds another writer's word. Nothing under it notifies a
/// [`Signal`], calls a tap or records, so nothing done under it comes back
/// for it. Under it an inject may enter the scheduler's core once, to
/// reserve a waiting packet's tie-break values, and a FIFO takes or gives
/// back a page on the bank pages' free list; neither of those ever takes
/// this lock (state, then core; state, then free list).
pub(crate) struct RingState {
    /// Egress-link busy horizon per node (`links[i]` = link i → i+1).
    links: Vec<Time>,
    /// Free lists of plan buffers (see [`HopPlan`]), one a size [`class`],
    /// indexed by class and each at most [`POOLED`] long: a plan takes a
    /// buffer of its own class, so a one-word flag write never carries a
    /// buffer a 256-word payload needed.
    plan_pools: PlanPools,
    /// Each source's chain, indexed by node.
    chains: Vec<Chain>,
    /// Words on their way into a plan's buffer: the runs of the link walk
    /// under way, until the walk knows the plan's length, or the record a
    /// head's last hop takes from its source's FIFO.
    staged: Vec<Word>,
    /// (addr, earlier_writer, later_writer) conflicts seen by the
    /// single-writer checker.
    conflicts: Vec<(WordAddr, usize, usize)>,
}

/// Plan buffers by size [`class`], each class's list at most [`POOLED`]
/// long.
#[derive(Default)]
struct PlanPools(Vec<Vec<Box<[Word]>>>);

impl PlanPools {
    /// A buffer of the class of a `len`-word plan: a pooled one if the
    /// class has one.
    fn take(&mut self, len: usize) -> Box<[Word]> {
        let (class, size) = class(len);
        self.0.resize_with(self.0.len().max(class + 1), Vec::new);
        let pooled = self.0[class].pop();
        pooled.unwrap_or_else(|| vec![0; size].into())
    }

    /// Pool `buf` with its class, unless that holds [`POOLED`] already:
    /// then it is freed.
    fn give(&mut self, buf: Box<[Word]>) {
        let pool = &mut self.0[class(buf.len()).0];
        if pool.len() < POOLED {
            pool.push(buf);
        }
    }
}

/// A source's transmit FIFO, and the packet at its front. A packet booked
/// while one of its source's packets is in the queue, and whose first hop
/// comes no earlier than the last hop of the youngest of those, is not
/// queued: it waits as a record in the FIFO, with the tie-break values it
/// was booked with reserved ([`SimHandle::reserve_series`]), and the last
/// hop of the packet ahead of it queues it ([`Then::reserved`]). The packet
/// whose last hop does that is the chain's head. Its last hop comes before
/// the record's first in `(time, seq)` order, so the record is queued
/// before anything that sorts after it can pop, and while it waits the
/// head has a hop in the queue that sorts before it: every pop, every
/// "is it next?" answer and the queue's depth are what they were with the
/// packet queued at its inject.
#[derive(Default)]
struct Chain {
    /// When the youngest packet's last hop applies: the head's, or the
    /// last record's. `None` while the source has no head.
    last: Option<Time>,
    fifo: Fifo,
}

impl RingState {
    /// A packet's last hop is done with `plan`: when it is its source's
    /// head and the source's FIFO holds a record, that packet is the next
    /// head — returned with its first hop's time and its reservation, in
    /// `plan`'s buffer if that is of its class; otherwise the chain ends
    /// with this packet, and the buffer goes back to its pool.
    fn retire(&mut self, plan: HopPlan) -> Option<(HopPlan, Time, Reserved)> {
        if plan.head {
            let chain = &mut self.chains[usize::from(plan.src)];
            if let Some(counts) = chain.fifo.pop(&mut self.staged) {
                return Some(self.promote(plan, counts));
            }
            chain.last = None;
        }
        self.plan_pools.give(plan.buf);
        None
    }

    /// The record staged from `plan`'s source's FIFO, tagged `counts`, as
    /// the packet in flight its head `plan` hands its source on to.
    fn promote(&mut self, plan: HopPlan, counts: u16) -> (HopPlan, Time, Reserved) {
        let (header, words) = self.staged.split_at(RECORD_WORDS);
        let mut buf = plan.buf;
        if buf.len() != class(words.len()).1 {
            self.plan_pools.give(buf);
            buf = self.plan_pools.take(words.len());
        }
        buf[..words.len()].copy_from_slice(words);
        let [hops, runs] = counts.to_le_bytes();
        let mut next = HopPlan {
            buf,
            addr: header[3] as WordAddr,
            writer: header[4],
            len: 0,
            hops,
            runs,
            next: 0,
            src: plan.src,
            head: true,
        };
        next.len = (words.len() - next.at(usize::from(runs))) as u32;
        let (at, seq) = words_key(&header[..3]);
        (next, at, Reserved::from_raw(seq))
    }
}

pub(crate) struct RingShared {
    pub handle: SimHandle,
    pub cost: CostModel,
    /// Active [`TxMode`], stored as its discriminant index.
    mode: AtomicU8,
    pub n: usize,
    /// Words per bank.
    pub words: usize,
    /// Each node's memory, read and applied through `&self`: words a hop
    /// stores to. Reached only through [`Self::bank`].
    banks: Vec<Bank>,
    /// Fault injection (None when `bit_error_rate` is 0).
    errors: Option<ErrorInjector>,
    /// Entered only through [`Self::state`].
    state: Mutex<RingState>,
    /// Times [`Self::state`] was entered, for the unit tests that pin what
    /// a hop and an inject take.
    #[cfg(test)]
    state_entries: AtomicU64,
    /// Calls of [`Self::transit`], for the unit tests that pin which hops
    /// run in one call.
    #[cfg(test)]
    transit_calls: AtomicU64,
    /// Packets booked as a chain's head, queued beside a chain, and
    /// deferred into a FIFO, for the unit tests that pin which is which.
    #[cfg(test)]
    booked: [AtomicU64; 3],
    watches: Mutex<Vec<Vec<Watch>>>,
    /// Number of installed watches across all nodes; lets a hop
    /// skip the watch lock entirely on watch-free rings.
    watch_count: AtomicU64,
    /// Per-node apply observers (bridge forwarding). Called as
    /// `(writer, addr, words, time)` after the bank apply.
    taps: Mutex<Vec<Option<Tap>>>,
    /// Number of installed taps; same fast-skip as `watch_count`.
    tap_count: AtomicU64,
    /// Global identity of each local node (identity mapping for a lone
    /// ring; distinct global ids inside a [`crate::RingHierarchy`]).
    /// Provenance and taps see global ids.
    pub node_ids: Vec<usize>,
    bypassed: BypassMask,
    /// Silenced hosts: the node's NIC is still inserted in the ring (full
    /// hop latency, its bank keeps receiving replicated traffic) but the
    /// host injects nothing — a crashed workstation behind a live SCRAMNet
    /// card. Unlike bypass, silence is invisible to the hardware liveness
    /// signal; only a failure detector reading heartbeats can tell.
    silenced: BypassMask,
    /// Severed egress links (`broken_links` bit i = link i → i+1 cut).
    /// Packets crossing a broken link are truncated: nodes before the
    /// break keep the write, nodes after never see it (unless
    /// `segment_wrap` loops them back to the segment head).
    broken_links: BypassMask,
    /// Dual-ring wrap on broken links (see [`RingConfig::segment_wrap`]).
    segment_wrap: bool,
    /// Armed drop faults: while non-zero, each injection decrements the
    /// counter and skips replication entirely (the local bank still sees
    /// the write — the loss happens on the wire).
    drop_next: AtomicU64,
    pub stats: AtomicRingStats,
}

/// The ring's memory as the one flat word space a chain step can look at
/// ([`des::ProcCtx::scan`]): node `i`'s word `a` is at `i * words + a`.
/// A look is a host's PIO read, made on its behalf by whichever thread
/// walks the step, so it is counted as one.
impl des::Sample for RingShared {
    fn sample(&self, addr: usize) -> Word {
        self.stats.pio_reads.add(1);
        self.bank(addr / self.words).read(addr % self.words)
    }
}

impl RingShared {
    fn mode(&self) -> TxMode {
        match self.mode.load(Ordering::Relaxed) {
            0 => TxMode::Fixed4,
            _ => TxMode::Variable,
        }
    }

    fn set_mode(&self, mode: TxMode) {
        let idx = match mode {
            TxMode::Fixed4 => 0,
            TxMode::Variable => 1,
        };
        self.mode.store(idx, Ordering::Relaxed);
    }
}

/// Seeded per-word bit-flip injector.
///
/// Rather than a Bernoulli draw per word, the injector samples the *gap*
/// to the next flipped word from the matching geometric distribution and
/// counts words down to it. The flip process over the word stream is
/// statistically identical, still seeded and deterministic, but a clean
/// apply costs one subtraction instead of one RNG draw per word — at
/// realistic error rates virtually every apply is clean — and takes no
/// lock: the countdown is a relaxed cell only the running entity touches,
/// and the stream's RNG is locked only when a flip lands.
struct ErrorInjector {
    /// `ln(1 - rate)`, the divisor of every gap.
    ln_keep: f64,
    /// Clean words remaining before the next flip.
    countdown: AtomicU64,
    rng: Mutex<des::rng::SimRng>,
}

impl ErrorInjector {
    fn new(rate: f64, seed: u64) -> Self {
        let ln_keep = (1.0 - rate).ln();
        let mut rng = des::rng::SimRng::seeded(seed);
        ErrorInjector {
            ln_keep,
            countdown: AtomicU64::new(Self::sample_gap(ln_keep, &mut rng)),
            rng: Mutex::new(rng),
        }
    }

    /// Geometric(rate) gap: number of clean words before the next flip.
    fn sample_gap(ln_keep: f64, rng: &mut des::rng::SimRng) -> u64 {
        // floor(ln(1-U) / ln(1-p)). At p == 1 the divisor is -inf and the
        // gap collapses to 0 (every word flips), as it should; a p too
        // small to change 1 - p makes it 0, and no word ever flips.
        let u = rng.unit();
        if ln_keep == 0.0 {
            return u64::MAX;
        }
        ((1.0 - u).ln() / ln_keep) as u64
    }

    /// Count `data`'s words down, and return its corrupted copy if a flip
    /// lands in it. The fast path — no flip lands — is a single
    /// compare-and-subtract.
    #[inline(always)]
    fn corrupt(&self, data: &[Word]) -> Option<Vec<Word>> {
        let len = data.len() as u64;
        let countdown = self.countdown.load(Ordering::Relaxed);
        if countdown >= len {
            self.countdown.store(countdown - len, Ordering::Relaxed);
            return None;
        }
        Some(self.flip(data, countdown))
    }

    /// `data` with word `i` and every word a gap after it flipped.
    #[cold]
    fn flip(&self, data: &[Word], mut i: u64) -> Vec<Word> {
        let mut out = data.to_vec();
        let len = data.len() as u64;
        let mut rng = self.rng.lock();
        while i < len {
            out[i as usize] ^= 1 << rng.below(32);
            i = (i + 1).saturating_add(Self::sample_gap(self.ln_keep, &mut rng));
        }
        self.countdown.store(i - len, Ordering::Relaxed);
        out
    }
}

/// One observed bank apply: the unit of a node's delivered stream
/// ([`Ring::record_deliveries`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual time of the apply (packet tail for transit applies).
    pub time: Time,
    /// Global id of the writing node.
    pub writer: usize,
    /// First word address of the write.
    pub addr: WordAddr,
    /// The applied words (after any transit corruption).
    pub data: Vec<Word>,
}

/// The SCRAMNet ring. Cloning is cheap and yields another handle onto the
/// same hardware (useful for fault-injection event closures).
#[derive(Clone)]
pub struct Ring {
    shared: Arc<RingShared>,
}

impl Ring {
    /// A ring of `n` nodes, each bank holding `words` 32-bit words, under
    /// the given cost model and default [`RingConfig`].
    pub fn new(handle: &SimHandle, n: usize, words: usize, cost: CostModel) -> Self {
        Self::with_config(handle, n, words, cost, RingConfig::default())
    }

    /// A ring with explicit configuration.
    ///
    /// # Panics
    ///
    /// On fewer than 2 or more than 256 nodes and a
    /// [`RingConfig::bit_error_rate`] that is not a probability — each of
    /// which would otherwise build a ring that is silently healthy or
    /// saturated at its first write.
    pub fn with_config(
        handle: &SimHandle,
        n: usize,
        words: usize,
        cost: CostModel,
        config: RingConfig,
    ) -> Self {
        Self::with_ids(handle, (0..n).collect(), words, cost, config)
    }

    /// A ring of one node per entry of `node_ids`, each the global
    /// identity its provenance and taps report (a [`crate::RingHierarchy`]
    /// numbers its hosts and bridges across rings).
    pub(crate) fn with_ids(
        handle: &SimHandle,
        node_ids: Vec<usize>,
        words: usize,
        cost: CostModel,
        config: RingConfig,
    ) -> Self {
        let n = node_ids.len();
        assert!(n >= 2, "a ring needs at least two nodes");
        assert!(n <= 256, "SCRAMNet supports up to 256 nodes per ring");
        let rate = config.bit_error_rate;
        assert!(
            (0.0..=1.0).contains(&rate),
            "RingConfig::bit_error_rate is {rate}: a probability, in 0.0..=1.0"
        );
        let state = RingState {
            links: vec![0; n],
            plan_pools: PlanPools::default(),
            chains: (0..n).map(|_| Chain::default()).collect(),
            staged: Vec::new(),
            conflicts: Vec::new(),
        };
        let shared = RingShared {
            handle: handle.clone(),
            cost,
            mode: AtomicU8::new(0),
            n,
            words,
            banks: (0..n)
                .map(|_| Bank::new(words, config.track_provenance))
                .collect(),
            errors: (config.bit_error_rate > 0.0)
                .then(|| ErrorInjector::new(config.bit_error_rate, config.error_seed)),
            state: Mutex::new(state),
            #[cfg(test)]
            state_entries: AtomicU64::new(0),
            #[cfg(test)]
            transit_calls: AtomicU64::new(0),
            #[cfg(test)]
            booked: Default::default(),
            watches: Mutex::new((0..n).map(|_| Vec::new()).collect()),
            watch_count: AtomicU64::new(0),
            taps: Mutex::new((0..n).map(|_| None).collect()),
            tap_count: AtomicU64::new(0),
            node_ids,
            bypassed: BypassMask::default(),
            silenced: BypassMask::default(),
            broken_links: BypassMask::default(),
            segment_wrap: config.segment_wrap,
            drop_next: AtomicU64::new(0),
            stats: AtomicRingStats::default(),
        };
        shared.set_mode(config.mode);
        Ring {
            shared: Arc::new(shared),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shared.n
    }

    /// The simulation handle this ring schedules its propagation on.
    pub fn handle(&self) -> SimHandle {
        self.shared.handle.clone()
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Current transmission mode.
    pub fn mode(&self) -> TxMode {
        self.shared.mode()
    }

    /// Switch transmission mode (takes effect for subsequent injections).
    pub fn set_mode(&self, mode: TxMode) {
        self.shared.set_mode(mode);
    }

    /// The host-side port for `node`.
    pub fn nic(&self, node: usize) -> Nic {
        assert!(node < self.shared.n, "node {node} out of range");
        Nic::new(Arc::clone(&self.shared), node)
    }

    /// Mark `node` as bypassed: its insertion register is switched out of
    /// the ring (dual-ring redundancy). Packets skip its bank; hop latency
    /// across it drops to [`BYPASS_HOP_NS`](crate::BYPASS_HOP_NS).
    pub fn bypass_node(&self, node: usize) {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.bypassed.set(node, true);
    }

    /// Re-insert a previously bypassed node. Its bank has missed all
    /// traffic in between — exactly like real hardware after a re-join.
    pub fn rejoin_node(&self, node: usize) {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.bypassed.set(node, false);
    }

    /// True if `node` is currently bypassed.
    pub fn is_bypassed(&self, node: usize) -> bool {
        self.shared.bypassed.get(node)
    }

    /// Silence `node`'s host: its NIC stays inserted (packets still pay
    /// the full `hop_ns` across it and its bank keeps receiving) but
    /// every injection it sources is discarded — a crashed workstation
    /// behind a live card. The hardware liveness signal
    /// ([`crate::Nic::peer_alive`]) keeps reporting the node as present;
    /// only a heartbeat-based failure detector can notice, which is the
    /// point: detection, not the fault, is what engages the bypass.
    pub fn silence_node(&self, node: usize) {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.silenced.set(node, true);
    }

    /// Un-silence a host (the workstation rebooted). Its bank kept
    /// receiving while silent, but anything it "wrote" meanwhile is gone.
    pub fn unsilence_node(&self, node: usize) {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.silenced.set(node, false);
    }

    /// True if `node`'s host is currently silenced.
    pub fn is_silenced(&self, node: usize) -> bool {
        self.shared.silenced.get(node)
    }

    /// Arm a drop fault: the next `n` injected packets are lost on the
    /// wire. The source bank still sees each write (the host wrote its
    /// own memory) but nothing replicates — a register-insertion packet
    /// swallowed in transit. Arms accumulate.
    pub fn arm_drop(&self, n: u64) {
        self.shared.drop_next.fetch_add(n, Ordering::Relaxed);
    }

    /// Drop faults still armed (test/report introspection).
    pub fn drops_armed(&self) -> u64 {
        self.shared.drop_next.load(Ordering::Relaxed)
    }

    /// Sever the egress link `link → link+1`. Packets injected while the
    /// link is down are truncated at the break: nodes upstream of it
    /// keep the write, nodes downstream never see it.
    pub fn break_link(&self, link: usize) {
        assert!(link < self.shared.n, "link {link} out of range");
        self.shared.broken_links.set(link, true);
    }

    /// Restore a severed link. Banks downstream of the break have missed
    /// all truncated traffic in between — exactly like a re-spliced
    /// fiber; no replay happens in hardware.
    pub fn heal_link(&self, link: usize) {
        assert!(link < self.shared.n, "link {link} out of range");
        self.shared.broken_links.set(link, false);
    }

    /// True if the egress link `link → link+1` is currently severed.
    pub fn is_link_broken(&self, link: usize) -> bool {
        self.shared.broken_links.get(link)
    }

    /// `node`'s current hardware segment map: which peers its traffic
    /// can reach (and, symmetrically within a segment, whose traffic
    /// can reach it). Lets a protocol layer distinguish "peer dead"
    /// from "peer unreachable" when the ring is segmented.
    pub fn reachable_set(&self, node: usize) -> ReachabilitySet {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.reachability_from(node)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> RingStats {
        self.shared.stats.snapshot()
    }

    /// Conflicting-writer records `(addr, earlier, later)` seen so far.
    /// Empty unless provenance tracking is on and two nodes wrote one word.
    pub fn conflicts(&self) -> Vec<(WordAddr, usize, usize)> {
        self.shared.state().conflicts.clone()
    }

    /// Clone of the shared core, for hierarchy wiring.
    pub(crate) fn shared_handle(&self) -> Arc<RingShared> {
        Arc::clone(&self.shared)
    }

    /// Inject a packet as if sourced by `node`'s NIC hardware at virtual
    /// time `t`: the write replicates around the ring with full link
    /// occupancy and per-hop latency, but no host process is involved
    /// and no PIO cost is charged — exactly the staging-complete step of
    /// a DMA transfer. Traffic generators and replay harnesses use this
    /// to drive broadcast load from event context. The packet carries a
    /// copy of `data`: the caller's `Arc` is only borrowed.
    pub fn source_packet(&self, node: usize, t: Time, addr: WordAddr, data: Arc<Vec<Word>>) {
        assert!(node < self.shared.n, "node {node} out of range");
        self.shared.inject(node, t, addr, &data);
    }

    /// Record every bank apply on `node` — source writes and replicated
    /// transit writes alike — into the returned shared log, as
    /// [`Delivery`] records: the node's observable *delivered message
    /// stream* (test harnesses only). Installs `node`'s apply tap, and a
    /// node has one.
    ///
    /// # Panics
    ///
    /// If `node` already has a tap — a second recording, or a bridge
    /// slot of a [`crate::RingHierarchy`], whose forwarding is its tap.
    pub fn record_deliveries(&self, node: usize) -> Arc<Mutex<Vec<Delivery>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        self.shared.set_tap(
            node,
            Box::new(move |writer, addr, data, t| {
                sink.lock().push(Delivery {
                    time: t,
                    writer,
                    addr,
                    data: data.to_vec(),
                });
            }),
        );
        log
    }

    /// Snapshot of `node`'s entire bank (test helper).
    pub fn snapshot(&self, node: usize) -> Vec<Word> {
        self.shared.bank(node).snapshot()
    }

    /// Last writer of `addr` on `node`'s bank (None if never written or
    /// provenance tracking is off).
    pub fn provenance(&self, node: usize, addr: WordAddr) -> Option<crate::WriteRecord> {
        self.shared.bank(node).provenance(addr)
    }
}

impl RingShared {
    /// Inject a contiguous write of `data` at `addr` from `src`, ready for
    /// transmission at `t_ready`. Applies to the source bank immediately
    /// (the host wrote through its own NIC memory) and schedules the
    /// replicated applies around the ring, which read the copy of `data`
    /// the packet's pooled plan carries.
    pub fn inject(self: &Arc<Self>, src: usize, t_ready: Time, addr: WordAddr, data: &[Word]) {
        let writer = self.node_ids[src];
        self.inject_as(src, writer, t_ready, addr, data);
    }

    /// Inject on behalf of `writer` (a global id) — the bridge
    /// re-injection path of [`crate::RingHierarchy`].
    pub fn inject_as(
        self: &Arc<Self>,
        src: usize,
        writer: usize,
        t_ready: Time,
        addr: WordAddr,
        data: &[Word],
    ) {
        let words = data.len();
        if words == 0 {
            return;
        }
        let mode = self.mode();
        let span = Span::new(addr, words, self.words);
        self.hop(src, span, data, writer, t_ready);
        self.stats.injections.add(1);
        self.stats.words_carried.add(words as u64);
        let ser = self.cost.serialize_ns(words, mode);
        {
            let rec = self.handle.recorder();
            rec.count(t_ready, NO_NODE, "ring.packets", 1);
            rec.count(t_ready, NO_NODE, "ring.words", words as u64);
        }
        let bypassed = self.bypassed.snapshot();
        if bypassed.get(src) {
            // A bypassed node's host cannot inject: its NIC is out of the
            // ring. The local write still happened (host sees its own
            // memory) but nothing replicates — mirrors real bypass.
            return;
        }
        if self.silenced.get(src) {
            // A silenced (crashed) host injects nothing, but its NIC is
            // still inserted: the ring pays full hop latency across it
            // and its bank keeps receiving. The local apply above models
            // the host's last store reaching its own card.
            self.stats.silenced_drops.add(1);
            self.handle
                .recorder()
                .count(t_ready, NO_NODE, "ring.silenced_drops", 1);
            return;
        }
        let armed = self.drop_next.load(Ordering::Relaxed);
        if armed > 0 {
            // One event entity runs at a time, so load+store is race-free.
            self.drop_next.store(armed - 1, Ordering::Relaxed);
            self.stats.packets_dropped.add(1);
            self.handle
                .recorder()
                .count(t_ready, NO_NODE, "ring.drops", 1);
            return;
        }
        let broken = self.broken_links.snapshot();
        // The current trace id of the writing node tags the packet —
        // read only when tracing is enabled, so the disabled path stays
        // one relaxed load.
        let trace = {
            let rec = self.handle.recorder();
            if rec.is_enabled() {
                rec.current_trace(writer as u32)
            } else {
                0
            }
        };
        // Compute the packet's full itinerary synchronously: link
        // occupancy must be claimed at inject time (deferring it to hop
        // fire time would change virtual timing under contention). The
        // ring's state is held only around this computation and the
        // packet's place in its source's chain — no stats, no recorder
        // calls inside it, and only the reservation of a packet that waits
        // in its source's FIFO enters the scheduler, whose core never takes
        // this lock (state, then core).
        let mut busy_ns = ser;
        let mut truncated = false;
        // Telemetry locals captured under the lock, gauged after it
        // (the lock stays free of recorder calls).
        let src_backlog;
        let src_horizon;
        let (plan, span_end) = {
            let mut state = self.state();
            let RingState {
                links,
                plan_pools,
                chains,
                staged: runs,
                ..
            } = &mut *state;
            runs.clear();
            let mut head = t_ready.max(links[src]);
            src_backlog = head - t_ready;
            links[src] = head + ser;
            src_horizon = links[src] - t_ready;
            // Walk the ring; the packet is removed when it returns to src.
            let mut hop_from = src;
            let mut span_end = head + ser;
            let mut hops = 0u8;
            // When the last hop so far applies.
            let mut last = 0;
            // Where and when the open run's next hop would be: a hop there
            // and then gains the run a hop, any other opens a run.
            let mut run_on = (src, 0);
            loop {
                let next = if broken.get(hop_from) {
                    if !self.segment_wrap {
                        // The packet dies at the severed link: everything
                        // planned so far still applies, the rest never
                        // will.
                        truncated = true;
                        break;
                    }
                    // Dual-ring wrap: the packet loops back over the
                    // counter-rotating ring to the head of src's segment
                    // and keeps replicating from there. At most one wrap
                    // per packet: the links between the segment head and
                    // src are unbroken by construction, so the walk ends
                    // when it comes back around to src.
                    self.segment_start(src, &broken)
                } else {
                    self.next(hop_from)
                };
                if next == src {
                    break;
                }
                if bypassed.get(next) {
                    // Bypass switch: no bank, no egress queueing.
                    head += BYPASS_HOP_NS;
                } else {
                    let arrive_head = head + self.cost.hop_ns;
                    let tail = arrive_head + ser;
                    match runs.last_mut() {
                        Some(count) if (next, tail) == run_on => *count += RUN_HOP,
                        _ => {
                            runs.extend(split(tail));
                            runs.push(next as Word | RUN_HOP);
                        }
                    }
                    hops += 1;
                    last = tail;
                    run_on = (self.next(next), tail + self.cost.hop_ns);
                    // Forwarding occupies this node's egress too (every
                    // packet traverses every link: aggregate throughput =
                    // link rate).
                    let depart = arrive_head.max(links[next]);
                    links[next] = depart + ser;
                    busy_ns += ser;
                    span_end = tail.max(depart + ser);
                    head = depart;
                }
                hop_from = next;
            }
            if hops == 0 {
                // No bank hears it: it takes no buffer.
                (None, span_end)
            } else {
                // The first run's time is the series' and its word leads;
                // the trace id follows it only when there is one.
                let (traced, rest) = (trace != 0, &runs[RUN_WORDS..]);
                let lead = 1 + TRACE_WORDS * usize::from(traced);
                let at = lead + rest.len();
                let first = runs[2] | if traced { TRACED } else { 0 };
                let trace_words = &split(trace)[..lead - 1];
                let first_t = join(&runs[..2]);
                let writer = u32::try_from(writer).expect("a writer's global id fits 32 bits");
                let len = u32::try_from(words).expect("a packet's words fit 32 bits");
                let run_count =
                    u8::try_from(runs.len() / RUN_WORDS).expect("at most one run a hop");
                let chain = &mut chains[src];
                let fits = RECORD_WORDS + at + words <= Fifo::MAX_WORDS
                    && first_t >> RECORD_TIME_BITS == 0;
                match (chain.last, Word::try_from(addr)) {
                    (Some(ahead), Ok(addr)) if ahead <= first_t && fits => {
                        // Behind its source's chain: it waits as a record.
                        let seq = self.handle.reserve_series(u64::from(hops)).into_raw();
                        let [k0, k1, k2] = key_words(first_t, seq);
                        let header = [k0, k1, k2, addr, writer];
                        let counts = u16::from_le_bytes([hops, run_count]);
                        chain
                            .fifo
                            .push(counts, &[&header, &[first], trace_words, rest, data]);
                        chain.last = Some(last);
                        #[cfg(test)]
                        self.booked[2].add(1);
                        (None, span_end)
                    }
                    (ahead, _) => {
                        let head = ahead.is_none();
                        if head {
                            chain.last = Some(last);
                        }
                        #[cfg(test)]
                        self.booked[usize::from(!head)].add(1);
                        let mut buf = plan_pools.take(at + words);
                        buf[0] = first;
                        buf[1..lead].copy_from_slice(trace_words);
                        buf[lead..at].copy_from_slice(rest);
                        buf[at..at + words].copy_from_slice(data);
                        let plan = HopPlan {
                            buf,
                            addr,
                            writer,
                            len,
                            hops,
                            runs: run_count,
                            next: 0,
                            src: src as u8,
                            head,
                        };
                        (Some((plan, first_t)), span_end)
                    }
                }
            }
        };
        self.stats.link_busy_ns.add(busy_ns);
        {
            // Per-node FIFO occupancy (queueing our packet saw before
            // serializing) and per-link booked horizon (utilization
            // backlog on this node's egress link). One relaxed load
            // when telemetry is off.
            let rec = self.handle.recorder();
            if rec.telemetry_on() {
                rec.gauge(t_ready, src as u32, "ring.fifo_backlog_ns", src_backlog);
                rec.gauge(t_ready, src as u32, "ring.link_horizon_ns", src_horizon);
            }
        }
        if truncated {
            self.stats.link_truncations.add(1);
            self.handle
                .recorder()
                .count(t_ready, NO_NODE, "ring.truncations", 1);
        }
        if let Some((plan, first_t)) = plan {
            // One series of transit events walks the whole itinerary, each
            // hop returning the next. Its tie-break values are taken here
            // and now — as a waiting packet's are, under the lock — so the
            // pop order is identical to the old engine, which pushed every
            // hop's event here and now.
            let links = u64::from(plan.hops);
            let shared = Arc::clone(self);
            self.handle
                .schedule_series(first_t, links, move |link| shared.transit(plan, link));
        }
        // The packet's whole ring transit as one hardware-track span. The
        // exit time is computed synchronously, so the enter/exit pair is
        // adjacent in the log even though the applies are still scheduled.
        let rec = self.handle.recorder();
        if rec.is_enabled() {
            if trace != 0 {
                rec.lifecycle_hot(
                    t_ready,
                    writer as u32,
                    trace,
                    Stage::RingInject,
                    words as u64,
                );
            }
            rec.span_enter(t_ready, NO_NODE, Layer::Ring, "packet");
            rec.span_exit(span_end, NO_NODE, Layer::Ring, "packet");
        }
    }

    /// Fire a packet's hops from `plan.next` on, as `link`: each hop that
    /// is the next entry due runs here, in this call ([`Link::next`]), and
    /// the first that is not is returned, to be queued. The closure of a
    /// returned hop is the `Arc<RingShared>`, moved from hop to hop, and
    /// the plan's header by value — the scheduler's inline-closure budget
    /// exactly, checked where [`HopPlan`] is declared — so a full transit
    /// allocates nothing once its class's pool and the queue are warm.
    /// Every hop reads the payload in the plan's buffer and applies it
    /// without the ring's lock; the last enters the ring's state once,
    /// after the tap has read the payload: a chain's head there takes the
    /// next record of its source's FIFO and returns that packet's first hop
    /// on its reservation ([`Then::reserved`]), in the same buffer when it is
    /// of the record's class; any other buffer goes back to its class's
    /// pool ([`RingState::retire`]).
    fn transit(self: Arc<Self>, mut plan: HopPlan, link: &mut Link<'_>) -> Option<Then> {
        #[cfg(test)]
        self.transit_calls.add(1);
        // The packet's own: the plan is this packet's alone, moved from
        // hop to hop, so nothing a hop runs — a watch, a tap, a nested
        // inject — can change them between two hops. Every hop stores the
        // same span into a bank of the same size, so it is checked and
        // split at its page once, here.
        let (writer, trace) = (plan.writer as usize, plan.trace());
        let span = Span::new(plan.addr, plan.payload().len(), self.words);
        let (mut run, mut node, mut left) = self.resume(&plan);
        loop {
            plan.next += 1;
            let t = link.now();
            self.hop(node, span, plan.payload(), writer, t);
            if trace != 0 {
                self.handle.recorder().lifecycle_hot(
                    t,
                    self.node_ids[node] as u32,
                    trace,
                    Stage::RingHop,
                    node as u64,
                );
            }
            if plan.next == plan.hops {
                break;
            }
            // The next node, `hop_ns` on, unless this hop ended its run.
            let mut next_t = t + self.cost.hop_ns;
            node = self.next(node);
            left -= 1;
            if left == 0 {
                run += 1;
                ((node, left), next_t) = (plan.run(run), plan.start(run));
            }
            if !link.next(next_t) {
                return Some(Then::at(next_t, move |link| self.transit(plan, link)));
            }
        }
        let (next, at, reserved) = self.state().retire(plan)?;
        Some(Then::reserved(reserved, at, move |link| {
            self.transit(next, link)
        }))
    }

    /// Where `plan`'s next hop is: its run, its node, and the hops of its
    /// run from it on. A run's nodes follow one another round the ring, so
    /// the `k`th after its first is `k` on, wrapped once.
    fn resume(&self, plan: &HopPlan) -> (usize, usize, u8) {
        let (mut run, mut skip) = (0, plan.next);
        loop {
            let (first, hops) = plan.run(run);
            if skip < hops {
                let node = first + usize::from(skip);
                let node = if node < self.n { node } else { node - self.n };
                return (run, node, hops - skip);
            }
            skip -= hops;
            run += 1;
        }
    }

    /// One hop: `data` lands at `span` in `node`'s bank at `t`. In order,
    /// the bit-error countdown (transit only: the writer's own bank was
    /// written over the bus), the page store, the provenance record when
    /// it is tracked, then what the apply does beyond the bank — count a
    /// corrupted one, fire the interrupt watches it covers, and call the
    /// node's tap with what the bank got. Inlined into the hop loop and
    /// the inject: it takes no lock unless a flip lands (the error
    /// stream's), a tracked write finds another writer's word (the
    /// conflict log's), or a watch or tap is installed; the watches and
    /// the tap record, notify and inject, so they run outside the ring's
    /// state, which is a leaf lock.
    #[inline(always)]
    fn hop(&self, node: usize, span: Span, data: &[Word], writer: usize, t: Time) {
        let corrupted = match &self.errors {
            Some(err) if node != writer => err.corrupt(data),
            _ => None,
        };
        let data = corrupted.as_deref().unwrap_or(data);
        let bank = self.bank(node);
        bank.store(span, data);
        if bank.tracked() {
            self.record(bank, span, writer, t);
        }
        if corrupted.is_some() {
            self.stats.bit_errors.add(1);
            self.handle
                .recorder()
                .count(t, self.node_ids[node] as u32, "ring.bit_errors", 1);
        }
        if self.watch_count.load(Ordering::Relaxed) > 0 {
            self.fire_watches(node, span.addr(), span.addr() + data.len(), t);
        }
        if self.tap_count.load(Ordering::Relaxed) > 0 {
            if let Some(tap) = &self.taps.lock()[node] {
                tap(writer, span.addr(), data, t);
            }
        }
    }

    /// Record `writer` on `span`'s words in `bank`, logging a conflict
    /// for each word another writer wrote last.
    #[cold]
    fn record(&self, bank: &Bank, span: Span, writer: usize, t: Time) {
        let mut state = None;
        bank.record(span, writer, t, |a, earlier| {
            let state = state.get_or_insert_with(|| self.state());
            state.conflicts.push((a, earlier, writer));
        });
    }

    /// Notify every watch on `node` that `addr..end` overlaps.
    #[inline(never)]
    fn fire_watches(&self, node: usize, addr: WordAddr, end: WordAddr, t: Time) {
        let watches = self.watches.lock();
        for w in &watches[node] {
            if addr < w.end && w.start < end {
                self.stats.interrupts.add(1);
                self.handle
                    .recorder()
                    .count(t, self.node_ids[node] as u32, "ring.interrupts", 1);
                w.signal.notify_at(t + INTERRUPT_DISPATCH_NS);
            }
        }
    }

    /// `node`'s bank, for reading or applying. Replicated memory is the one
    /// thing every host and every hop event shares, so a process still
    /// owing charged time must not be looking at it.
    pub(crate) fn bank(&self, node: usize) -> &Bank {
        self.handle.assert_settled("a bank access");
        &self.banks[node]
    }

    /// The ring's state: the link horizons, the plan pools, the sources'
    /// chains, the conflict log.
    fn state(&self) -> MutexGuard<'_, RingState> {
        #[cfg(test)]
        self.state_entries.add(1);
        self.state.lock()
    }

    /// The node downstream of `node`: the ring's walk, by compare and
    /// wrap, not a division.
    fn next(&self, node: usize) -> usize {
        Some(node + 1).filter(|&next| next < self.n).unwrap_or(0)
    }

    /// The node upstream of `node`.
    fn prev(&self, node: usize) -> usize {
        node.checked_sub(1).unwrap_or(self.n - 1)
    }

    /// True unless `node` is currently bypassed. This is the only
    /// liveness signal the hardware exposes — a stalled host whose
    /// insertion register is switched out looks exactly like a dead one.
    /// A *silenced* host (crashed behind a live NIC) still reads as in
    /// the ring here; only heartbeat detection can expose it.
    pub(crate) fn node_in_ring(&self, node: usize) -> bool {
        !self.bypassed.get(node)
    }

    /// First node of `node`'s segment: the node just downstream of the
    /// nearest broken link found scanning backward from `node`. Only
    /// meaningful when at least one link is broken (otherwise the scan
    /// walks the full circle and lands back on an arbitrary node).
    fn segment_start(&self, node: usize, broken: &BypassSnapshot) -> usize {
        let mut start = node;
        for _ in 0..self.n {
            let prev = self.prev(start);
            if broken.get(prev) {
                break;
            }
            start = prev;
        }
        start
    }

    /// The current [`ReachabilitySet`] of `node`: its ring segment under
    /// the broken-link map (a lone cut leaves one segment — the wrap
    /// routes around it; a pair of cuts yields two), minus bypassed
    /// NICs, plus always the node itself.
    pub(crate) fn reachability_from(&self, node: usize) -> ReachabilitySet {
        let broken = self.broken_links.snapshot();
        let bypassed = self.bypassed.snapshot();
        let mut set = ReachabilitySet::default();
        if !broken.any() {
            for p in 0..self.n {
                if !bypassed.get(p) {
                    set.insert(p);
                }
            }
        } else {
            let start = self.segment_start(node, &broken);
            let mut cur = start;
            loop {
                if !bypassed.get(cur) {
                    set.insert(cur);
                }
                if broken.get(cur) {
                    // `cur`'s egress is the cut closing the segment.
                    break;
                }
                let next = self.next(cur);
                if next == start {
                    break;
                }
                cur = next;
            }
        }
        set.insert(node);
        set
    }

    /// Flip `node`'s insertion register from host software — the failure
    /// detector engaging (or a rejoining host releasing) the bypass.
    pub(crate) fn set_bypassed(&self, node: usize, on: bool) {
        assert!(node < self.n, "node {node} out of range");
        self.bypassed.set(node, on);
    }

    /// Install `node`'s apply tap. A node has one: replacing a bridge's
    /// would silently cut its leaf off the backbone.
    pub(crate) fn set_tap(&self, node: usize, tap: Tap) {
        let mut taps = self.taps.lock();
        assert!(
            taps[node].is_none(),
            "node {node} already has an apply tap: a bridge slot forwards through \
             its own, and a node's deliveries are recorded once"
        );
        taps[node] = Some(tap);
        self.tap_count.add(1);
    }

    pub fn add_watch(&self, node: usize, start: WordAddr, end: WordAddr, signal: Signal) {
        self.watches.lock()[node].push(Watch { start, end, signal });
        self.watch_count.add(1);
    }

    pub fn clear_watches(&self, node: usize) {
        let removed = {
            let mut watches = self.watches.lock();
            let n = watches[node].len();
            watches[node].clear();
            n
        };
        self.watch_count
            .fetch_sub(removed as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;

    fn quiet_ring(sim: &Simulation, n: usize) -> Ring {
        Ring::new(&sim.handle(), n, 4096, CostModel::default())
    }

    #[test]
    fn local_write_is_immediately_visible_locally() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 2);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 7, 42);
            assert_eq!(nic.read_word(ctx, 7), 42);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn write_replicates_to_all_nodes_in_hop_order() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 0, 9));
        sim.run();
        for node in 0..4 {
            assert_eq!(ring.snapshot(node)[0], 9, "node {node}");
        }
    }

    #[test]
    fn replication_arrival_times_increase_with_distance() {
        let mut sim = Simulation::new();
        let cfg = RingConfig {
            track_provenance: true,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 4, 64, CostModel::default(), cfg);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 3, 1));
        sim.run();
        let t1 = ring.provenance(1, 3).unwrap().applied_at;
        let t2 = ring.provenance(2, 3).unwrap().applied_at;
        let t3 = ring.provenance(3, 3).unwrap().applied_at;
        assert!(
            t1 < t2 && t2 < t3,
            "arrivals must be ordered: {t1} {t2} {t3}"
        );
        let c = CostModel::default();
        assert_eq!(t2 - t1, c.hop_ns, "per-hop spacing on a quiet ring");
    }

    #[test]
    fn per_source_fifo_is_preserved() {
        // Two writes from the same source to the same word: every node
        // must end with the second value.
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 5, 1);
            nic.write_word(ctx, 5, 2);
        });
        sim.run();
        for node in 0..3 {
            assert_eq!(ring.snapshot(node)[5], 2, "node {node}");
        }
    }

    #[test]
    fn non_coherence_concurrent_writers_can_disagree_in_time() {
        // Nodes 0 and 2 write the same word at the same instant on a
        // 4-node ring. Node 1 sees 0's write first (1 hop) then 2's
        // (3 hops); node 3 the reverse. Final banks converge to the last
        // *applied* value per node, which differs — exactly the paper's
        // warning. We only assert that both values were observed and the
        // conflict checker caught it.
        let mut sim = Simulation::new();
        let cfg = RingConfig {
            track_provenance: true,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 4, 64, CostModel::default(), cfg);
        let a = ring.nic(0);
        let b = ring.nic(2);
        sim.spawn("a", move |ctx| a.write_word(ctx, 9, 100));
        sim.spawn("b", move |ctx| b.write_word(ctx, 9, 200));
        sim.run();
        let finals: Vec<Word> = (0..4).map(|n| ring.snapshot(n)[9]).collect();
        assert!(finals.contains(&100) && finals.contains(&200), "{finals:?}");
        assert!(
            !ring.conflicts().is_empty(),
            "checker must flag the dual writer"
        );
    }

    #[test]
    fn single_writer_traffic_reports_no_conflicts() {
        let mut sim = Simulation::new();
        let cfg = RingConfig {
            track_provenance: true,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 3, 64, CostModel::default(), cfg);
        for node in 0..3 {
            let nic = ring.nic(node);
            sim.spawn(format!("w{node}"), move |ctx| {
                for i in 0..5 {
                    nic.write_word(ctx, node * 16 + i, i as Word);
                }
            });
        }
        sim.run();
        assert!(ring.conflicts().is_empty());
    }

    #[test]
    fn bypassed_node_misses_traffic_and_ring_still_works() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        ring.bypass_node(2);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 1, 77));
        sim.run();
        assert_eq!(ring.snapshot(1)[1], 77);
        assert_eq!(ring.snapshot(3)[1], 77);
        assert_eq!(ring.snapshot(2)[1], 0, "bypassed bank missed the write");
    }

    #[test]
    fn bypassed_source_cannot_replicate() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        ring.bypass_node(0);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 1, 5);
            assert_eq!(nic.read_word(ctx, 1), 5, "local memory still works");
        });
        sim.run();
        assert_eq!(ring.snapshot(1)[1], 0);
        assert_eq!(ring.snapshot(2)[1], 0);
    }

    #[test]
    fn silenced_source_keeps_receiving_but_cannot_replicate() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        ring.silence_node(1);
        let a = ring.nic(0);
        let b = ring.nic(1);
        sim.spawn("a", move |ctx| a.write_word(ctx, 0, 7));
        sim.spawn("b", move |ctx| {
            ctx.advance(10);
            b.write_word(ctx, 1, 9);
            assert_eq!(b.read_word(ctx, 1), 9, "local memory still works");
            // The hardware liveness signal cannot see a silent crash.
            assert!(b.peer_alive(0));
        });
        sim.run();
        // Node 1's bank received 0's write; 1's own write went nowhere.
        assert_eq!(ring.snapshot(1)[0], 7);
        assert_eq!(ring.snapshot(0)[1], 0);
        assert_eq!(ring.snapshot(2)[1], 0);
        assert_eq!(ring.stats().silenced_drops, 1);
        assert!(ring.is_silenced(1));
        ring.unsilence_node(1);
        assert!(!ring.is_silenced(1));
    }

    #[test]
    fn silenced_node_still_costs_full_hop_latency() {
        // Unlike bypass, silence does not heal the ring: the dead host's
        // NIC is still inserted, so transit across it pays `hop_ns`.
        let time_to_node3 = |silence: bool, bypass: bool| {
            let mut sim = Simulation::new();
            let cfg = RingConfig {
                track_provenance: true,
                ..Default::default()
            };
            let ring = Ring::with_config(&sim.handle(), 4, 64, CostModel::default(), cfg);
            if silence {
                ring.silence_node(2);
            }
            if bypass {
                ring.bypass_node(2);
            }
            let nic = ring.nic(0);
            sim.spawn("w", move |ctx| nic.write_word(ctx, 3, 1));
            sim.run();
            ring.provenance(3, 3).unwrap().applied_at
        };
        let healthy = time_to_node3(false, false);
        let silenced = time_to_node3(true, false);
        let bypassed = time_to_node3(false, true);
        assert_eq!(silenced, healthy, "silence must not change transit time");
        assert!(bypassed < healthy, "bypass heals the hop latency");
    }

    #[test]
    fn interrupt_watch_fires_on_covering_write() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 2);
        let rx = ring.nic(1);
        let tx = ring.nic(0);
        let sig = sim.handle().new_signal();
        rx.watch(8..16, sig.clone());
        sim.spawn("rx", move |ctx| {
            ctx.wait(&sig);
            assert!(ctx.now() > 0);
            assert_eq!(rx.read_word(ctx, 8), 3);
        });
        sim.spawn("tx", move |ctx| tx.write_word(ctx, 8, 3));
        let report = sim.run();
        assert!(report.is_clean(), "blocked: {:?}", report.deadlocked);
        assert_eq!(ring.stats().interrupts, 1);
    }

    #[test]
    fn interrupt_watch_ignores_writes_outside_range() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 2);
        let rx = ring.nic(1);
        let tx = ring.nic(0);
        let sig = sim.handle().new_signal();
        rx.watch(8..16, sig);
        sim.spawn("tx", move |ctx| tx.write_word(ctx, 20, 3));
        sim.run();
        assert_eq!(ring.stats().interrupts, 0);
    }

    #[test]
    fn link_contention_serializes_concurrent_injections() {
        // Two senders inject big blocks at t=0; aggregate delivery time
        // must reflect the shared ring bandwidth, not 2× the link rate.
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        let words = 250usize; // ~1 KB each
        for node in [0usize, 1] {
            let nic = ring.nic(node);
            let base = 512 * (node + 1);
            sim.spawn(format!("w{node}"), move |ctx| {
                let data: Vec<Word> = (0..words as Word).collect();
                nic.write_block(ctx, base, &data);
            });
        }
        let report = sim.run();
        let c = CostModel::default();
        let one_block_ser = c.serialize_ns(words, TxMode::Fixed4);
        // Both blocks must fully traverse; the last apply cannot be before
        // two serializations back-to-back on the contended link.
        assert!(
            report.end_time > 2 * one_block_ser,
            "end {} vs 2×ser {}",
            report.end_time,
            2 * one_block_ser
        );
        assert_eq!(ring.snapshot(3)[512], 0u32.wrapping_add(0));
        assert_eq!(ring.snapshot(3)[512 + words - 1], (words - 1) as Word);
        assert_eq!(ring.snapshot(2)[1024 + words - 1], (words - 1) as Word);
    }

    #[test]
    fn stats_count_injections_and_words() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 2);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 0, 1);
            nic.write_block(ctx, 10, &[1, 2, 3, 4]);
        });
        sim.run();
        let s = ring.stats();
        assert_eq!(s.injections, 2);
        assert_eq!(s.words_carried, 5);
        assert!(s.link_busy_ns > 0);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn one_node_ring_rejected() {
        let sim = Simulation::new();
        let _ = Ring::new(&sim.handle(), 1, 64, CostModel::default());
    }

    #[test]
    fn source_packet_replicates_without_processes() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 4, 64, CostModel::default());
        let r = ring.clone();
        sim.handle().schedule_at(500, move |t| {
            r.source_packet(1, t, 10, vec![0xDEAD, 0xBEEF].into());
        });
        assert!(sim.run().is_clean());
        for node in 0..4 {
            let snap = ring.snapshot(node);
            assert_eq!(snap[10], 0xDEAD, "node {node}");
            assert_eq!(snap[11], 0xBEEF, "node {node}");
        }
        assert_eq!(ring.stats().injections, 1);
    }

    #[test]
    fn a_packets_hops_enter_the_ring_state_once() {
        let mut sim = Simulation::new();
        let cfg = RingConfig {
            track_provenance: true,
            bit_error_rate: 0.01,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 16, 64, CostModel::default(), cfg);
        let r = ring.clone();
        sim.handle().schedule_at(10, move |t| {
            r.source_packet(0, t, 0, vec![7; 16].into());
        });
        let entries = || ring.shared.state_entries.load(Ordering::Relaxed);
        sim.run_until(10);
        assert_eq!(entries(), 1, "the inject's link walk");
        assert!(sim.run().is_clean());
        // Fifteen applies, flips among them, each taking no lock of the
        // ring's; then the plan's return to the pool.
        assert_eq!(entries(), 2, "{:?}", ring.stats());
        assert!(ring.stats().bit_errors > 0, "{:?}", ring.stats());
        assert!(ring.conflicts().is_empty());
        assert!((1..16).all(|node| ring.provenance(node, 15).is_some()));
    }

    /// Calls of `transit` so far.
    fn transit_calls(shared: &RingShared) -> u64 {
        shared.transit_calls.load(Ordering::Relaxed)
    }

    #[test]
    fn a_lone_packets_hops_are_one_call() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 16);
        let r = ring.clone();
        sim.handle().schedule_at(10, move |t| {
            r.source_packet(0, t, 0, vec![7; 16].into());
        });
        let report = sim.run();
        assert_eq!(report.dispatches, 1 + 15, "the inject, then every hop");
        assert_eq!(transit_calls(&ring.shared), 1, "fifteen hops, one call");
    }

    /// Two one-word packets on 16 nodes, sourced by one event from nodes 0
    /// and 8: the second leaves node 8 behind the first, whose pass booked
    /// its link, so the first's eleven first hops come before the second's
    /// first, the two then alternate, and the second's last eleven come
    /// after the first's last. Each packet's hops run in one call until the
    /// other's comes between them, and a new call starts exactly there.
    #[test]
    fn interleaved_packets_split_where_the_other_comes_between() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 16);
        let hops = Arc::new(Mutex::new(Vec::new()));
        for node in 0..16 {
            let (hops, shared) = (Arc::clone(&hops), Arc::clone(&ring.shared));
            ring.shared.set_tap(
                node,
                Box::new(move |writer, _, _, _| {
                    if writer != node {
                        hops.lock().push((writer, transit_calls(&shared)));
                    }
                }),
            );
        }
        let r = ring.clone();
        sim.handle().schedule_at(0, move |t| {
            r.source_packet(0, t, 0, vec![1].into());
            r.source_packet(8, t, 1, vec![2].into());
        });
        assert!(sim.run().is_clean());
        let hops = hops.lock();
        let writers: Vec<usize> = hops.iter().map(|&(writer, _)| writer).collect();
        let mut want = vec![0; 11];
        for _ in 0..4 {
            want.extend([8, 0]);
        }
        want.extend([8; 11]);
        assert_eq!(writers, want);
        for pair in hops.windows(2) {
            let [(was, call), (is, next)] = [pair[0], pair[1]];
            assert_eq!(next == call, is == was, "{pair:?}");
        }
        assert_eq!(transit_calls(&ring.shared), 10, "one call per run of hops");
    }

    /// One 8-word packet on a 4-node ring configured with `config`: its
    /// bit errors.
    fn flips(config: RingConfig) -> u64 {
        let mut sim = Simulation::new();
        let ring = Ring::with_config(&sim.handle(), 4, 64, CostModel::default(), config);
        let r = ring.clone();
        sim.handle().schedule_at(10, move |t| {
            r.source_packet(0, t, 0, vec![7; 8].into());
        });
        assert!(sim.run().is_clean());
        ring.stats().bit_errors
    }

    fn rate(bit_error_rate: f64) -> RingConfig {
        RingConfig {
            bit_error_rate,
            ..Default::default()
        }
    }

    #[test]
    fn the_ends_of_the_error_rate_are_rates() {
        assert_eq!(flips(rate(0.0)), 0);
        assert_eq!(flips(rate(1.0)), 3, "every replica's apply");
    }

    #[test]
    #[should_panic(expected = "RingConfig::bit_error_rate is NaN")]
    fn a_nan_error_rate_is_refused() {
        flips(rate(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "RingConfig::bit_error_rate is -0.5")]
    fn a_negative_error_rate_is_refused() {
        flips(rate(-0.5));
    }

    #[test]
    #[should_panic(expected = "RingConfig::bit_error_rate is 2")]
    fn an_error_rate_above_one_is_refused() {
        flips(rate(2.0));
    }

    #[test]
    fn a_rate_too_small_to_change_one_minus_rate_flips_nothing() {
        // `1.0 - rate` rounds to 1.0 below ≈ 1.1e-16, so the gap's divisor
        // is 0: such a gap is "never", not "every word".
        for rate in [1e-17, 1e-12] {
            let mut sim = Simulation::new();
            let cfg = RingConfig {
                bit_error_rate: rate,
                error_seed: 7,
                ..Default::default()
            };
            let ring = Ring::with_config(&sim.handle(), 4, 4096, CostModel::default(), cfg);
            for i in 0..100 {
                let r = ring.clone();
                sim.handle().schedule_at(i * 1_000, move |t| {
                    r.source_packet(0, t, 16 * (i as usize % 8), vec![i as Word; 16].into());
                });
            }
            assert!(sim.run().is_clean());
            let stats = ring.stats();
            assert_eq!(
                (stats.injections, stats.bit_errors),
                (100, 0),
                "rate {rate}"
            );
        }
    }

    #[test]
    fn armed_drop_loses_exactly_n_packets() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        ring.arm_drop(2);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 0, 1); // dropped
            nic.write_word(ctx, 1, 2); // dropped
            nic.write_word(ctx, 2, 3); // delivered
        });
        sim.run();
        let snap = ring.snapshot(1);
        assert_eq!(&snap[0..3], &[0, 0, 3], "first two writes lost on wire");
        // The source bank saw every write.
        assert_eq!(&ring.snapshot(0)[0..3], &[1, 2, 3]);
        assert_eq!(ring.stats().packets_dropped, 2);
        assert_eq!(ring.drops_armed(), 0);
    }

    #[test]
    fn broken_link_truncates_transit_at_the_break() {
        // 4 nodes, writer 0, link 1→2 severed: node 1 gets the write,
        // nodes 2 and 3 never do.
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        ring.break_link(1);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 7, 9));
        sim.run();
        assert_eq!(ring.snapshot(1)[7], 9, "upstream of the break");
        assert_eq!(ring.snapshot(2)[7], 0, "downstream of the break");
        assert_eq!(ring.snapshot(3)[7], 0, "downstream of the break");
        assert_eq!(ring.stats().link_truncations, 1);
    }

    #[test]
    fn healed_link_carries_traffic_again() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        ring.break_link(0);
        assert!(ring.is_link_broken(0));
        ring.heal_link(0);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 0, 5));
        sim.run();
        assert_eq!(ring.snapshot(2)[0], 5);
        assert_eq!(ring.stats().link_truncations, 0);
    }

    #[test]
    fn broken_source_link_reaches_nobody() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 3);
        ring.break_link(0);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 0, 5));
        sim.run();
        assert_eq!(ring.snapshot(1)[0], 0);
        assert_eq!(ring.snapshot(2)[0], 0);
        assert_eq!(ring.snapshot(0)[0], 5, "local memory still works");
        assert_eq!(ring.stats().link_truncations, 1);
    }

    #[test]
    fn variable_mode_is_faster_for_large_blocks() {
        let run = |mode: TxMode| {
            let mut sim = Simulation::new();
            let cfg = RingConfig {
                mode,
                ..Default::default()
            };
            let ring = Ring::with_config(&sim.handle(), 2, 8192, CostModel::default(), cfg);
            let nic = ring.nic(0);
            sim.spawn("w", move |ctx| {
                let data = vec![7u32; 2048]; // 8 KB
                nic.write_block(ctx, 0, &data);
            });
            sim.run().end_time
        };
        let fixed = run(TxMode::Fixed4);
        let variable = run(TxMode::Variable);
        assert!(
            variable < fixed,
            "variable ({variable}) should beat fixed ({fixed}) at 8 KB"
        );
    }

    fn wrap_ring(sim: &Simulation, n: usize) -> Ring {
        let cfg = RingConfig {
            segment_wrap: true,
            ..Default::default()
        };
        Ring::with_config(&sim.handle(), n, 4096, CostModel::default(), cfg)
    }

    #[test]
    fn segment_wrap_heals_a_lone_cut() {
        // With dual-ring wrap a single severed link is routed around:
        // every bank still sees the write.
        let mut sim = Simulation::new();
        let ring = wrap_ring(&sim, 4);
        ring.break_link(1);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 7, 9));
        sim.run();
        for node in 1..4 {
            assert_eq!(ring.snapshot(node)[7], 9, "node {node}");
        }
    }

    #[test]
    fn segment_wrap_pair_of_cuts_isolates_the_segments() {
        // Cut links 1→2 and 4→5 on a 6-ring: segments {2,3,4} and
        // {5,0,1}. Writes stay inside the writer's segment.
        let mut sim = Simulation::new();
        let ring = wrap_ring(&sim, 6);
        ring.break_link(1);
        ring.break_link(4);
        let a = ring.nic(0); // segment {5,0,1}
        let b = ring.nic(3); // segment {2,3,4}
        sim.spawn("a", move |ctx| a.write_word(ctx, 0, 11));
        sim.spawn("b", move |ctx| b.write_word(ctx, 1, 22));
        sim.run();
        for node in [5usize, 0, 1] {
            assert_eq!(ring.snapshot(node)[0], 11, "node {node} in 0's segment");
            assert_eq!(ring.snapshot(node)[1], 0, "node {node} missed 3's write");
        }
        for node in [2usize, 3, 4] {
            assert_eq!(ring.snapshot(node)[1], 22, "node {node} in 3's segment");
            assert_eq!(ring.snapshot(node)[0], 0, "node {node} missed 0's write");
        }
    }

    #[test]
    fn segment_wrap_off_still_truncates() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        ring.break_link(1);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 7, 9));
        sim.run();
        assert_eq!(ring.snapshot(2)[7], 0, "legacy model truncates");
        assert_eq!(ring.stats().link_truncations, 1);
    }

    #[test]
    fn reachability_tracks_segments_and_bypass() {
        let sim = Simulation::new();
        let ring = wrap_ring(&sim, 6);
        // Healthy ring: everybody reaches everybody.
        let all = ring.reachable_set(0);
        assert_eq!(all.count(), 6);
        // A lone cut is healed by the wrap: still one segment.
        ring.break_link(2);
        assert_eq!(ring.reachable_set(0).count(), 6);
        // A second cut segments the ring: {3,4} and {5,0,1,2}.
        ring.break_link(4);
        let s0 = ring.reachable_set(0);
        assert_eq!(s0.count(), 4);
        for node in [5usize, 0, 1, 2] {
            assert!(s0.contains(node), "node {node}");
        }
        assert!(!s0.contains(3) && !s0.contains(4));
        let s3 = ring.reachable_set(3);
        assert_eq!(s3.count(), 2);
        assert!(s3.contains(3) && s3.contains(4));
        // Bypassed peers drop out of the set; the node itself never does.
        ring.bypass_node(1);
        let s0 = ring.reachable_set(0);
        assert!(!s0.contains(1) && s0.contains(0));
        assert!(ring.reachable_set(1).contains(1));
        // Healing both cuts restores the full set (minus the bypass).
        ring.heal_link(2);
        ring.heal_link(4);
        assert_eq!(ring.reachable_set(0).count(), 5);
    }

    /// The ring walk as first written, with `%`: `(node, apply time)` for
    /// each hop of a packet of `words` words from `src` ready at `t`, with
    /// `links` booked as the walk books them.
    #[allow(clippy::too_many_arguments)]
    fn reference_walk(
        cost: &CostModel,
        bypassed: &[bool],
        broken: &[bool],
        wrap: bool,
        links: &mut [Time],
        src: usize,
        t: Time,
        words: usize,
    ) -> Vec<(usize, Time)> {
        let (n, mut hops) = (links.len(), Vec::new());
        if bypassed[src] {
            return hops;
        }
        let ser = cost.serialize_ns(words, TxMode::Fixed4);
        let mut head = t.max(links[src]);
        links[src] = head + ser;
        let mut from = src;
        loop {
            let next = if broken[from] {
                if !wrap {
                    break;
                }
                reference_segment_start(broken, src)
            } else {
                (from + 1) % n
            };
            if next == src {
                break;
            }
            if bypassed[next] {
                head += BYPASS_HOP_NS;
            } else {
                let arrive = head + cost.hop_ns;
                hops.push((next, arrive + ser));
                let depart = arrive.max(links[next]);
                links[next] = depart + ser;
                head = depart;
            }
            from = next;
        }
        hops
    }

    /// The node after the nearest cut upstream of `node`, with `%`.
    fn reference_segment_start(broken: &[bool], node: usize) -> usize {
        let n = broken.len();
        let mut start = node;
        for _ in 0..n {
            let prev = (start + n - 1) % n;
            if broken[prev] {
                break;
            }
            start = prev;
        }
        start
    }

    /// `node`'s segment minus bypassed peers, plus itself, with `%`.
    fn reference_reachable(bypassed: &[bool], broken: &[bool], node: usize) -> Vec<usize> {
        let n = broken.len();
        let mut set = vec![node];
        if !broken.contains(&true) {
            set.extend((0..n).filter(|&p| !bypassed[p]));
        } else {
            let start = reference_segment_start(broken, node);
            let mut cur = start;
            loop {
                if !bypassed[cur] {
                    set.push(cur);
                }
                if broken[cur] || (cur + 1) % n == start {
                    break;
                }
                cur = (cur + 1) % n;
            }
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        /// The walk on irregular rings — bypassed nodes, severed links,
        /// the dual-ring wrap on or off, staggered bursts of one to four
        /// packets from random sources, so that a source's later packets
        /// wait in its FIFO or go beside it — hops where, and when, the
        /// walk written with `%` does, books the same link horizons, keeps
        /// each source's packets in order at every node, and maps the same
        /// segments. Neither the storm pins nor the benchmark ever bypass a
        /// node or sever a link.
        #[test]
        fn the_walk_matches_a_reference_walk_on_irregular_rings(
            n in 2usize..=32,
            wrap in 0u8..2,
            bypass_one_in in 2u64..=8,
            cuts in 0usize..=3,
            bursts in 1usize..=24,
            seed in any::<u64>(),
        ) {
            let mut rng = des::rng::SimRng::seeded(seed);
            let mut draw = |bound: usize| rng.below(bound as u64) as usize;
            let bypassed: Vec<bool> = (0..n).map(|_| draw(bypass_one_in as usize) == 0).collect();
            let mut broken = vec![false; n];
            for _ in 0..cuts {
                broken[draw(n)] = true;
            }
            let mut t = 0;
            let mut injects: Vec<(usize, Time, usize)> = Vec::new();
            for _ in 0..bursts {
                t += draw(4) as Time * 1_000;
                let src = draw(n);
                for _ in 0..1 + draw(4) {
                    injects.push((src, t, 1 + draw(8)));
                }
            }

            let mut sim = Simulation::new();
            let config = RingConfig { segment_wrap: wrap == 1, ..Default::default() };
            let ring = Ring::with_config(&sim.handle(), n, 128, CostModel::default(), config);
            for node in 0..n {
                if bypassed[node] {
                    ring.bypass_node(node);
                }
                if broken[node] {
                    ring.break_link(node);
                }
            }
            let logs: Vec<_> = (0..n).map(|node| ring.record_deliveries(node)).collect();
            for (i, &(src, at, words)) in injects.iter().enumerate() {
                let r = ring.clone();
                sim.handle().schedule_at(at, move |t| {
                    r.source_packet(src, t, i, vec![i as Word; words].into());
                });
            }
            prop_assert!(sim.run().is_clean());

            let cost = CostModel::default();
            let mut links = vec![0; n];
            for (i, &(src, at, words)) in injects.iter().enumerate() {
                let mut want =
                    reference_walk(&cost, &bypassed, &broken, wrap == 1, &mut links, src, at, words);
                want.sort_unstable_by_key(|&(node, t)| (t, node));
                let mut got: Vec<(usize, Time)> = (0..n)
                    .filter(|&node| node != src)
                    .flat_map(|node| {
                        logs[node]
                            .lock()
                            .iter()
                            .filter(|d| d.addr == i)
                            .map(|d| (node, d.time))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                got.sort_unstable_by_key(|&(node, t)| (t, node));
                prop_assert_eq!(got, want, "packet {} from {}", i, src);
            }
            prop_assert_eq!(ring.shared.state().links.clone(), links);
            for (node, log) in logs.iter().enumerate() {
                let order = in_order_by_source(&log.lock(), n);
                prop_assert!(order.is_ok(), "node {}: {:?}", node, order);
            }
            for node in 0..n {
                let set = ring.reachable_set(node);
                let got: Vec<usize> = (0..n).filter(|&p| set.contains(p)).collect();
                prop_assert_eq!(got, reference_reachable(&bypassed, &broken, node), "node {}", node);
            }
        }
    }

    /// `Ok` when `log` holds each writer's packets in the order they were
    /// injected (packet `i` writes at `i`); the first writer's that does
    /// not, with the addresses it got, otherwise.
    fn in_order_by_source(log: &[Delivery], n: usize) -> Result<(), (usize, Vec<usize>)> {
        for writer in 0..n {
            let addrs: Vec<usize> = log
                .iter()
                .filter(|d| d.writer == writer)
                .map(|d| d.addr)
                .collect();
            if addrs.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err((writer, addrs));
            }
        }
        Ok(())
    }

    /// What happens at one instant of [`chained_walk`]'s script.
    #[derive(Clone, Copy)]
    enum At {
        /// `words` words from the source: packet `i`, the `i`-th of the
        /// script, writes them at `i`.
        Packet(usize, usize),
        /// The node's bypass switch flips to this.
        Bypass(usize, bool),
    }

    /// Runs `script`, `(time, what)` in time order, on a quiet `n`-node
    /// ring: every packet applies where and when the reference walk says,
    /// and every node gets each source's packets in the order they were
    /// injected. Returns the packets booked as their source's head, queued
    /// beside a chain, and deferred into a FIFO.
    fn chained_walk(n: usize, script: &[(Time, At)]) -> [u64; 3] {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, n);
        let logs: Vec<_> = (0..n).map(|node| ring.record_deliveries(node)).collect();
        let (mut packets, mut bypassed) = (Vec::new(), vec![false; n]);
        for &(at, what) in script {
            let r = ring.clone();
            match what {
                At::Packet(src, words) => {
                    let i = packets.len();
                    packets.push((src, at, words, bypassed.clone()));
                    sim.handle().schedule_at(at, move |t| {
                        r.source_packet(src, t, i, vec![i as Word; words].into());
                    });
                }
                At::Bypass(node, on) => {
                    bypassed[node] = on;
                    sim.handle()
                        .schedule_at(at, move |_| r.shared.set_bypassed(node, on));
                }
            }
        }
        assert!(sim.run().is_clean());
        let (cost, mut links) = (CostModel::default(), vec![0; n]);
        for (i, (src, at, words, bypassed)) in packets.into_iter().enumerate() {
            let healthy = vec![false; n];
            let mut want = reference_walk(
                &cost, &bypassed, &healthy, false, &mut links, src, at, words,
            );
            want.sort_unstable_by_key(|&(node, t)| (t, node));
            let mut got: Vec<(usize, Time)> = (0..n)
                .filter(|&node| node != src)
                .flat_map(|node| {
                    let log = logs[node].lock();
                    let hops = log.iter().filter(|d| d.addr == i);
                    hops.map(|d| (node, d.time)).collect::<Vec<_>>()
                })
                .collect();
            got.sort_unstable_by_key(|&(node, t)| (t, node));
            assert_eq!(got, want, "packet {i} from {src}");
        }
        for (node, log) in logs.iter().enumerate() {
            assert_eq!(in_order_by_source(&log.lock(), n), Ok(()), "node {node}");
        }
        assert_eq!(ring.shared.state().links, links);
        ring.shared
            .booked
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }

    /// On a 16-node ring, node 0's eight-word packets wait behind the first
    /// of them, each queued by the last hop of the one before it; the
    /// one-word packets it sources between them first hop before the
    /// chain's last hop, so they go to the queue beside it. Every packet
    /// hops where and when the reference walk does, and in its source's
    /// order.
    #[test]
    fn one_word_packets_go_beside_a_chain_of_eight_word_ones() {
        let script = [
            (0, 8),
            (0, 1),
            (0, 1),
            (0, 8),
            (100, 1),
            (100, 8),
            (9_000, 8),
        ];
        let script = script.map(|(t, words)| (t, At::Packet(0, words)));
        assert_eq!(chained_walk(16, &script), [1, 3, 3]);
    }

    /// Node 5 is bypassed between a source's first two packets and rejoins
    /// before its third: the second, deferred behind the first, hops in two
    /// runs, and the third, deferred behind the second, in one again.
    #[test]
    fn a_bypass_switched_between_a_sources_packets_changes_only_their_runs() {
        let script = [
            (0, At::Packet(0, 8)),
            (100, At::Bypass(5, true)),
            (100, At::Packet(0, 8)),
            (200, At::Bypass(5, false)),
            (200, At::Packet(0, 8)),
        ];
        assert_eq!(chained_walk(8, &script), [1, 0, 2]);
    }

    /// A record fills a FIFO page at most: a 249-word packet's is a page
    /// and waits; a 250-word packet's would not fit, so it goes to the
    /// queue beside the chain, and the eight-word packet after it, whose
    /// record starts a new page, waits behind the 249-word one.
    #[test]
    fn a_packet_whose_record_would_outgrow_a_page_goes_beside_the_chain() {
        let script = [
            (0, At::Packet(0, 8)),
            (0, At::Packet(0, 249)),
            (0, At::Packet(0, 250)),
            (0, At::Packet(0, 8)),
        ];
        assert_eq!(chained_walk(4, &script), [1, 1, 2]);
    }

    /// The trace id a traced walk tags packet `i` with: both of its words
    /// nonzero.
    fn trace_id(i: usize) -> u64 {
        (i as u64 + 1) << 33 | 0x5A
    }

    /// What [`assert_walk_matches_reference`] reads of one run: every
    /// node's deliveries, the links as booked, and the `RingHop` lifecycle
    /// entries as `(trace id, node, time)`.
    type Walked = (Vec<Vec<Delivery>>, Vec<Time>, Vec<(u64, usize, Time)>);

    /// Packets `(src, ready, words)` on an `n`-node ring with `bypassed`
    /// nodes and `broken` links, each packet's words distinct; with the
    /// recorder on when `traced`, packet `i` tagged [`trace_id`]`(i)`.
    fn walk(
        n: usize,
        bypassed: &[usize],
        broken: &[usize],
        wrap: bool,
        injects: &[(usize, Time, usize)],
        traced: bool,
    ) -> Walked {
        let mut sim = Simulation::new();
        if traced {
            sim.enable_trace();
        }
        let config = RingConfig {
            segment_wrap: wrap,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), n, 64, CostModel::default(), config);
        bypassed.iter().for_each(|&node| ring.bypass_node(node));
        broken.iter().for_each(|&link| ring.break_link(link));
        let logs: Vec<_> = (0..n).map(|node| ring.record_deliveries(node)).collect();
        for (i, &(src, at, words)) in injects.iter().enumerate() {
            let r = ring.clone();
            sim.handle().schedule_at(at, move |t| {
                if traced {
                    r.shared
                        .handle
                        .recorder()
                        .set_current_trace(src as u32, trace_id(i));
                }
                let data: Vec<Word> = (0..words).map(|w| (i << 16 | w) as Word).collect();
                r.source_packet(src, t, i, data.into());
            });
        }
        assert!(sim.run().is_clean());
        let hops = sim
            .recorder()
            .take_events()
            .into_iter()
            .filter_map(|event| match event {
                des::obs::Event::Lifecycle {
                    time,
                    node,
                    id,
                    stage: Stage::RingHop,
                    arg,
                } => {
                    assert_eq!(
                        u64::from(node),
                        arg,
                        "a plain ring's global ids are its nodes"
                    );
                    Some((id, node as usize, time))
                }
                _ => None,
            });
        let hops = hops.collect();
        let logs = logs.iter().map(|log| log.lock().clone()).collect();
        let links = ring.shared.state().links.clone();
        (logs, links, hops)
    }

    /// Packets `(src, ready, words)` on an `n`-node ring with `bypassed`
    /// nodes and `broken` links: every node's recorded applies of each
    /// packet are the reference walk's hops, node for node and time for
    /// time. Then the same packets traced: every bank gets what it got
    /// untraced, and each packet's `RingHop` entries carry its trace id at
    /// the reference walk's nodes and times.
    fn assert_walk_matches_reference(
        n: usize,
        bypassed: &[usize],
        broken: &[usize],
        wrap: bool,
        injects: &[(usize, Time, usize)],
    ) {
        let (logs, got_links, no_hops) = walk(n, bypassed, broken, wrap, injects, false);
        assert!(no_hops.is_empty(), "an untraced walk records no hop");
        let (mut links, cost) = (vec![0; n], CostModel::default());
        let flags = |set: &[usize]| (0..n).map(|node| set.contains(&node)).collect::<Vec<_>>();
        let (bypassed_at, broken_at) = (flags(bypassed), flags(broken));
        let mut wants = Vec::new();
        for (i, &(src, at, words)) in injects.iter().enumerate() {
            let mut want = reference_walk(
                &cost,
                &bypassed_at,
                &broken_at,
                wrap,
                &mut links,
                src,
                at,
                words,
            );
            want.sort_unstable_by_key(|&(node, t)| (t, node));
            let mut got: Vec<(usize, Time)> = (0..n)
                .filter(|&node| node != src)
                .flat_map(|node| {
                    logs[node]
                        .iter()
                        .filter(|d| d.addr == i)
                        .map(|d| (node, d.time))
                        .collect::<Vec<_>>()
                })
                .collect();
            got.sort_unstable_by_key(|&(node, t)| (t, node));
            assert_eq!(got, want, "packet {i} from {src}");
            wants.push(want);
        }
        assert_eq!(got_links, links);

        let (traced_logs, traced_links, hops) = walk(n, bypassed, broken, wrap, injects, true);
        assert!(
            traced_logs == logs,
            "a traced plan delivers what an untraced one does"
        );
        assert_eq!(traced_links, links);
        let planned: usize = wants.iter().map(Vec::len).sum();
        assert_eq!(hops.len(), planned, "one entry a hop");
        for (i, want) in wants.into_iter().enumerate() {
            let mut got: Vec<(usize, Time)> = hops
                .iter()
                .filter(|&&(id, ..)| id == trace_id(i))
                .map(|&(_, node, t)| (node, t))
                .collect();
            got.sort_unstable_by_key(|&(node, t)| (t, node));
            assert_eq!(got, want, "packet {i}'s traced hops");
        }
    }

    /// A traced plan is its first run's word, the trace id, the later
    /// runs and the payload: on a healthy ring (one run) and with a node
    /// bypassed (two runs), every hop records the packet's id where and
    /// when the reference walk hops, and delivers the untraced payload.
    #[test]
    fn a_traced_plan_carries_its_id_to_every_hop() {
        let injects = [(0, 0, 3), (5, 100, 1), (2, 40_000, 8)];
        assert_walk_matches_reference(8, &[], &[], false, &injects);
        assert_walk_matches_reference(8, &[3], &[], false, &injects);
    }

    /// The buffers in `ring`'s pools, as `(class, words)`.
    fn pooled(ring: &Ring) -> Vec<(usize, usize)> {
        let state = ring.shared.state();
        let pools = state.plan_pools.0.iter().enumerate();
        let each = pools.flat_map(|(c, pool)| pool.iter().map(move |buf| (c, buf.len())));
        each.collect()
    }

    /// Untraced plans of four words are five (a run word and the
    /// payload) and warm the pool of that class; the traced plan of the
    /// same packet is two words longer, so it takes a buffer of its own
    /// class, not the shorter pooled one, and every bank gets its payload.
    #[test]
    fn a_traced_plan_takes_a_buffer_of_its_own_class() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        let payload = Arc::new((1..=4).collect::<Vec<Word>>());
        for (at, traced) in [(0, false), (10_000, false), (20_000, true)] {
            let (r, data) = (ring.clone(), Arc::clone(&payload));
            sim.handle().schedule_at(at, move |t| {
                if traced {
                    let rec = r.shared.handle.recorder();
                    rec.enable();
                    rec.set_current_trace(1, trace_id(0));
                }
                r.source_packet(1, t, 8 * at as usize / 10_000, data);
            });
        }
        assert!(sim.run().is_clean());
        assert_eq!(pooled(&ring), [(5, 5), (7, 7)]);
        for node in 0..4 {
            assert_eq!(ring.snapshot(node)[16..20], payload[..], "node {node}");
        }
    }

    /// A 256-word write and a one-word flag write on one ring, as the BBP
    /// makes them: the flag's plan is two words and takes a buffer that
    /// long, not one the payload's 257-word plan needed (288 words, its
    /// class), and each buffer goes back to its own class's pool.
    #[test]
    fn a_one_word_packet_after_a_long_one_takes_a_small_buffer() {
        let mut sim = Simulation::new();
        let ring = quiet_ring(&sim, 4);
        for (at, words) in [(0, 256), (100_000, 1)] {
            let r = ring.clone();
            sim.handle().schedule_at(at, move |t| {
                r.source_packet(0, t, 0, vec![words as Word; words].into());
            });
            assert!(sim.run().is_clean());
            assert_eq!(ring.snapshot(3)[0], words as Word);
        }
        assert_eq!(pooled(&ring), [(2, 2), (class(257).0, 288)]);
    }

    proptest! {
        /// A plan of any length fits its class's buffer, exactly up to 16
        /// words and with less than 1/8 of slack above, and a buffer's own
        /// length is of the class it came from: a returned buffer goes
        /// back to the pool it was taken from.
        #[test]
        fn a_class_holds_its_plan_with_an_eighth_of_slack(len in 0usize..1 << 24) {
            let (c, size) = class(len);
            prop_assert!(size >= len);
            if len <= 16 {
                prop_assert_eq!((c, size), (len, len));
            } else {
                prop_assert!(8 * (size - len) < len, "{} words in {}", len, size);
            }
            prop_assert_eq!(class(size), (c, size));
            prop_assert!(class(len + 1).0 >= c, "classes grow with length");
        }
    }

    /// The longest plans a ring holds, on the 256 nodes it caps at: 255
    /// hops in one run on a healthy ring; 127 hops, each a run of its own,
    /// when every other node is bypassed; a wrap at one cut, which lands
    /// where the ring would have gone, and at a pair of cuts, which lands
    /// at the head of the source's segment and opens a second run. On a
    /// healthy ring a later packet is held at its source, never at a link
    /// on its way; a long packet truncated at a cut two hops on leaves its
    /// source's link booked, so a packet from node 0 waits at node 10,
    /// which ends its first run. The proptest above stops at 32 nodes.
    #[test]
    fn the_longest_plans_match_the_reference_walk() {
        let storm = [(0, 0, 1), (128, 0, 3), (7, 50_000, 2)];
        assert_walk_matches_reference(256, &[], &[], false, &storm);
        let odd: Vec<usize> = (1..256).step_by(2).collect();
        assert_walk_matches_reference(256, &odd, &[], false, &[(0, 0, 2), (2, 0, 1)]);
        assert_walk_matches_reference(256, &[], &[100], true, &storm);
        let segment = [(100, 0, 2), (250, 0, 1)];
        assert_walk_matches_reference(256, &[], &[60, 200], true, &segment);
        assert_walk_matches_reference(256, &[], &[12], false, &[(10, 0, 48), (0, 0, 1)]);
    }

    /// A packet whose span straddles a page edge, through the ring, on
    /// banks that record who wrote each word and with flips landing: every
    /// bank ends with the source's words but for single-bit flips in the
    /// transit copies, and every bank reports the two words either side
    /// of the edge that node 3 wrote before, in address order, as the hops
    /// reach it. The flips, the bit-error count and the conflict log are
    /// the values this test read before a hop's span was resolved once
    /// per packet.
    #[test]
    fn a_packet_across_a_page_edge_lands_on_every_bank() {
        let mut sim = Simulation::new();
        let config = RingConfig {
            track_provenance: true,
            bit_error_rate: 0.02,
            error_seed: 0,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 16, 1024, CostModel::default(), config);
        // Words 250..262: six on each side of the edge at 256.
        let data: Vec<Word> = (1..=12).map(|k| 0x0101_0101 * k).collect();
        let (r, d) = (ring.clone(), data.clone());
        sim.handle().schedule_at(0, move |t| {
            r.source_packet(3, t, 255, vec![0xAAAA, 0xBBBB].into());
            let r = r.clone();
            r.handle()
                .schedule_at(t + 1_000_000, move |t| r.source_packet(0, t, 250, d.into()));
        });
        assert!(sim.run().is_clean());
        let mut flips = Vec::new();
        for node in 0..16 {
            let bank = ring.snapshot(node);
            assert!(bank[..250].iter().chain(&bank[262..]).all(|&w| w == 0));
            for (addr, (&got, &want)) in (250..).zip(bank[250..262].iter().zip(&data)) {
                if got != want {
                    assert_eq!((got ^ want).count_ones(), 1, "node {node} word {addr}");
                    flips.push((node, addr, got ^ want));
                }
            }
        }
        // Node 2's copy flipped on both sides of the edge.
        let want = [
            (2, 253, 1 << 23),
            (2, 259, 1 << 13),
            (8, 253, 1 << 31),
            (10, 257, 1 << 17),
        ];
        assert_eq!(flips, want);
        assert_eq!(ring.stats().bit_errors, 3, "three corrupted copies");
        let want: Vec<_> = (0..16).flat_map(|_| [(255, 3, 0), (256, 3, 0)]).collect();
        assert_eq!(ring.conflicts(), want);
    }
}
