//! The host-side view of one SCRAMNet NIC: programmed-I/O access to the
//! local bank, write injection into the ring, and interrupt subscriptions.

use std::ops::Range;
use std::sync::Arc;

use des::obs::Layer;
use des::{ProcCtx, RoundGuard, Signal};

use crate::cost::{BURST_THRESHOLD_WORDS, DMA_SETUP_NS, DMA_WORD_NS};
use crate::ring::RingShared;
use crate::stats::Bump;
use crate::{Word, WordAddr};

/// A host's port onto the ring. Clone freely; all clones refer to the same
/// node. Every operation charges the calibrated PIO cost to the calling
/// process before touching memory — SCRAMNet has no driver in the data
/// path, but every access still crosses the I/O bus.
#[derive(Clone)]
pub struct Nic {
    shared: Arc<RingShared>,
    node: usize,
}

impl Nic {
    pub(crate) fn new(shared: Arc<RingShared>, node: usize) -> Self {
        Nic { shared, node }
    }

    /// This NIC's node id on the ring.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This host's global id: the label it writes under, and its rank to
    /// the protocols above (differs from the local ring slot inside a
    /// hierarchy).
    pub fn gid(&self) -> u32 {
        self.shared.node_ids[self.node] as u32
    }

    /// Number of nodes on the ring.
    pub fn ring_nodes(&self) -> usize {
        self.shared.n
    }

    /// The hardware cost model in force (synchronization primitives use
    /// it to bound write-propagation delays).
    pub fn cost_model(&self) -> &crate::CostModel {
        &self.shared.cost
    }

    /// The simulation handle this NIC's ring schedules on (protocol
    /// layers use it to mint interrupt signals).
    pub fn sim_handle(&self) -> des::SimHandle {
        self.shared.handle.clone()
    }

    /// Store one word: a single posted PIO write, replicated to the ring.
    pub fn write_word(&self, ctx: &mut ProcCtx, addr: WordAddr, value: Word) {
        ctx.span(self.gid(), Layer::Nic, "pio_write", |ctx| {
            ctx.advance(self.shared.cost.pio_write_ns);
            self.shared.stats.pio_writes.add(1);
            ctx.obs().count(ctx.now(), self.gid(), "nic.pio_words", 1);
            self.shared.inject(self.node, ctx.now(), addr, &[value]);
        });
    }

    /// Store a contiguous block. The host pays the word/burst PIO cost;
    /// the block is injected as one train (its words replicate in order).
    pub fn write_block(&self, ctx: &mut ProcCtx, addr: WordAddr, data: &[Word]) {
        if data.is_empty() {
            return;
        }
        ctx.span(self.gid(), Layer::Nic, "pio_block", |ctx| {
            ctx.advance(self.shared.cost.host_write_ns(data.len()));
            if data.len() >= BURST_THRESHOLD_WORDS {
                self.shared.stats.bursts.add(1);
            } else {
                self.shared.stats.pio_writes.add(data.len() as u64);
            }
            ctx.obs()
                .count(ctx.now(), self.gid(), "nic.pio_words", data.len() as u64);
            self.shared.inject(self.node, ctx.now(), addr, data);
        });
    }

    /// Load one word from the local bank (a blocking PIO read — the
    /// expensive operation the paper blames for polling overhead).
    pub fn read_word(&self, ctx: &mut ProcCtx, addr: WordAddr) -> Word {
        ctx.span(self.gid(), Layer::Nic, "pio_read", |ctx| {
            ctx.advance(self.shared.cost.pio_read_ns);
            self.shared.stats.pio_reads.add(1);
            ctx.obs().count(ctx.now(), self.gid(), "nic.pio_reads", 1);
            self.shared.bank(self.node).read(addr)
        })
    }

    /// Load the contiguous block at `addr` from the local bank into `out`.
    pub fn read_block(&self, ctx: &mut ProcCtx, addr: WordAddr, out: &mut [Word]) {
        let len = out.len();
        if len == 0 {
            return;
        }
        ctx.span(self.gid(), Layer::Nic, "pio_read", |ctx| {
            ctx.advance(self.shared.cost.host_read_ns(len));
            if len >= BURST_THRESHOLD_WORDS {
                self.shared.stats.bursts.add(1);
            } else {
                self.shared.stats.pio_reads.add(len as u64);
            }
            ctx.obs()
                .count(ctx.now(), self.gid(), "nic.pio_reads", len as u64);
            self.shared.bank(self.node).read_block(addr, out);
        });
    }

    /// A poll sweep over words of the local bank. For each `(addr,
    /// expected)` of `looks`, in order: `cpu` ns of the host's own time,
    /// one PIO read of `addr`, and the sweep ends if the word is not the
    /// expected one — returning that look's index and the word, with the
    /// clock at the end of that read. In time, in the schedule and in
    /// [`crate::RingStats::pio_reads`] it is this loop,
    ///
    /// ```ignore
    /// for (i, &(addr, expected)) in looks.iter().enumerate() {
    ///     ctx.charge(cpu);
    ///     let word = nic.read_word(ctx, addr);
    ///     if word != expected {
    ///         return Some((i, word));
    ///     }
    /// }
    /// None
    /// ```
    ///
    /// but the caller's thread sleeps through the words that have not
    /// changed ([`ProcCtx::scan`]), which is most of what a blocked
    /// receive-from-anyone reads. The event log is told afterwards what the
    /// sweep stood for: for each read actually made — up to the changed
    /// word, or all — the `pio_read` span and `nic.pio_reads` count
    /// [`Nic::read_word`] writes, stamped with the instants that loop
    /// would have stamped. (A sweep the end of the run or an abort cuts
    /// short never gets to tell; [`crate::RingStats::pio_reads`] has
    /// counted its reads all the same.)
    pub fn scan(
        &self,
        ctx: &mut ProcCtx,
        cpu: des::Time,
        looks: &[(WordAddr, Word)],
    ) -> Option<(usize, Word)> {
        let t0 = ctx.now();
        let pio = self.shared.cost.pio_read_ns;
        let hit = ctx.scan(&self.shared, cpu, pio, self.sampled(looks));
        self.tell_sweep(ctx, t0, cpu, looks.len(), hit);
        hit
    }

    /// [`Nic::scan`] over and over, with `lead` ns of the host's own time
    /// before each sweep, until a word is not the expected one — returning
    /// that look's index and the word, with the clock at the end of that
    /// read — or until `guard` holds at the end of a sweep that found
    /// nothing — returning `None`, with the clock there. The caller's
    /// thread sleeps through all of it ([`ProcCtx::scan_until`]) and is
    /// woken once. In time, in the schedule and in
    /// [`crate::RingStats::pio_reads`] it is this loop,
    ///
    /// ```ignore
    /// loop {
    ///     ctx.charge(lead);
    ///     let t0 = ctx.now();
    ///     let hit = nic.scan(ctx, cpu, looks);
    ///     swept(ctx, t0, hit);
    ///     if hit.is_some() {
    ///         return hit;
    ///     }
    ///     if guard.is_some_and(|holds| holds(ctx.now())) {
    ///         return None;
    ///     }
    /// }
    /// ```
    ///
    /// and so it is in the event log, which is told afterwards sweep by
    /// sweep, in that order: the reads of a sweep as `scan` tells them,
    /// then `swept` — the caller's turn to stamp records of its own for
    /// the sweep entered at `t0` (see [`Nic::sweep_reads`]).
    ///
    /// Only for a caller with nothing else to do between sweeps but check
    /// `guard`, and at most [`ProcCtx::CYCLE_LOOKS`] looks (it panics on
    /// more, or none).
    pub fn scan_until(
        &self,
        ctx: &mut ProcCtx,
        lead: des::Time,
        cpu: des::Time,
        looks: &[(WordAddr, Word)],
        guard: Option<&RoundGuard>,
        mut swept: impl FnMut(&ProcCtx, des::Time, Option<(usize, Word)>),
    ) -> Option<(usize, Word)> {
        let t0 = ctx.now();
        let pio = self.shared.cost.pio_read_ns;
        let (rounds, hit) =
            ctx.scan_until(&self.shared, lead, cpu, pio, self.sampled(looks), guard);
        let round = lead + looks.len() as des::Time * (cpu + pio);
        for r in 0..rounds + u64::from(hit.is_some()) {
            let entered = t0 + r * round + lead;
            let hit = hit.filter(|_| r == rounds);
            self.tell_sweep(ctx, entered, cpu, looks.len(), hit);
            swept(ctx, entered, hit);
        }
        hit
    }

    /// `looks` as [`des::Sample`] addresses of this node's bank. Checked
    /// here, where the caller is: the looks are taken by whichever thread
    /// is dispatching.
    fn sampled<'a>(
        &self,
        looks: &'a [(WordAddr, Word)],
    ) -> impl Iterator<Item = (usize, Word)> + 'a {
        let words = self.shared.words;
        for &(addr, _) in looks {
            assert!(
                addr < words,
                "word {addr} out of range for a bank of {words} words"
            );
        }
        let base = self.node * words;
        looks
            .iter()
            .map(move |&(addr, expected)| (base + addr, expected))
    }

    /// Tell the event log of the reads one sweep made (see
    /// [`Nic::sweep_reads`]), as [`Nic::read_word`] would have.
    fn tell_sweep(
        &self,
        ctx: &ProcCtx,
        t0: des::Time,
        cpu: des::Time,
        looks: usize,
        hit: Option<(usize, Word)>,
    ) {
        let (obs, gid) = (ctx.obs(), self.gid());
        let pio = self.shared.cost.pio_read_ns;
        for enter in self.sweep_reads(t0, cpu, looks, hit) {
            let span = obs.open_span(enter, gid, Layer::Nic, "pio_read");
            obs.count(enter + pio, gid, "nic.pio_reads", 1);
            obs.close_span(span, enter + pio);
        }
    }

    /// When each PIO read of one sweep of [`Nic::scan`] or
    /// [`Nic::scan_until`] began: the sweep was entered
    /// at `t0` with `looks` words to read and `cpu` ns of the host's own
    /// time before each, and made a read per look up to the one that `hit`
    /// (all of them if none did). For a caller with records of its own to
    /// stamp after the fact, as `scan` stamps the NIC's.
    pub fn sweep_reads(
        &self,
        t0: des::Time,
        cpu: des::Time,
        looks: usize,
        hit: Option<(usize, Word)>,
    ) -> impl Iterator<Item = des::Time> {
        let period = cpu + self.shared.cost.pio_read_ns;
        let made = hit.map_or(looks, |(index, _)| index + 1) as des::Time;
        (0..made).map(move |k| t0 + k * period + cpu)
    }

    /// Program a DMA transfer: the host pays only the setup cost and is
    /// free immediately; the NIC's DMA engine streams the block from
    /// host memory in the background and injects it into the ring when
    /// the staging completes — the paper's §2 "For larger data transfers,
    /// programmed I/O or DMA can be used". Returns the instant of the
    /// injection (the end of the setup for an empty block), for a caller
    /// that waits for it with [`ProcCtx::wait_until`].
    pub fn dma_write(&self, ctx: &mut ProcCtx, addr: WordAddr, data: &[Word]) -> des::Time {
        ctx.span(self.gid(), Layer::Nic, "dma_setup", |ctx| {
            ctx.advance(DMA_SETUP_NS)
        });
        if data.is_empty() {
            return ctx.now();
        }
        self.shared.stats.bursts.add(1);
        ctx.obs()
            .count(ctx.now(), self.gid(), "nic.dma_words", data.len() as u64);
        let staged_at = ctx.now() + data.len() as u64 * DMA_WORD_NS;
        let shared = std::sync::Arc::clone(&self.shared);
        let node = self.node;
        let data = data.to_vec();
        self.shared.handle.schedule_at(staged_at, move |t| {
            shared.inject(node, t, addr, &data);
        });
        staged_at
    }

    /// True unless `peer`'s insertion register is currently switched out
    /// of the ring (bypass). Reliability layers use this to tell a dead
    /// peer from a slow one when a retry budget runs out — it is the
    /// only liveness signal the hardware exposes.
    pub fn peer_alive(&self, peer: usize) -> bool {
        assert!(peer < self.shared.n, "node {peer} out of range");
        self.assert_settled();
        self.shared.node_in_ring(peer)
    }

    /// This node's current hardware segment map: which peers its
    /// traffic can reach given severed links and bypassed NICs. A peer
    /// outside the set is *unreachable* — possibly perfectly healthy on
    /// the far side of a partition — which is a different verdict from
    /// the dead-or-bypassed one [`Nic::peer_alive`] renders. Membership
    /// layers consult this before grading a silent peer.
    pub fn reachable_set(&self) -> crate::ReachabilitySet {
        self.assert_settled();
        self.shared.reachability_from(self.node)
    }

    /// True if `peer` is in this node's current segment (see
    /// [`Nic::reachable_set`]).
    pub fn peer_reachable(&self, peer: usize) -> bool {
        assert!(peer < self.shared.n, "node {peer} out of range");
        self.assert_settled();
        self.shared.reachability_from(self.node).contains(peer)
    }

    /// Switch `peer`'s insertion register out of the ring from this host
    /// — the failure detector's declare-dead action. From here on the
    /// ring heals past `peer` (hop latency drops to
    /// [`BYPASS_HOP_NS`](crate::BYPASS_HOP_NS)) and [`Nic::peer_alive`]
    /// reports it down. Idempotent; a rejoining peer undoes it with
    /// [`Nic::reinsert_self`].
    pub fn engage_bypass(&self, peer: usize) {
        assert!(peer < self.shared.n, "node {peer} out of range");
        self.assert_settled();
        self.shared.set_bypassed(peer, true);
    }

    /// Re-insert this host's own NIC into the ring — the first step of a
    /// rejoin after the survivors bypassed it. The bank missed all
    /// traffic while switched out; higher layers must re-initialize
    /// their protocol state before trusting it.
    pub fn reinsert_self(&self) {
        self.assert_settled();
        self.shared.set_bypassed(self.node, false);
    }

    /// The insertion registers and the link map change under fault events
    /// and other hosts' detectors, and unlike the bank no PIO stall
    /// precedes a look at them: the caller must have settled.
    fn assert_settled(&self) {
        self.shared
            .handle
            .assert_settled("a ring liveness register access");
    }

    /// Subscribe `signal` to replicated writes landing anywhere in
    /// `range` of this node's bank (SCRAMNet interrupt-on-write). The
    /// notification is delayed by the interrupt dispatch cost.
    pub fn watch(&self, range: Range<WordAddr>, signal: Signal) {
        self.shared
            .add_watch(self.node, range.start, range.end, signal);
    }

    /// Remove all interrupt subscriptions on this node.
    pub fn clear_watches(&self) {
        self.shared.clear_watches(self.node);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::cost::{DMA_SETUP_NS, DMA_WORD_NS};
    use crate::{CostModel, Ring};
    use des::obs::{Event, Layer, Track};
    use des::Simulation;

    #[test]
    fn word_ops_charge_pio_costs() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let nic = ring.nic(0);
        let c = CostModel::default();
        sim.spawn("p", move |ctx| {
            let t0 = ctx.now();
            nic.write_word(ctx, 0, 1);
            assert_eq!(ctx.now() - t0, c.pio_write_ns);
            let t1 = ctx.now();
            let _ = nic.read_word(ctx, 0);
            assert_eq!(ctx.now() - t1, c.pio_read_ns);
        });
        assert!(sim.run().is_clean());
    }

    /// Debug builds refuse to look at shared hardware state for a process
    /// whose clock is ahead of the run (`ProcCtx::charge` not yet settled).
    #[cfg(debug_assertions)]
    fn misuse(body: impl FnOnce(&mut des::ProcCtx, &Ring) + Send + 'static) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        sim.spawn("p", move |ctx| {
            ctx.charge(40);
            body(ctx, &ring);
        });
        sim.run();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a bank access while process 'p' owes 40 ns")]
    fn reading_a_bank_while_owing_charged_time_is_caught() {
        misuse(|_, ring| {
            ring.snapshot(0);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a ring liveness register access while process 'p' owes 40 ns")]
    fn reading_a_liveness_register_while_owing_charged_time_is_caught() {
        misuse(|_, ring| {
            ring.nic(0).peer_alive(1);
        });
    }

    #[test]
    fn a_pio_stall_settles_what_the_caller_charged() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let c = CostModel::default();
        sim.spawn("p", move |ctx| {
            ctx.charge(40);
            assert_eq!(ring.nic(0).read_word(ctx, 0), 0);
            assert_eq!(ctx.now(), 40 + c.pio_read_ns);
            assert!(ring.nic(0).peer_alive(1));
        });
        assert!(sim.run().is_clean());
    }

    /// What [`sweep_run`] reports: the hit, when, the run's dispatches and
    /// queue depth, the ring's counters, and the event log track by track.
    type SweepRun = (
        Option<(usize, u32)>,
        des::Time,
        u64,
        usize,
        crate::RingStats,
        BTreeMap<Track, Vec<Event>>,
    );

    /// How [`sweep_run`]'s receiver polls.
    #[derive(Clone, Copy, PartialEq)]
    enum Poll {
        /// `charge` + `read_word` per word.
        WrittenOut,
        /// One [`Nic::scan`] per sweep.
        Scan,
        /// One [`Nic::scan_until`] for all of it.
        ScanUntil,
    }

    /// A receiver sweeping eight words until one changes — with `lead` ns
    /// of its own time before each sweep, if any, and until the first
    /// sweep that ends at or past `deadline`, if any — beside a writer that
    /// changes one mid-sweep, with the event log on: what it saw, when,
    /// and what the run, the ring and the log made of it.
    fn sweep_run(poll: Poll, lead: Option<des::Time>, deadline: Option<des::Time>) -> SweepRun {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let ring = Ring::new(&sim.handle(), 3, 64, CostModel::default());
        let (tx, rx) = (ring.nic(0), ring.nic(2));
        sim.spawn("tx", move |ctx| {
            ctx.advance(des::us(9));
            tx.write_word(ctx, 13, 5);
        });
        let mut seen = sim.spawn("rx", move |ctx| {
            let looks: Vec<_> = (8..16).map(|addr| (addr, 0)).collect();
            let written_out = |ctx: &mut des::ProcCtx| {
                looks.iter().enumerate().find_map(|(i, &(addr, expected))| {
                    ctx.charge(40);
                    let word = rx.read_word(ctx, addr);
                    (word != expected).then_some((i, word))
                })
            };
            // What a caller of `scan_until` stamps per sweep, and a caller
            // of the loop writes as it goes round.
            let swept = |ctx: &des::ProcCtx, t0, hit: Option<(usize, u32)>| {
                ctx.obs()
                    .count(t0, 2, "test.sweeps", u64::from(hit.is_some()));
            };
            let guard = deadline.map(|d| std::sync::Arc::new(move |t| t >= d) as des::RoundGuard);
            let hit = loop {
                if poll == Poll::ScanUntil {
                    let lead = lead.expect("a cycle has one");
                    break rx.scan_until(ctx, lead, 40, &looks, guard.as_ref(), swept);
                }
                if let Some(lead) = lead {
                    ctx.charge(lead);
                }
                let t0 = ctx.now();
                let hit = if poll == Poll::Scan {
                    rx.scan(ctx, 40, &looks)
                } else {
                    written_out(ctx)
                };
                if lead.is_some() {
                    swept(ctx, t0, hit);
                }
                if hit.is_some() || deadline.is_some_and(|d| ctx.now() >= d) {
                    break hit;
                }
            };
            (hit, ctx.now())
        });
        let report = sim.run();
        assert!(report.is_clean());
        let (hit, at) = seen.take().expect("the sweep ended");
        let mut tracks: BTreeMap<Track, Vec<Event>> = BTreeMap::new();
        for event in sim.recorder().take_events() {
            tracks.entry(event.track()).or_default().push(event);
        }
        (
            hit,
            at,
            report.dispatches,
            report.peak_queue_depth,
            ring.stats(),
            tracks,
        )
    }

    #[test]
    fn a_scan_is_the_loop_of_reads_it_stands_for() {
        let scanned = sweep_run(Poll::Scan, None, None);
        assert_eq!(scanned, sweep_run(Poll::WrittenOut, None, None));
        assert_eq!(scanned.0, Some((5, 5)), "word 13 is the sixth look");
        assert!(scanned.4.pio_reads > 8, "{:?}", scanned.4);
        // The log was told of every read, each in time order on its track.
        let reads = &scanned.5[&Track::Counter(2, "nic.pio_reads")];
        assert_eq!(reads.len() as u64, scanned.4.pio_reads);
        assert!(reads.windows(2).all(|w| w[0].time() < w[1].time()));
        assert_eq!(reads.last().map(Event::time), Some(scanned.1));
        assert_eq!(
            scanned.5[&Track::Layer(2, Layer::Nic)].len(),
            2 * reads.len()
        );
    }

    #[test]
    fn a_scan_until_is_the_loop_of_sweeps_it_stands_for() {
        let cycled = sweep_run(Poll::ScanUntil, Some(150), None);
        assert_eq!(cycled, sweep_run(Poll::WrittenOut, Some(150), None));
        assert_eq!(cycled, sweep_run(Poll::Scan, Some(150), None));
        assert_eq!(
            cycled.0.map(|hit| hit.0),
            Some(5),
            "word 13 is the sixth look"
        );
        // Rounds asleep, every read of them counted and told, and the
        // caller given its turn once per sweep: a hit on the last only.
        let sweeps = &cycled.5[&Track::Counter(2, "test.sweeps")];
        assert_eq!(sweeps.len(), 3, "two rounds asleep and the third's hit");
        let reads = &cycled.5[&Track::Counter(2, "nic.pio_reads")];
        assert_eq!(reads.len(), 8 * (sweeps.len() - 1) + 6);
        assert_eq!(reads.len() as u64, cycled.4.pio_reads);
        assert!(reads.windows(2).all(|w| w[0].time() < w[1].time()));
        assert_eq!(reads.last().map(Event::time), Some(cycled.1));
    }

    #[test]
    fn a_guarded_scan_until_is_the_loop_that_checks_between_sweeps() {
        // A round takes 150 + 8 x (40 + 600) = 5 270 ns: a deadline at
        // 10 us is passed by the end of the second sweep, before the write
        // is seen; at 12 us the third sweep sees it first, as unguarded.
        for (deadline, sweeps) in [(10_000, 2), (12_000, 3)] {
            let cycled = sweep_run(Poll::ScanUntil, Some(150), Some(deadline));
            assert_eq!(
                cycled,
                sweep_run(Poll::WrittenOut, Some(150), Some(deadline))
            );
            assert_eq!(cycled, sweep_run(Poll::Scan, Some(150), Some(deadline)));
            let told = &cycled.5[&Track::Counter(2, "test.sweeps")];
            assert_eq!(told.len(), sweeps, "deadline {deadline}");
            if sweeps == 2 {
                assert_eq!(cycled.0, None, "the guard ended it");
                assert_eq!(cycled.1, 2 * 5_270);
                assert_eq!(cycled.4.pio_reads, 16);
            } else {
                assert_eq!(cycled, sweep_run(Poll::ScanUntil, Some(150), None));
            }
        }
    }

    #[test]
    #[should_panic(expected = "word 64 out of range for a bank of 64 words")]
    fn a_scan_past_the_bank_panics_in_its_caller() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        sim.spawn("p", move |ctx| {
            ring.nic(1).scan(ctx, 40, &[(63, 0), (64, 0)]);
        });
        sim.run();
    }

    /// A read whose end would pass `usize::MAX` is out of range, in
    /// optimised code too, where an unchecked end would wrap and the read
    /// would come back as zeros.
    fn read_at_the_top(read: impl FnOnce(&mut des::ProcCtx, &crate::Nic) + Send + 'static) {
        let mut sim = Simulation::new();
        let nic = Ring::new(&sim.handle(), 2, 64, CostModel::default()).nic(0);
        sim.spawn("p", move |ctx| read(ctx, &nic));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "a 1-word access at 18446744073709551615 out of range")]
    fn a_word_read_at_the_top_of_the_address_space_panics() {
        read_at_the_top(|ctx, nic| {
            nic.read_word(ctx, usize::MAX);
        });
    }

    #[test]
    #[should_panic(expected = "a 2-word access at 18446744073709551614 out of range")]
    fn a_block_read_across_the_top_of_the_address_space_panics() {
        read_at_the_top(|ctx, nic| nic.read_block(ctx, usize::MAX - 1, &mut [7; 2]));
    }

    #[test]
    fn block_ops_use_burst_above_threshold() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 1024, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            nic.write_block(ctx, 0, &vec![1; 64]);
            nic.read_block(ctx, 0, &mut [0; 64]);
        });
        sim.run();
        assert_eq!(ring.stats().bursts, 2);
    }

    #[test]
    fn empty_block_ops_are_free_noops() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            nic.write_block(ctx, 0, &[]);
            nic.read_block(ctx, 0, &mut []);
            assert_eq!(ctx.now(), 0);
        });
        assert!(sim.run().is_clean());
        assert_eq!(ring.stats().injections, 0);
    }

    #[test]
    fn read_block_returns_replicated_data() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 3, 1024, CostModel::default());
        let tx = ring.nic(0);
        let rx = ring.nic(2);
        sim.spawn("tx", move |ctx| {
            let data: Vec<u32> = (0..32).collect();
            tx.write_block(ctx, 100, &data);
        });
        sim.spawn("rx", move |ctx| {
            ctx.wait_until(des::ms(1));
            let mut got = [u32::MAX; 32];
            rx.read_block(ctx, 100, &mut got);
            assert_eq!(got.to_vec(), (0..32).collect::<Vec<u32>>());
        });
        assert!(sim.run().is_clean());
    }
    #[test]
    fn dma_write_frees_the_host_immediately() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 8192, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            let data = vec![9u32; 2048]; // 8 KB
            let t0 = ctx.now();
            nic.dma_write(ctx, 0, &data);
            assert_eq!(ctx.now() - t0, DMA_SETUP_NS, "host pays setup only");
            // Compare: a PIO burst of the same size occupies the host far
            // longer.
            let t1 = ctx.now();
            nic.write_block(ctx, 4096, &data);
            assert!(ctx.now() - t1 > 20 * DMA_SETUP_NS);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn dma_write_replicates_to_all_banks() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 3, 4096, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            let data: Vec<u32> = (0..512).collect();
            nic.dma_write(ctx, 100, &data);
        });
        sim.run();
        for node in 0..3 {
            let snap = ring.snapshot(node);
            assert_eq!(snap[100], 0);
            assert_eq!(snap[100 + 511], 511, "node {node}");
        }
    }

    #[test]
    fn dma_write_returns_its_injection_instant() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 4096, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            let data = vec![1u32; 1000];
            let injected = nic.dma_write(ctx, 0, &data);
            assert_eq!(injected - ctx.now(), 1000 * DMA_WORD_NS);
            ctx.wait_until(injected);
            assert_eq!(nic.read_word(ctx, 999), 1, "in the local bank by then");
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn an_empty_dma_returns_the_end_of_its_setup() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let nic = ring.nic(0);
        sim.spawn("p", move |ctx| {
            let t0 = ctx.now();
            assert_eq!(nic.dma_write(ctx, 0, &[]), t0 + DMA_SETUP_NS);
            assert_eq!(ctx.now(), t0 + DMA_SETUP_NS);
        });
        assert!(sim.run().is_clean());
        assert_eq!(ring.stats().injections, 0);
    }
}
