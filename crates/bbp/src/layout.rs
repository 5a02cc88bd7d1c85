//! The shared-memory map: where every flag word, descriptor, and data
//! partition lives, and the one way `bbp` writes it. All address math is
//! here: [`Layout`] names every word for reading, and a node's [`Writer`]
//! writes only the words whose writer is that node, so the single-writer
//! discipline is the writer's type rather than a convention.

use std::ops::Range;

use des::{ProcCtx, RoundGuard, Signal, Time};
use scramnet::{Nic, ReachabilitySet, Word, WordAddr};

use crate::config::BbpConfig;

/// Words per buffer descriptor in the paper's protocol:
/// `[data offset, length in bytes, sequence]`.
pub const DESC_WORDS: usize = 3;

/// Words per buffer descriptor under the reliability extension: the
/// paper's three plus a CRC-32 over the descriptor fields and payload.
/// The checksum lives in the sender's own partition, preserving the
/// single-writer discipline.
pub const RELIABLE_DESC_WORDS: usize = 4;

/// Words in the per-partition membership block (membership mode only):
/// `[heartbeat, incarnation, view_epoch, view_mask, prop_epoch,
/// prop_mask]`, all written only by the partition's owner — heartbeats,
/// view adoption, and quorum proposal/echo traffic all ride the same
/// single-writer discipline as the flags. The two proposal words are
/// written only under quorum-enforced membership (the coordinator
/// publishes its proposal there; members echo it back through their own
/// pair as the ack round) and stay zero otherwise.
pub const MEMBER_WORDS: usize = 6;

/// The incarnation word's offset in the member block (the heartbeat is at 0).
pub(crate) const INCARNATION: usize = 1;
/// The offset of the published view, `[epoch, alive_mask]`, in the member block.
pub(crate) const VIEW: usize = 2;
/// The offset of the quorum proposal, `[epoch, mask]`, in the member block.
pub(crate) const PROPOSAL: usize = 4;

/// Computes word addresses for a given configuration.
///
/// Partition `p` (one per process) is laid out as:
///
/// ```text
/// +-----------------------------+  partition_base(p)
/// | MESSAGE flag words [n]      |  word s written ONLY by process s
/// +-----------------------------+
/// | ACK flag words [n]          |  word r written ONLY by process r
/// +-----------------------------+
/// | NACK flag words [n]         |  word r written ONLY by process r
/// |   (reliable mode only)      |
/// +-----------------------------+
/// | membership block [6]        |  heartbeat/incarnation/view_epoch/
/// |   (membership mode only)    |  view_mask/prop_epoch/prop_mask,
/// |                             |  written ONLY by p
/// +-----------------------------+
/// | descriptors [bufs][3 or 4]  |  written ONLY by p
/// +-----------------------------+
/// | data partition [data_words] |  written ONLY by p
/// +-----------------------------+
/// ```
#[derive(Debug, Clone)]
pub struct Layout {
    nprocs: usize,
    bufs: usize,
    data_words: usize,
    /// 3 in the paper's protocol, 4 (with CRC) under reliability.
    desc_words: usize,
    /// Flag blocks ahead of the member block: MESSAGE + ACK, plus NACK
    /// under reliability.
    flag_blocks: usize,
    /// Words the member block occupies: 0 with membership off (the paper's
    /// layout byte for byte).
    member_words: usize,
}

impl Layout {
    /// Compute the layout for `config` (validates it first).
    pub fn new(config: &BbpConfig) -> Self {
        config.validate();
        let reliable = config.reliability.is_some();
        Layout {
            nprocs: config.nprocs,
            bufs: config.bufs_per_proc,
            data_words: config.data_words,
            desc_words: if reliable {
                RELIABLE_DESC_WORDS
            } else {
                DESC_WORDS
            },
            flag_blocks: if reliable { 3 } else { 2 },
            member_words: config.membership().map_or(0, |_| MEMBER_WORDS),
        }
    }

    /// Words ahead of the descriptors in a partition: the flag blocks and
    /// the member block.
    fn control_words(&self) -> usize {
        self.flag_blocks * self.nprocs + self.member_words
    }

    /// Words per buffer descriptor in this layout.
    pub fn desc_words(&self) -> usize {
        self.desc_words
    }

    /// Words in one process partition.
    pub fn partition_words(&self) -> usize {
        self.control_words() + self.bufs * self.desc_words + self.data_words
    }

    /// Total shared-memory words required.
    pub fn total_words(&self) -> usize {
        self.partition_words() * self.nprocs
    }

    /// Base of process `p`'s partition.
    fn partition_base(&self, p: usize) -> WordAddr {
        debug_assert!(p < self.nprocs);
        p * self.partition_words()
    }

    /// `MESSAGE` flag word inside `p`'s partition that sender `s` toggles
    /// to post messages *to p*. Written only by `s`.
    pub fn msg_flag(&self, p: usize, s: usize) -> WordAddr {
        debug_assert!(s < self.nprocs);
        self.partition_base(p) + s
    }

    /// `ACK` flag word inside `p`'s partition that receiver `r` toggles to
    /// acknowledge consuming `p`'s buffers. Written only by `r`.
    pub fn ack_flag(&self, p: usize, r: usize) -> WordAddr {
        debug_assert!(r < self.nprocs);
        self.partition_base(p) + self.nprocs + r
    }

    /// `NACK` flag word inside `p`'s partition that receiver `r` toggles
    /// to report a checksum failure on one of `p`'s buffers (reliable
    /// mode only). Written only by `r`.
    pub fn nack_flag(&self, p: usize, r: usize) -> WordAddr {
        debug_assert!(self.flag_blocks == 3, "no NACK flags without reliability");
        debug_assert!(r < self.nprocs);
        self.partition_base(p) + 2 * self.nprocs + r
    }

    /// Base of `p`'s membership block (membership mode only). The block
    /// is `[heartbeat, incarnation, view_epoch, view_mask, prop_epoch,
    /// prop_mask]`, written only by `p`.
    pub fn member_base(&self, p: usize) -> WordAddr {
        debug_assert!(self.member_words > 0, "no member block without membership");
        self.partition_base(p) + self.flag_blocks * self.nprocs
    }

    /// First word of descriptor `b` in `p`'s partition. Written only by `p`.
    pub fn descriptor(&self, p: usize, b: usize) -> WordAddr {
        debug_assert!(b < self.bufs);
        self.partition_base(p) + self.control_words() + b * self.desc_words
    }

    /// Base of `p`'s data partition. Written only by `p`.
    pub fn data_base(&self, p: usize) -> WordAddr {
        self.partition_base(p) + self.control_words() + self.bufs * self.desc_words
    }

    /// Words in each data partition.
    pub fn data_words(&self) -> usize {
        self.data_words
    }

    /// The inclusive range of this node's whole MESSAGE-flag block, used
    /// by interrupt-driven receive to arm the NIC watch.
    pub fn msg_flag_range(&self, p: usize) -> Range<WordAddr> {
        self.partition_base(p)..self.partition_base(p) + self.nprocs
    }

    /// The ACK-flag block of `p`'s partition (watched by senders blocked
    /// in garbage collection under interrupt mode).
    pub fn ack_flag_range(&self, p: usize) -> Range<WordAddr> {
        let b = self.partition_base(p) + self.nprocs;
        b..b + self.nprocs
    }
}

/// A node's port onto the layout: its NIC, which it owns, and the one
/// way `bbp` writes shared memory. It writes by role, never by address,
/// and every role names a word whose writer is this node — `me`, the
/// NIC's host id — so a process cannot write another's words:
///
/// | role | the words | in whose partition |
/// |---|---|---|
/// | [`Writer::msg_flag`]`(dst)` | `MESSAGE[me]` | `dst`'s |
/// | [`Writer::ack_flag`]`(src)` | `ACK[me]` | `src`'s |
/// | [`Writer::nack_flag`]`(src)` | `NACK[me]` | `src`'s |
/// | [`Writer::descriptor`]`(slot)` | descriptor `slot` | ours |
/// | [`Writer::data`]`(off, ..)` | the data partition from `off` | ours |
/// | [`Writer::member`]`(at, ..)` | the member block from `at` | ours |
///
/// A block role's extent is its caller's: the allocator keeps a payload
/// inside the data partition, and a member write inside the block.
/// Reads name any address; they and the ring controls the layers use are
/// the NIC's, forwarded.
///
/// ```
/// use bbp::{BbpConfig, Layout, Writer};
/// use scramnet::{CostModel, Ring};
///
/// let mut sim = des::Simulation::new();
/// let layout = Layout::new(&BbpConfig::for_nodes(2));
/// let ring = Ring::new(&sim.handle(), 2, layout.total_words(), CostModel::default());
/// let me = Writer::new(ring.nic(0), layout);
/// sim.spawn("p0", move |ctx| me.msg_flag(ctx, 1, 0b1));
/// assert!(sim.run().is_clean());
/// ```
///
/// A write that names an address does not compile: the writer has no
/// such method, and its NIC is its own.
///
/// ```compile_fail,E0599
/// use bbp::{BbpConfig, Layout, Writer};
/// use scramnet::{CostModel, Ring};
///
/// let mut sim = des::Simulation::new();
/// let layout = Layout::new(&BbpConfig::for_nodes(2));
/// let peer_flag = layout.msg_flag(0, 1);
/// let ring = Ring::new(&sim.handle(), 2, layout.total_words(), CostModel::default());
/// let me = Writer::new(ring.nic(0), layout);
/// sim.spawn("p0", move |ctx| me.write_word(ctx, peer_flag, 0b1));
/// ```
pub struct Writer {
    nic: Nic,
    layout: Layout,
    me: usize,
}

impl Writer {
    /// The writer of `nic`'s host. Panics unless that host id is a rank
    /// of `layout`.
    pub fn new(nic: Nic, layout: Layout) -> Self {
        let me = nic.gid() as usize;
        let n = layout.nprocs;
        assert!(me < n, "rank {me} out of range for {n} processes");
        Writer { nic, layout, me }
    }

    /// Our rank: the NIC's host id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Write `MESSAGE[me]` in `dst`'s partition.
    pub fn msg_flag(&self, ctx: &mut ProcCtx, dst: usize, value: Word) {
        self.nic
            .write_word(ctx, self.layout.msg_flag(dst, self.me), value);
    }

    /// Write `ACK[me]` in `src`'s partition.
    pub fn ack_flag(&self, ctx: &mut ProcCtx, src: usize, value: Word) {
        self.nic
            .write_word(ctx, self.layout.ack_flag(src, self.me), value);
    }

    /// Write `NACK[me]` in `src`'s partition (reliable layouts only).
    pub fn nack_flag(&self, ctx: &mut ProcCtx, src: usize, value: Word) {
        self.nic
            .write_word(ctx, self.layout.nack_flag(src, self.me), value);
    }

    /// Write our descriptor `slot`: as many of `words` as the layout's
    /// descriptors have.
    pub fn descriptor(&self, ctx: &mut ProcCtx, slot: usize, words: &[Word; 4]) {
        let at = self.layout.descriptor(self.me, slot);
        self.nic
            .write_block(ctx, at, &words[..self.layout.desc_words]);
    }

    /// Write `words` into our data partition from word `off` on.
    pub fn data(&self, ctx: &mut ProcCtx, off: usize, words: &[Word]) {
        let at = self.layout.data_base(self.me) + off;
        self.nic.write_block(ctx, at, words);
    }

    /// Write `words` into our member block from word `at` on (0 is the
    /// heartbeat, 2 the view, 4 the proposal; see [`Layout::member_base`]):
    /// one word as a word write, more as a block.
    pub fn member(&self, ctx: &mut ProcCtx, at: usize, words: &[Word]) {
        let at = self.layout.member_base(self.me) + at;
        match words {
            [word] => self.nic.write_word(ctx, at, *word),
            _ => self.nic.write_block(ctx, at, words),
        }
    }

    /// A signal raised by every write landing in `block` of our
    /// partition (interrupt-on-write).
    pub fn watch(&self, block: fn(&Layout, usize) -> Range<WordAddr>) -> Signal {
        let signal = self.nic.sim_handle().new_signal();
        self.nic.watch(block(&self.layout, self.me), signal.clone());
        signal
    }

    /// [`Nic::read_word`].
    pub fn read_word(&self, ctx: &mut ProcCtx, addr: WordAddr) -> Word {
        self.nic.read_word(ctx, addr)
    }

    /// [`Nic::read_block`].
    pub fn read_block(&self, ctx: &mut ProcCtx, addr: WordAddr, out: &mut [Word]) {
        self.nic.read_block(ctx, addr, out);
    }

    /// [`Nic::scan`].
    pub fn scan(
        &self,
        ctx: &mut ProcCtx,
        cpu: Time,
        looks: &[(WordAddr, Word)],
    ) -> Option<(usize, Word)> {
        self.nic.scan(ctx, cpu, looks)
    }

    /// [`Nic::scan_until`].
    pub fn scan_until(
        &self,
        ctx: &mut ProcCtx,
        lead: Time,
        cpu: Time,
        looks: &[(WordAddr, Word)],
        guard: Option<&RoundGuard>,
        swept: impl FnMut(&ProcCtx, Time, Option<(usize, Word)>),
    ) -> Option<(usize, Word)> {
        self.nic.scan_until(ctx, lead, cpu, looks, guard, swept)
    }

    /// [`Nic::sweep_reads`].
    pub fn sweep_reads(
        &self,
        t0: Time,
        cpu: Time,
        looks: usize,
        hit: Option<(usize, Word)>,
    ) -> impl Iterator<Item = Time> {
        self.nic.sweep_reads(t0, cpu, looks, hit)
    }

    /// [`Nic::peer_alive`].
    pub fn peer_alive(&self, peer: usize) -> bool {
        self.nic.peer_alive(peer)
    }

    /// [`Nic::peer_reachable`].
    pub fn peer_reachable(&self, peer: usize) -> bool {
        self.nic.peer_reachable(peer)
    }

    /// [`Nic::reachable_set`].
    pub fn reachable_set(&self) -> ReachabilitySet {
        self.nic.reachable_set()
    }

    /// [`Nic::engage_bypass`].
    pub fn engage_bypass(&self, peer: usize) {
        self.nic.engage_bypass(peer);
    }

    /// [`Nic::reinsert_self`].
    pub fn reinsert_self(&self) {
        self.nic.reinsert_self();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use scramnet::{CostModel, Ring};

    use super::*;

    fn layout(n: usize) -> Layout {
        Layout::new(&BbpConfig::for_nodes(n))
    }

    fn reliable_layout(n: usize) -> Layout {
        Layout::new(&BbpConfig::reliable_for_nodes(n))
    }

    fn membership_layout(n: usize) -> Layout {
        Layout::new(&BbpConfig::membership_for_nodes(n))
    }

    #[test]
    fn regions_within_a_partition_do_not_overlap() {
        for l in [layout(4), reliable_layout(4), membership_layout(4)] {
            for p in 0..4 {
                let base = l.partition_base(p);
                let msg_end = l.msg_flag(p, 3) + 1;
                let ack_start = l.ack_flag(p, 0);
                let ack_end = l.ack_flag(p, 3) + 1;
                let desc_start = l.descriptor(p, 0);
                let desc_end = l.descriptor(p, l.bufs - 1) + l.desc_words();
                let data_start = l.data_base(p);
                assert_eq!(l.msg_flag(p, 0), base);
                assert_eq!(msg_end, ack_start);
                let after_flags = if l.flag_blocks == 3 {
                    let nack_start = l.nack_flag(p, 0);
                    let nack_end = l.nack_flag(p, 3) + 1;
                    assert_eq!(ack_end, nack_start);
                    nack_end
                } else {
                    ack_end
                };
                if l.member_words > 0 {
                    assert_eq!(l.member_base(p), after_flags);
                    assert_eq!(l.member_base(p) + MEMBER_WORDS, desc_start);
                } else {
                    assert_eq!(after_flags, desc_start);
                }
                assert_eq!(desc_end, data_start);
                assert_eq!(data_start + l.data_words(), base + l.partition_words());
            }
        }
    }

    #[test]
    fn membership_off_layout_is_byte_identical_to_reliable() {
        // No membership must keep every address the calibrated runs
        // and golden traces depend on.
        let plain = reliable_layout(4);
        let mut cfg = BbpConfig::reliable_for_nodes(4);
        cfg.reliability.as_mut().unwrap().membership = None;
        let off = Layout::new(&cfg);
        assert_eq!(off.partition_words(), plain.partition_words());
        for p in 0..4 {
            assert_eq!(off.descriptor(p, 0), plain.descriptor(p, 0));
            assert_eq!(off.data_base(p), plain.data_base(p));
        }
        // And turning it on only inserts the 6-word block.
        let on = membership_layout(4);
        assert_eq!(on.partition_words(), plain.partition_words() + MEMBER_WORDS);
    }

    #[test]
    fn reliable_descriptors_are_one_word_wider() {
        assert_eq!(layout(4).desc_words(), DESC_WORDS);
        assert_eq!(reliable_layout(4).desc_words(), RELIABLE_DESC_WORDS);
        assert!(reliable_layout(4).partition_words() > layout(4).partition_words());
    }

    /// One of the four layouts a configuration can have — the paper's,
    /// reliable, membership, quorum (`kind` 0 to 3) — at the given sizes.
    fn config(kind: usize, n: usize, bufs: usize, data_words: usize) -> BbpConfig {
        let mut config = match kind {
            0 => BbpConfig::for_nodes(n),
            1 => BbpConfig::reliable_for_nodes(n),
            2 => BbpConfig::membership_for_nodes(n),
            _ => BbpConfig::quorum_for_nodes(n.max(3)),
        };
        config.bufs_per_proc = bufs;
        config.data_words = data_words;
        config
    }

    /// Every word each role of `w` can reach: each flag role toward every
    /// rank, every descriptor slot, the whole data partition and, where
    /// the layout has one, the whole member block.
    fn write_everything(ctx: &mut ProcCtx, w: &Writer) {
        let l = &w.layout;
        for p in 0..l.nprocs {
            w.msg_flag(ctx, p, 1);
            w.ack_flag(ctx, p, 1);
            if l.flag_blocks == 3 {
                w.nack_flag(ctx, p, 1);
            }
        }
        for slot in 0..l.bufs {
            w.descriptor(ctx, slot, &[1; 4]);
        }
        w.data(ctx, 0, &vec![1; l.data_words]);
        if l.member_words > 0 {
            w.member(ctx, 0, &[1; MEMBER_WORDS]);
        }
    }

    /// Who the layout says writes each word, from its read side: flag word
    /// `s` of every partition is `s`'s, and the rest of partition `p` is
    /// `p`'s. `None` for a word the layout names twice.
    fn owners(l: &Layout) -> Vec<Option<usize>> {
        let mut owner = vec![None; l.total_words()];
        let mut claims = vec![0; l.total_words()];
        let mut claim = |addr: WordAddr, words: usize, writer: usize| {
            for a in addr..addr + words {
                owner[a] = Some(writer);
                claims[a] += 1;
            }
        };
        for p in 0..l.nprocs {
            for s in 0..l.nprocs {
                claim(l.msg_flag(p, s), 1, s);
                claim(l.ack_flag(p, s), 1, s);
                if l.flag_blocks == 3 {
                    claim(l.nack_flag(p, s), 1, s);
                }
            }
            if l.member_words > 0 {
                claim(l.member_base(p), MEMBER_WORDS, p);
            }
            for slot in 0..l.bufs {
                claim(l.descriptor(p, slot), l.desc_words, p);
            }
            claim(l.data_base(p), l.data_words, p);
        }
        owner
            .iter()
            .zip(claims)
            .map(|(&w, c)| w.filter(|_| c == 1))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// The single-writer discipline, for any valid configuration: the
        /// words the nodes' writers can reach tile the memory exactly, one
        /// writer per word, and each is the writer the layout's read side
        /// expects. Run on a ring, every word's writer is its owner and no
        /// word is written by two nodes.
        #[test]
        fn the_writers_tile_the_memory_one_writer_per_word(
            kind in 0usize..4,
            n in 2usize..=12,
            bufs in 1usize..=32,
            data_words in 1usize..=2048,
        ) {
            let config = config(kind, n, bufs, data_words);
            let (n, layout) = (config.nprocs, Layout::new(&config));
            let owners = owners(&layout);
            let mut sim = des::Simulation::new();
            let ring = Ring::new(&sim.handle(), n, layout.total_words(), CostModel::default());
            let writers: Vec<Writer> =
                (0..n).map(|p| Writer::new(ring.nic(p), layout.clone())).collect();
            sim.spawn("writers", move |ctx| {
                for w in &writers {
                    write_everything(ctx, w);
                }
            });
            prop_assert!(sim.run().is_clean());
            prop_assert!(ring.conflicts().is_empty(), "{:?}", ring.conflicts());
            for (addr, &owner) in owners.iter().enumerate() {
                prop_assert!(owner.is_some(), "the layout names word {} twice", addr);
                prop_assert_eq!(ring.owner(addr), owner, "word {}", addr);
            }
        }
    }

    #[test]
    fn flag_ranges_cover_their_words() {
        let l = layout(3);
        let r = l.msg_flag_range(2);
        assert!(r.contains(&l.msg_flag(2, 0)));
        assert!(r.contains(&l.msg_flag(2, 2)));
        assert!(!r.contains(&l.ack_flag(2, 0)));
        let a = l.ack_flag_range(1);
        assert!(a.contains(&l.ack_flag(1, 2)));
        assert!(!a.contains(&l.msg_flag(1, 2)));
    }
}
