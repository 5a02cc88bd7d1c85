//! A NIC's on-board memory bank, with optional write-provenance records
//! used by tests to verify the BillBoard Protocol's single-writer
//! discipline.
//!
//! A bank is words that hops store to and hosts load from, read and
//! applied through `&self`: relaxed atomic stores and loads, no lock. The
//! one entity running at a time is the only one touching a bank, and the
//! baton's hand-off orders what it stored before the next entity loads
//! it — the replicated memory's own discipline, where every word has one
//! writer and no protocol needs a lock.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::{Word, WordAddr};

/// Who wrote a word, and when — recorded only when provenance tracking is
/// enabled on the owning [`crate::Ring`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// Node id of the writer.
    pub writer: usize,
    /// Virtual time the write was applied *at this bank*.
    pub applied_at: des::Time,
}

/// Words per lazily materialised page of a [`Bank`] (1 KB).
///
/// Sized by measurement. A bank's page table has a slot for every page,
/// so the page size sets the table's size as well as how many bytes a
/// touched region materialises: the BBP touches a few control words in
/// each of many regions, which favours small pages, and a 1 MB bank of
/// 128-word pages has a 2 048-slot table. Peak RSS of the benchmark's
/// `mpi_collectives` at `--seconds 5`, two runs each: 128-word pages
/// behind a table of one `OnceLock` per page 5.20 / 5.29 MB, 256-word
/// pages 5.00 / 5.08, against 4.98 / 5.00 for 128-word pages behind a
/// table grown to the highest page written (before the pages were
/// atomics). Neither its throughput nor `ring_storm`'s resolved between
/// the two page sizes. See docs/PERFORMANCE.md, "Measured and not taken".
pub(crate) const PAGE_WORDS: usize = 256;

pub(crate) type Page = Box<[AtomicU32; PAGE_WORDS]>;

/// Pages and page tables of dropped banks, for the next bank to use, and
/// the pages a source's transmit FIFO ([`crate::fifo::Fifo`]) holds its
/// records in while it has any.
///
/// A page is boxed on whichever thread runs the hop event that first
/// writes there, so pages land in glibc's per-thread arenas, which keep
/// the most they were ever asked for: a host process that runs one
/// 16-rank world after another crept up by the tables (one slot per page
/// of a 1 MB bank — the larger part) and the pages of every world on every
/// arena. Recycled, the second world allocates neither. One list for the
/// process: worlds are built and dropped on any thread. See
/// docs/PERFORMANCE.md, "The ring replication path".
static FREE: Mutex<FreeStorage> = Mutex::new(FreeStorage {
    pages: Vec::new(),
    tables: Vec::new(),
    fresh: (0, 0),
});

struct FreeStorage {
    pages: Vec<Page>,
    /// Every slot empty, length kept: a bank of the same size takes one
    /// as it is.
    tables: Vec<Vec<OnceLock<Page>>>,
    /// `(pages, tables)` the lists could not supply, ever.
    fresh: (u64, u64),
}

fn free_storage() -> MutexGuard<'static, FreeStorage> {
    // Every update leaves the lists valid, so a poisoned lock is usable.
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many pages (a bank's, or a transmit FIFO's) and bank page tables
/// this process has allocated because none had been handed back:
/// `(pages, tables)`. Stops growing once the process has dropped a world
/// as large as the ones it builds.
pub fn bank_storage_allocated() -> (u64, u64) {
    free_storage().fresh
}

/// One node's replicated memory image.
///
/// Stored as demand-allocated pages: a page no write has touched does not
/// exist and reads as zeros, so a world of many mostly-empty 1 MB banks
/// costs only the pages its protocols use.
pub(crate) struct Bank {
    len: usize,
    /// A slot per page, sized when the bank is built; the first write
    /// that lands on a page boxes it.
    pages: Vec<OnceLock<Page>>,
    /// Last writer per word, when tracking is on — a checking mode, off on
    /// every hot path — so it has a lock of its own.
    provenance: Option<Mutex<Vec<Option<WriteRecord>>>>,
}

/// Split the word range `addr..addr + len` at page boundaries, yielding
/// `(page, offset in page, offset in range, words)` per piece.
fn pieces(addr: WordAddr, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let off = (addr + done) % PAGE_WORDS;
            let n = (PAGE_WORDS - off).min(len - done);
            let piece = ((addr + done) / PAGE_WORDS, off, done, n);
            done += n;
            piece
        })
    })
}

/// A range-checked write of `len` words at `addr` into banks of a given
/// size, resolved to its page and offset: every hop of a packet stores the
/// same words into a bank of the ring's one size, so the range check and
/// the page split are made once, here, and a store ([`Bank::store`])
/// makes neither.
#[derive(Clone, Copy)]
pub(crate) struct Span {
    page: usize,
    off: usize,
    len: usize,
}

impl Span {
    /// `addr..addr + len` in banks of `words` words.
    ///
    /// # Panics
    ///
    /// If the span runs past a bank's end.
    pub fn new(addr: WordAddr, len: usize, words: usize) -> Self {
        check_range(addr, len, words);
        let (page, off) = (addr / PAGE_WORDS, addr % PAGE_WORDS);
        Span { page, off, len }
    }

    /// The first word.
    pub fn addr(self) -> WordAddr {
        self.page * PAGE_WORDS + self.off
    }
}

/// Absent pages read as zeros, and the last page may be partial: the
/// length is what bounds an access.
fn check_range(addr: WordAddr, len: usize, words: usize) {
    assert!(
        addr.checked_add(len).is_some_and(|end| end <= words),
        "a {len}-word access at {addr} out of range for a bank of {words} words"
    );
}

impl Bank {
    pub fn new(words: usize, track_provenance: bool) -> Self {
        let mut pages = {
            let mut free = free_storage();
            let table = free.tables.pop();
            free.fresh.1 += u64::from(table.is_none());
            table.unwrap_or_default()
        };
        pages.resize_with(words.div_ceil(PAGE_WORDS), OnceLock::new);
        Bank {
            len: words,
            pages,
            provenance: track_provenance.then(|| Mutex::new(vec![None; words])),
        }
    }

    #[inline]
    pub fn read(&self, addr: WordAddr) -> Word {
        check_range(addr, 1, self.len);
        self.pages[addr / PAGE_WORDS]
            .get()
            .map_or(0, |page| page[addr % PAGE_WORDS].load(Ordering::Relaxed))
    }

    /// Copy the words at `addr..addr + out.len()` into `out`.
    pub fn read_block(&self, addr: WordAddr, out: &mut [Word]) {
        check_range(addr, out.len(), self.len);
        for (page, off, at, n) in pieces(addr, out.len()) {
            let out = &mut out[at..at + n];
            match self.pages[page].get() {
                Some(page) => {
                    for (o, word) in out.iter_mut().zip(&page[off..off + n]) {
                        *o = word.load(Ordering::Relaxed);
                    }
                }
                None => out.fill(0),
            }
        }
    }

    /// Store `data`, as long as `span`, at `span`: one page lookup and a
    /// store per word for a span inside one page — every hop of a packet
    /// of at most a page, but for one that straddles an edge — and a
    /// piece per page for one across an edge. Provenance is
    /// [`Self::record`]'s.
    ///
    /// `span` must have been made for this bank's size and be as long as
    /// `data`: the ring makes it once a packet from the packet's own payload
    /// and the one size of its banks, and [`Span::new`] asserts the range,
    /// so a hop checks it again only in debug builds.
    #[inline(always)]
    pub fn store(&self, span: Span, data: &[Word]) {
        debug_assert!(data.len() == span.len && span.addr() + span.len <= self.len);
        if span.off + span.len <= PAGE_WORDS {
            let page = self.pages[span.page].get_or_init(new_page);
            store(&page[span.off..span.off + span.len], data);
        } else {
            self.store_pieces(span, data);
        }
    }

    #[inline(never)]
    fn store_pieces(&self, span: Span, data: &[Word]) {
        for (page, off, done, n) in pieces(span.addr(), span.len) {
            let page = self.pages[page].get_or_init(new_page);
            store(&page[off..off + n], &data[done..done + n]);
        }
    }

    /// True if this bank records who wrote each word.
    pub fn tracked(&self) -> bool {
        self.provenance.is_some()
    }

    /// Record `writer` as the last writer of `span`'s words at `at`, when
    /// provenance is tracked, handing every word whose last writer was
    /// *another* node to `conflict` as `(addr, earlier writer)` — the
    /// caller surfaces it to the single-writer checker.
    pub fn record(
        &self,
        span: Span,
        writer: usize,
        at: des::Time,
        mut conflict: impl FnMut(WordAddr, usize),
    ) {
        let Some(mut prov) = self.records() else {
            return;
        };
        let addr = span.addr();
        for (i, slot) in prov[addr..addr + span.len].iter_mut().enumerate() {
            match slot {
                Some(prev) if prev.writer != writer => conflict(addr + i, prev.writer),
                _ => {}
            }
            *slot = Some(WriteRecord {
                writer,
                applied_at: at,
            });
        }
    }

    /// Provenance of one word (None if never written or tracking is off).
    pub fn provenance(&self, addr: WordAddr) -> Option<WriteRecord> {
        self.records().and_then(|p| p[addr])
    }

    /// The provenance records, when tracking is on.
    fn records(&self) -> Option<MutexGuard<'_, Vec<Option<WriteRecord>>>> {
        // Every update leaves the records valid, so a poisoned lock is usable.
        let records = self.provenance.as_ref()?;
        Some(records.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Raw snapshot of the whole bank, for eventual-consistency checks.
    pub fn snapshot(&self) -> Vec<Word> {
        let mut out = vec![0; self.len];
        self.read_block(0, &mut out);
        out
    }
}

/// Store `data` into `words`, which is as long.
#[inline]
fn store(words: &[AtomicU32], data: &[Word]) {
    for (word, &value) in words.iter().zip(data) {
        word.store(value, Ordering::Relaxed);
    }
}

/// A page from the free list, if it has one, counting one it has not.
fn recycled_page() -> Option<Page> {
    let mut free = free_storage();
    let page = free.pages.pop();
    free.fresh.0 += u64::from(page.is_none());
    page
}

/// A zeroed page: a recycled one if there is one.
fn new_page() -> Page {
    match recycled_page() {
        Some(mut page) => {
            for word in page.iter_mut() {
                *word.get_mut() = 0;
            }
            page
        }
        None => Box::new([const { AtomicU32::new(0) }; PAGE_WORDS]),
    }
}

/// A page whose words are whatever they were: a recycled one if there is
/// one.
pub(crate) fn take_page() -> Page {
    recycled_page().unwrap_or_else(|| Box::new([const { AtomicU32::new(0) }; PAGE_WORDS]))
}

/// Hand `page` to the next bank or FIFO that needs one.
pub(crate) fn give_page(page: Page) {
    free_storage().pages.push(page);
}

impl Drop for Bank {
    fn drop(&mut self) {
        let mut table = std::mem::take(&mut self.pages);
        let mut free = free_storage();
        free.pages
            .extend(table.iter_mut().filter_map(OnceLock::take));
        free.tables.push(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Bank {
        /// Store and record, as a hop does, collecting the conflicts
        /// reported.
        fn write(
            &self,
            addr: WordAddr,
            data: &[Word],
            writer: usize,
            at: des::Time,
        ) -> Vec<(WordAddr, usize)> {
            let span = Span::new(addr, data.len(), self.len);
            self.store(span, data);
            let mut conflicts = Vec::new();
            self.record(span, writer, at, |a, earlier| conflicts.push((a, earlier)));
            conflicts
        }

        fn block(&self, addr: WordAddr, len: usize) -> Vec<Word> {
            // Stale contents: every word must be overwritten.
            let mut out = vec![0xDEAD_BEEF; len];
            self.read_block(addr, &mut out);
            out
        }

        /// Pages materialised so far.
        fn materialised(&self) -> usize {
            self.pages.iter().filter(|p| p.get().is_some()).count()
        }
    }

    #[test]
    fn read_after_apply_sees_data() {
        let b = Bank::new(64, false);
        b.write(10, &[1, 2, 3], 0, 5);
        assert_eq!(b.read(10), 1);
        assert_eq!(b.block(10, 3), vec![1, 2, 3]);
        assert_eq!(b.read(13), 0);
    }

    #[test]
    fn provenance_records_last_writer() {
        let b = Bank::new(16, true);
        b.write(3, &[9], 2, 100);
        let rec = b.provenance(3).unwrap();
        assert_eq!(rec.writer, 2);
        assert_eq!(rec.applied_at, 100);
        assert!(b.provenance(4).is_none());
    }

    #[test]
    fn conflicting_writers_are_reported() {
        let b = Bank::new(16, true);
        assert!(b.write(5, &[1], 0, 10).is_empty());
        assert!(b.write(5, &[2], 0, 20).is_empty(), "same writer is fine");
        let conflicts = b.write(5, &[3], 1, 30);
        assert_eq!(conflicts, vec![(5, 0)]);
    }

    #[test]
    fn no_provenance_means_no_conflicts_reported() {
        let b = Bank::new(16, false);
        b.write(5, &[1], 0, 10);
        assert!(b.write(5, &[2], 1, 20).is_empty());
        assert!(b.provenance(5).is_none());
    }

    #[test]
    fn never_written_pages_read_as_zeros() {
        let words = 3 * PAGE_WORDS + 10; // a partial last page
        let b = Bank::new(words, false);
        assert_eq!(b.len, words);
        assert_eq!(b.read(0), 0);
        assert_eq!(b.read(words - 1), 0);
        assert_eq!(b.block(PAGE_WORDS - 2, 4), vec![0; 4]);
        assert_eq!(b.snapshot(), vec![0; words]);
        assert_eq!(b.materialised(), 0, "reads allocate nothing");
        // One write materialises one page; its neighbours stay absent.
        b.write(PAGE_WORDS + 5, &[7], 0, 1);
        assert_eq!(b.materialised(), 1);
        assert_eq!(b.read(PAGE_WORDS + 5), 7);
        assert_eq!(b.read(PAGE_WORDS + 6), 0);
    }

    #[test]
    fn write_straddling_a_page_edge_lands_on_both_pages() {
        let b = Bank::new(4 * PAGE_WORDS, true);
        let data: Vec<Word> = (1..=6).collect();
        let addr = 2 * PAGE_WORDS - 2;
        b.write(addr, &data, 3, 9);
        assert_eq!(b.read(addr - 1), 0);
        assert_eq!(b.block(addr, 6), data);
        assert_eq!(b.read(addr + 6), 0);
        assert_eq!(b.materialised(), 2);
        assert_eq!(b.provenance(addr + 5).unwrap().writer, 3);
        let snap = b.snapshot();
        assert_eq!(snap.len(), 4 * PAGE_WORDS);
        assert_eq!(&snap[addr..addr + 6], &data[..]);
        assert_eq!(snap.iter().filter(|&&w| w != 0).count(), 6);
        // A block longer than a page crosses two edges.
        let long: Vec<Word> = (0..PAGE_WORDS as Word + 8).map(|i| i + 100).collect();
        b.write(PAGE_WORDS / 2, &long, 3, 10);
        assert_eq!(b.block(PAGE_WORDS / 2, long.len()), long);
    }

    #[test]
    fn a_write_up_to_a_page_edge_touches_one_page() {
        let b = Bank::new(3 * PAGE_WORDS, true);
        let data: Vec<Word> = (1..=4).collect();
        b.write(PAGE_WORDS - 4, &data, 1, 5);
        assert_eq!(b.materialised(), 1);
        assert_eq!(b.block(PAGE_WORDS - 4, 4), data);
        b.write(PAGE_WORDS, &vec![9; PAGE_WORDS], 1, 6);
        assert_eq!(b.materialised(), 2, "a whole page is one page");
        assert_eq!(b.read(2 * PAGE_WORDS), 0);
        // Another writer across the edge: every word it takes from the
        // first is reported, in address order, on both pages.
        let conflicts = b.write(PAGE_WORDS - 2, &[0; 4], 2, 7);
        let want: Vec<_> = (PAGE_WORDS - 2..PAGE_WORDS + 2).map(|a| (a, 1)).collect();
        assert_eq!(conflicts, want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_still_panics() {
        // The last page is partial; its tail must not become addressable.
        Bank::new(PAGE_WORDS + 10, false).read(PAGE_WORDS + 10);
    }

    #[test]
    fn storage_of_a_dropped_bank_comes_back_zeroed() {
        // Other tests share the free list, so this cannot say *which* page
        // the second bank gets — only that whichever it is reads as new.
        for round in 0..4 {
            let b = Bank::new(4 * PAGE_WORDS, false);
            assert_eq!(
                (b.pages.len(), b.materialised()),
                (4, 0),
                "round {round}: a recycled table has an empty slot per page"
            );
            b.write(PAGE_WORDS + 3, &[round + 1], 0, 1);
            let mut want = vec![0; 4 * PAGE_WORDS];
            want[PAGE_WORDS + 3] = round + 1;
            assert_eq!(b.snapshot(), want, "round {round}");
            b.write(0, &vec![0xFFFF_FFFF; 4 * PAGE_WORDS], 0, 2);
        }
    }

    #[test]
    fn snapshot_copies_contents() {
        let b = Bank::new(4, false);
        b.write(0, &[7, 8], 0, 1);
        assert_eq!(b.snapshot(), vec![7, 8, 0, 0]);
    }
}
