//! A NIC's on-board memory bank, with optional write-provenance records
//! used by tests to verify the BillBoard Protocol's single-writer
//! discipline.

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

/// Words per lazily materialised page of a [`Bank`] (512 bytes).
///
/// Sized by measurement. A page is allocated by whichever thread runs the
/// hop event that first writes it, so pages land in glibc's per-thread
/// arenas, which never give memory back: the resident set of a host
/// process that runs one 16-rank MPI world after another creeps up with
/// the number of worlds. The BBP touches a few control words in each of
/// many regions, so smaller pages materialise fewer bytes. Peak RSS of the
/// benchmark's `mpi_collectives` after 10 s (≈ 42 worlds), two runs each:
/// 1 024 words 6.43 / 6.68 MB, 256 words 6.71 / 6.63, 128 words
/// 5.87 / 5.70, 64 words 5.96 / 5.96; throughput and the all-events
/// `ring_storm` did not move with any of them. See docs/PERFORMANCE.md,
/// "Chains".
const PAGE_WORDS: usize = 128;

/// One node's replicated memory image.
///
/// Stored as demand-allocated pages: a page no write has touched does not
/// exist and reads as zeros, so a world of many mostly-empty 1 MB banks
/// costs only the pages its protocols use.
pub(crate) struct Bank {
    len: usize,
    /// Grown to the highest page written so far, so building a bank costs
    /// nothing however small the pages are.
    pages: Vec<Option<Box<[Word; PAGE_WORDS]>>>,
    /// Last writer per word, when tracking is on.
    provenance: Option<Vec<Option<WriteRecord>>>,
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

impl Bank {
    pub fn new(words: usize, track_provenance: bool) -> Self {
        Bank {
            len: words,
            pages: Vec::new(),
            provenance: track_provenance.then(|| vec![None; words]),
        }
    }

    /// The page table bounds nothing: absent pages read as zeros.
    #[inline]
    fn check_range(&self, addr: WordAddr, len: usize) {
        assert!(
            addr + len <= self.len,
            "words {addr}..{} out of range for a bank of {} words",
            addr + len,
            self.len
        );
    }

    #[inline]
    pub fn read(&self, addr: WordAddr) -> Word {
        self.check_range(addr, 1);
        match self.pages.get(addr / PAGE_WORDS) {
            Some(Some(page)) => page[addr % PAGE_WORDS],
            _ => 0,
        }
    }

    pub fn read_block(&self, addr: WordAddr, len: usize) -> Vec<Word> {
        self.check_range(addr, len);
        let mut out = vec![0; len];
        for (page, off, at, n) in pieces(addr, len) {
            if let Some(Some(page)) = self.pages.get(page) {
                out[at..at + n].copy_from_slice(&page[off..off + n]);
            }
        }
        out
    }

    /// Apply a replicated write. Returns the set of conflicting writers if
    /// provenance is tracked and this word previously had a *different*
    /// writer — the caller surfaces that to the single-writer checker.
    pub fn apply(
        &mut self,
        addr: WordAddr,
        data: &[Word],
        writer: usize,
        at: des::Time,
    ) -> Vec<(WordAddr, usize)> {
        let mut conflicts = Vec::new();
        self.check_range(addr, data.len());
        for (page, off, at, n) in pieces(addr, data.len()) {
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let page = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
            page[off..off + n].copy_from_slice(&data[at..at + n]);
        }
        if let Some(prov) = self.provenance.as_mut() {
            for (i, slot) in prov[addr..addr + data.len()].iter_mut().enumerate() {
                if let Some(prev) = slot {
                    if prev.writer != writer {
                        conflicts.push((addr + i, prev.writer));
                    }
                }
                *slot = Some(WriteRecord {
                    writer,
                    applied_at: at,
                });
            }
        }
        conflicts
    }

    /// Provenance of one word (None if never written or tracking is off).
    pub fn provenance(&self, addr: WordAddr) -> Option<WriteRecord> {
        self.provenance.as_ref().and_then(|p| p[addr])
    }

    /// Raw snapshot of the whole bank, for eventual-consistency checks.
    pub fn snapshot(&self) -> Vec<Word> {
        self.read_block(0, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_apply_sees_data() {
        let mut b = Bank::new(64, false);
        b.apply(10, &[1, 2, 3], 0, 5);
        assert_eq!(b.read(10), 1);
        assert_eq!(b.read_block(10, 3), vec![1, 2, 3]);
        assert_eq!(b.read(13), 0);
    }

    #[test]
    fn provenance_records_last_writer() {
        let mut b = Bank::new(16, true);
        b.apply(3, &[9], 2, 100);
        let rec = b.provenance(3).unwrap();
        assert_eq!(rec.writer, 2);
        assert_eq!(rec.applied_at, 100);
        assert!(b.provenance(4).is_none());
    }

    #[test]
    fn conflicting_writers_are_reported() {
        let mut b = Bank::new(16, true);
        assert!(b.apply(5, &[1], 0, 10).is_empty());
        assert!(b.apply(5, &[2], 0, 20).is_empty(), "same writer is fine");
        let conflicts = b.apply(5, &[3], 1, 30);
        assert_eq!(conflicts, vec![(5, 0)]);
    }

    #[test]
    fn no_provenance_means_no_conflicts_reported() {
        let mut b = Bank::new(16, false);
        b.apply(5, &[1], 0, 10);
        assert!(b.apply(5, &[2], 1, 20).is_empty());
        assert!(b.provenance(5).is_none());
    }

    #[test]
    fn never_written_pages_read_as_zeros() {
        let words = 3 * PAGE_WORDS + 10; // a partial last page
        let mut b = Bank::new(words, false);
        assert_eq!(b.len, words);
        assert_eq!(b.read(0), 0);
        assert_eq!(b.read(words - 1), 0);
        assert_eq!(b.read_block(PAGE_WORDS - 2, 4), vec![0; 4]);
        assert_eq!(b.snapshot(), vec![0; words]);
        assert!(
            b.pages.iter().all(Option::is_none),
            "reads allocate nothing"
        );
        // One write materialises one page; its neighbours stay absent.
        b.apply(PAGE_WORDS + 5, &[7], 0, 1);
        assert_eq!(b.pages.iter().filter(|p| p.is_some()).count(), 1);
        assert_eq!(b.read(PAGE_WORDS + 5), 7);
        assert_eq!(b.read(PAGE_WORDS + 6), 0);
    }

    #[test]
    fn write_straddling_a_page_edge_lands_on_both_pages() {
        let mut b = Bank::new(4 * PAGE_WORDS, true);
        let data: Vec<Word> = (1..=6).collect();
        let addr = 2 * PAGE_WORDS - 2;
        b.apply(addr, &data, 3, 9);
        assert_eq!(b.read(addr - 1), 0);
        assert_eq!(b.read_block(addr, 6), data);
        assert_eq!(b.read(addr + 6), 0);
        assert_eq!(b.pages.iter().filter(|p| p.is_some()).count(), 2);
        assert_eq!(b.provenance(addr + 5).unwrap().writer, 3);
        let snap = b.snapshot();
        assert_eq!(snap.len(), 4 * PAGE_WORDS);
        assert_eq!(&snap[addr..addr + 6], &data[..]);
        assert_eq!(snap.iter().filter(|&&w| w != 0).count(), 6);
        // A block longer than a page crosses two edges.
        let long: Vec<Word> = (0..PAGE_WORDS as Word + 8).map(|i| i + 100).collect();
        b.apply(PAGE_WORDS / 2, &long, 3, 10);
        assert_eq!(b.read_block(PAGE_WORDS / 2, long.len()), long);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_still_panics() {
        // The last page is partial; its tail must not become addressable.
        Bank::new(PAGE_WORDS + 10, false).read(PAGE_WORDS + 10);
    }

    #[test]
    fn snapshot_copies_contents() {
        let mut b = Bank::new(4, false);
        b.apply(0, &[7, 8], 0, 1);
        assert_eq!(b.snapshot(), vec![7, 8, 0, 0]);
    }
}
