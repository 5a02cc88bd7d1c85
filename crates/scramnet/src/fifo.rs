//! A source's transmit FIFO: records of the packets its NIC holds behind
//! the one it is sending, in 1 KB pages of the process-wide free list that
//! bank pages come from.
//!
//! A record is a run of words and a 16-bit tag, which share a word with
//! its length. It never spans two pages: one that does not fit in the rest
//! of the last page starts a new page, and a zero word ends the old one
//! where it stopped (a record's first word, its length and tag, is never
//! zero). A page the front record has left goes straight back to
//! the free list, and the last one when the FIFO empties, so a source with
//! nothing waiting holds no page, and a ring built after one was dropped
//! faults none in.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use crate::bank::{give_page, take_page, Page, PAGE_WORDS};
use crate::Word;

#[derive(Default)]
pub(crate) struct Fifo {
    /// Oldest first: the front record is in the first, the next record
    /// goes in the last.
    pages: VecDeque<Page>,
    /// Where the front record starts in the first page.
    head: usize,
    /// Where the next record goes in the last page.
    tail: usize,
    /// Records held.
    len: usize,
}

impl Fifo {
    /// Words a record holds at most: a page, less its length and tag.
    pub const MAX_WORDS: usize = PAGE_WORDS - 1;

    /// Append the record `parts` make laid end to end, at least one word
    /// and at most [`Self::MAX_WORDS`], tagged `tag`.
    pub fn push(&mut self, tag: u16, parts: &[&[Word]]) {
        let words: usize = parts.iter().map(|part| part.len()).sum();
        assert!(
            (1..=Self::MAX_WORDS).contains(&words),
            "a {words}-word record does not fit a FIFO page"
        );
        if self.pages.is_empty() || self.tail + 1 + words > PAGE_WORDS {
            if let Some(last) = self.pages.back_mut().filter(|_| self.tail < PAGE_WORDS) {
                *last[self.tail].get_mut() = 0;
            }
            self.pages.push_back(take_page());
            self.tail = 0;
        }
        let page = self.pages.back_mut().expect("the last page has room");
        *page[self.tail].get_mut() = words as Word | Word::from(tag) << 16;
        self.tail += 1;
        for part in parts {
            let slots = &mut page[self.tail..self.tail + part.len()];
            for (slot, &word) in slots.iter_mut().zip(*part) {
                *slot.get_mut() = word;
            }
            self.tail += part.len();
        }
        self.len += 1;
    }

    /// Move the front record into `out`, in place of what it held, and
    /// return its tag; `None` when there is none.
    pub fn pop(&mut self, out: &mut Vec<Word>) -> Option<u16> {
        if self.len == 0 {
            return None;
        }
        if self.head == PAGE_WORDS || *self.pages[0][self.head].get_mut() == 0 {
            give_page(
                self.pages
                    .pop_front()
                    .expect("a record is on the next page"),
            );
            self.head = 0;
        }
        let page = &self.pages[0];
        let first = page[self.head].load(Ordering::Relaxed);
        let words = first as u16 as usize;
        let record = &page[self.head + 1..][..words];
        out.clear();
        out.extend(record.iter().map(|word| word.load(Ordering::Relaxed)));
        self.head += 1 + words;
        self.len -= 1;
        if self.len == 0 {
            self.pages.drain(..).for_each(give_page);
            (self.head, self.tail) = (0, 0);
        }
        Some((first >> 16) as u16)
    }
}

impl Drop for Fifo {
    fn drop(&mut self) {
        self.pages.drain(..).for_each(give_page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records of 1 to `MAX_WORDS` words, pushed and popped in waves that
    /// empty the FIFO and that do not, come back whole, with their tags and
    /// in order; pages break where a record would not fit; an emptied FIFO
    /// holds no page.
    #[test]
    fn records_come_back_whole_and_in_order() {
        let mut fifo = Fifo::default();
        let mut out = Vec::new();
        let record = |i: usize| -> Vec<Word> {
            let words = 1 + i * 37 % Fifo::MAX_WORDS;
            (0..words).map(|w| (i << 16 | w) as Word).collect()
        };
        let (mut pushed, mut popped) = (0, 0);
        for wave in 1..=40 {
            for _ in 0..wave {
                let r = record(pushed);
                let (head, rest) = r.split_at(r.len() / 2);
                fifo.push(pushed as u16 ^ 0xFFFF, &[head, &[], rest]);
                pushed += 1;
            }
            let keep = if wave % 3 == 0 { 0 } else { wave / 2 };
            while pushed - popped > keep {
                assert_eq!(fifo.pop(&mut out), Some(popped as u16 ^ 0xFFFF));
                assert_eq!(out, record(popped), "record {popped}");
                popped += 1;
            }
            assert_eq!(fifo.len, keep);
            assert_eq!(fifo.pages.is_empty(), keep == 0);
        }
        assert!(fifo.pages.len() > 1, "records spanned pages");
        while fifo.pop(&mut out).is_some() {
            assert_eq!(out, record(popped));
            popped += 1;
        }
        assert_eq!((popped, fifo.pages.len()), (pushed, 0));
    }

    #[test]
    #[should_panic(expected = "a 256-word record does not fit a FIFO page")]
    fn a_record_longer_than_a_page_is_refused() {
        Fifo::default().push(0, &[&[1; PAGE_WORDS]]);
    }
}
