//! The scheduler's priority queue: a four-ary min-heap.
//!
//! Replaces `BinaryHeap<Reverse<Item>>`. A wider heap halves the tree
//! depth, so the pop-heavy dispatch loop does fewer cache-missing level
//! hops; and because every queue entry carries a unique `(time, seq)`
//! key, *any* correct heap yields the same pop order — swapping the
//! structure cannot perturb the deterministic schedule.

/// Four children per node: parent of `i` is `(i - 1) / 4`, children of
/// `i` are `4 i + 1 ..= 4 i + 4`.
const ARITY: usize = 4;

/// A min-heap over `T`'s `Ord`. `T: Copy` lets the sifts move a hole
/// instead of swapping: one copy per level with the sifted item pinned
/// in a register, rather than three moves per level through memory —
/// the queue's keys are small `Copy` structs, so this is free.
pub struct FourAryHeap<T: Ord + Copy> {
    items: Vec<T>,
}

impl<T: Ord + Copy> FourAryHeap<T> {
    /// An empty heap. Does not allocate until the first push.
    pub fn new() -> Self {
        FourAryHeap { items: Vec::new() }
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The minimum item, if any.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    /// Insert an item (amortized O(1) allocation: the backing `Vec` only
    /// grows when the queue reaches a new high-water mark).
    // Three call sites on the calendar queue's hot path; left to the
    // inliner's size heuristic, whether it is inlined flips with
    // unrelated edits to the crate (ring_storm: 4-5 % either way).
    #[inline]
    pub fn push(&mut self, item: T) {
        self.items.push(item);
        self.sift_up(self.items.len() - 1);
    }

    /// Remove and return the minimum item.
    pub fn pop(&mut self) -> Option<T> {
        let min = *self.items.first()?;
        let last = self.items.pop().expect("non-empty: peeked");
        if !self.items.is_empty() {
            self.items[0] = last;
            self.sift_down(0);
        }
        Some(min)
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.items[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if item < self.items[parent] {
                self.items[i] = self.items[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.items[i] = item;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        let item = self.items[i];
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            // Scan the (up to four) children through a subslice so the
            // compiler drops the per-element bounds checks.
            let children = &self.items[first..(first + ARITY).min(n)];
            let mut smallest = first;
            let mut best = children[0];
            for (off, &c) in children.iter().enumerate().skip(1) {
                if c < best {
                    best = c;
                    smallest = first + off;
                }
            }
            if best < item {
                self.items[i] = best;
                i = smallest;
            } else {
                break;
            }
        }
        self.items[i] = item;
    }
}

impl<T: Ord + Copy> Default for FourAryHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_sorted_order() {
        let mut h = FourAryHeap::new();
        for v in [5u64, 1, 9, 3, 3, 7, 0, 2, 8, 6, 4] {
            h.push(v);
        }
        let mut out = Vec::new();
        while let Some(v) = h.pop() {
            out.push(v);
        }
        assert_eq!(out, [0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn matches_std_binary_heap_on_unique_keys() {
        // Unique keys -> total order -> any heap must agree with sorting.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut keys: Vec<(u64, u64)> = (0..500)
            .map(|seq| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) % 64, seq) // heavy time ties, unique seq
            })
            .collect();
        let mut h = FourAryHeap::new();
        for &k in &keys {
            h.push(k);
        }
        keys.sort_unstable();
        for expected in keys {
            assert_eq!(h.pop(), Some(expected));
        }
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_keeps_heap_property() {
        let mut h = FourAryHeap::new();
        for round in 0..10u64 {
            for v in 0..20u64 {
                h.push((v * 7 + round) % 31);
            }
            let mut prev = 0;
            for _ in 0..15 {
                let v = h.pop().unwrap();
                assert!(v >= prev);
                prev = v;
            }
        }
        let mut prev = 0;
        while let Some(v) = h.pop() {
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn peek_is_min_and_len_tracks() {
        let mut h = FourAryHeap::new();
        assert!(h.peek().is_none());
        assert_eq!(h.len(), 0);
        h.push(4);
        h.push(2);
        h.push(9);
        assert_eq!(h.peek(), Some(&2));
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.peek(), Some(&4));
    }
}
