//! Dense word-packed bitmaps used as scan masks.
//!
//! Column-oriented scans in the paper carry "a bitmap containing one
//! bit per row, dictating whether a particular value should be
//! considered by the scan or skipped" (Section III-C3). The AOSI
//! visibility pass builds these bitmaps from the epochs vector; filter
//! evaluation then ANDs additional predicates into the same mask.
//!
//! The operations the visibility pass needs are bulk range operations
//! (set a contiguous run of rows inserted by one transaction, clear
//! everything below a delete point), so those are first-class here and
//! operate a word at a time.

const WORD_BITS: usize = 64;

/// A fixed-length bitmap with one bit per row position.
///
/// Bits are indexed from zero. All range operations take half-open
/// `start..end` ranges, matching the implicit record-id ranges stored
/// in the AOSI epochs vector.
///
/// ```
/// use columnar::Bitmap;
/// let mut visible = Bitmap::new(10);
/// visible.set_range(0, 4);      // a transaction's run of rows
/// visible.clear_range(0, 2);    // a delete cleanup pass
/// assert_eq!(visible.to_bit_string(), "0011000000");
/// assert_eq!(visible.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bitmap of `len` bits, all one.
    pub fn new_set(len: usize) -> Self {
        let mut bm = Bitmap::new(len);
        bm.set_range(0, len);
        bm
    }

    /// Number of bit positions (rows) covered by this bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len()`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] & (1u64 << (idx % WORD_BITS)) != 0
    }

    /// Sets the bit at `idx` to one.
    ///
    /// # Panics
    /// Panics if `idx >= len()`.
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Clears the bit at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len()`.
    pub fn clear(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
    }

    /// Sets all bits in `start..end` to one, a word at a time.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len()`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        self.for_each_word_in_range(start, end, |word, mask| *word |= mask);
    }

    /// Clears all bits in `start..end`, a word at a time.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len()`.
    pub fn clear_range(&mut self, start: usize, end: usize) {
        self.for_each_word_in_range(start, end, |word, mask| *word &= !mask);
    }

    fn for_each_word_in_range(
        &mut self,
        start: usize,
        end: usize,
        mut apply: impl FnMut(&mut u64, u64),
    ) {
        assert!(start <= end, "range start {start} > end {end}");
        assert!(end <= self.len, "range end {end} out of range {}", self.len);
        if start == end {
            return;
        }
        let first_word = start / WORD_BITS;
        let last_word = (end - 1) / WORD_BITS;
        let first_mask = !0u64 << (start % WORD_BITS);
        // end is exclusive; `end % 64 == 0` means the final word is fully covered.
        let last_mask = match end % WORD_BITS {
            0 => !0u64,
            rem => !0u64 >> (WORD_BITS - rem),
        };
        if first_word == last_word {
            apply(&mut self.words[first_word], first_mask & last_mask);
            return;
        }
        apply(&mut self.words[first_word], first_mask);
        for word in &mut self.words[first_word + 1..last_word] {
            apply(word, !0u64);
        }
        apply(&mut self.words[last_word], last_mask);
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn and(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= *o;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the bitmaps have different lengths.
    pub fn or(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= *o;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits within `start..end`.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len()`.
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> usize {
        assert!(start <= end, "range start {start} > end {end}");
        assert!(end <= self.len, "range end {end} out of range {}", self.len);
        if start == end {
            return 0;
        }
        let first_word = start / WORD_BITS;
        let last_word = (end - 1) / WORD_BITS;
        let first_mask = !0u64 << (start % WORD_BITS);
        let last_mask = match end % WORD_BITS {
            0 => !0u64,
            rem => !0u64 >> (WORD_BITS - rem),
        };
        if first_word == last_word {
            return (self.words[first_word] & first_mask & last_mask).count_ones() as usize;
        }
        let mut total = (self.words[first_word] & first_mask).count_ones() as usize;
        for word in &self.words[first_word + 1..last_word] {
            total += word.count_ones() as usize;
        }
        total + (self.words[last_word] & last_mask).count_ones() as usize
    }

    /// `true` if no bit is set.
    pub fn is_all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the indexes of set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi * WORD_BITS;
            BitIter { word }.map(move |b| base + b)
        })
    }

    /// Heap bytes used by the bitmap payload.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Renders the bitmap as a `0`/`1` string, lowest index first.
    ///
    /// This matches the presentation of Table III in the paper and is
    /// used by tests that reproduce it.
    pub fn to_bit_string(&self) -> String {
        (0..self.len)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect()
    }

    /// Parses a `0`/`1` string into a bitmap (lowest index first).
    ///
    /// # Panics
    /// Panics on characters other than `0`/`1`.
    pub fn from_bit_string(s: &str) -> Self {
        let mut bm = Bitmap::new(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => bm.set(i),
                '0' => {}
                other => panic!("invalid bitmap character {other:?}"),
            }
        }
        bm
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap({})", self.to_bit_string())
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(130);
        assert_eq!(bm.len(), 130);
        assert!(bm.is_all_zero());
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn new_set_is_all_ones() {
        let bm = Bitmap::new_set(130);
        assert_eq!(bm.count_ones(), 130);
        assert!(bm.get(0));
        assert!(bm.get(129));
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bm = Bitmap::new(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1) && !bm.get(65));
        bm.clear(63);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn set_range_within_one_word() {
        let mut bm = Bitmap::new(64);
        bm.set_range(3, 7);
        assert_eq!(bm.count_ones(), 4);
        assert!(!bm.get(2) && bm.get(3) && bm.get(6) && !bm.get(7));
    }

    #[test]
    fn set_range_spanning_words() {
        let mut bm = Bitmap::new(200);
        bm.set_range(60, 140);
        assert_eq!(bm.count_ones(), 80);
        assert!(!bm.get(59) && bm.get(60) && bm.get(139) && !bm.get(140));
    }

    #[test]
    fn set_range_word_aligned_end() {
        let mut bm = Bitmap::new(128);
        bm.set_range(0, 128);
        assert_eq!(bm.count_ones(), 128);
        bm.clear_range(64, 128);
        assert_eq!(bm.count_ones(), 64);
        assert!(bm.get(63) && !bm.get(64));
    }

    #[test]
    fn empty_range_is_noop() {
        let mut bm = Bitmap::new(10);
        bm.set_range(5, 5);
        assert!(bm.is_all_zero());
    }

    #[test]
    fn clear_range_spanning_words() {
        let mut bm = Bitmap::new_set(300);
        bm.clear_range(10, 290);
        assert_eq!(bm.count_ones(), 20);
        assert!(bm.get(9) && !bm.get(10) && !bm.get(289) && bm.get(290));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bm = Bitmap::new(8);
        bm.set(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_end_out_of_range_panics() {
        let mut bm = Bitmap::new(8);
        bm.set_range(0, 9);
    }

    #[test]
    fn count_ones_in_range_matches_manual_count() {
        let mut bm = Bitmap::new(300);
        for i in (0..300).step_by(3) {
            bm.set(i);
        }
        for (start, end) in [
            (0, 300),
            (0, 0),
            (5, 5),
            (1, 64),
            (63, 65),
            (60, 200),
            (128, 192),
        ] {
            let expected = (start..end).filter(|&i| bm.get(i)).count();
            assert_eq!(
                bm.count_ones_in_range(start, end),
                expected,
                "range {start}..{end}"
            );
        }
    }

    #[test]
    fn and_or_combine() {
        let mut a = Bitmap::new(70);
        a.set_range(0, 40);
        let mut b = Bitmap::new(70);
        b.set_range(30, 70);
        let mut and = a.clone();
        and.and(&b);
        assert_eq!(and.count_ones(), 10);
        let mut or = a.clone();
        or.or(&b);
        assert_eq!(or.count_ones(), 70);
    }

    #[test]
    fn iter_ones_yields_ascending_indexes() {
        let mut bm = Bitmap::new(150);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 149] {
            bm.set(i);
        }
        let ones: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 127, 128, 149]);
    }

    #[test]
    fn bit_string_roundtrip() {
        let s = "1100100010";
        let bm = Bitmap::from_bit_string(s);
        assert_eq!(bm.to_bit_string(), s);
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn zero_length_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }
}
