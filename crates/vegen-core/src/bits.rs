//! Word-level bitset helpers for the beam's transition kernel.
//!
//! Every set the hot path intersects — free instructions, scalar demands,
//! users of a value, values a pack depends on — is a row of `words`
//! `u64`s indexed by `ValueId`, so a membership test over a whole set is
//! a handful of word-ANDs instead of a walk over a list.

/// Whether bit `i` is set.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Set bit `i`; returns whether it was clear before.
pub(crate) fn set_bit(words: &mut [u64], i: usize) -> bool {
    let m = 1u64 << (i % 64);
    let was_clear = words[i / 64] & m == 0;
    words[i / 64] |= m;
    was_clear
}

/// Clear bit `i`; returns whether it was set before.
pub(crate) fn clear_bit(words: &mut [u64], i: usize) -> bool {
    let m = 1u64 << (i % 64);
    let was_set = words[i / 64] & m != 0;
    words[i / 64] &= !m;
    was_set
}

/// Whether `a ∩ b` is non-empty.
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The set bits of one word (offset by `base`), ascending.
fn word_ones(base: usize, mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if w == 0 {
            return None;
        }
        let b = w.trailing_zeros() as usize;
        w &= w - 1;
        Some(base + b)
    })
}

/// Indices of the set bits, ascending — the iteration order of a
/// `BTreeSet` over the same indices.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| word_ones(wi * 64, w))
}

/// A row-major bit matrix: `rows × words` `u64`s, one bitset per row.
#[derive(Debug)]
pub(crate) struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix.
    pub(crate) fn new(rows: usize, words: usize) -> BitMatrix {
        BitMatrix { words, bits: vec![0; rows * words] }
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Row `i`, mutably.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_operations_report_the_previous_state() {
        let mut w = vec![0u64; 2];
        assert!(set_bit(&mut w, 70));
        assert!(!set_bit(&mut w, 70), "already set");
        assert!(bit(&w, 70) && !bit(&w, 6));
        assert!(clear_bit(&mut w, 70));
        assert!(!clear_bit(&mut w, 70), "already clear");
        assert_eq!(w, vec![0, 0]);
    }

    #[test]
    fn ones_iterates_ascending_across_words() {
        let mut w = vec![0u64; 3];
        for i in [191usize, 0, 64, 63, 130] {
            set_bit(&mut w, i);
        }
        assert_eq!(ones(&w).collect::<Vec<_>>(), vec![0, 63, 64, 130, 191]);
    }

    #[test]
    fn intersection_is_tested_word_by_word() {
        let a = [0b0110u64, 1 << 40];
        assert!(intersects(&a, &[0b1110, 0]));
        assert!(intersects(&a, &[0, 1 << 40 | 1]));
        assert!(!intersects(&a, &[0b1001, 1]));
    }

    #[test]
    fn matrix_rows_are_disjoint_slices() {
        let mut m = BitMatrix::new(3, 2);
        set_bit(m.row_mut(1), 65);
        assert_eq!(m.row(0), &[0, 0]);
        assert_eq!(m.row(1), &[0, 2]);
        assert_eq!(m.row(2), &[0, 0]);
    }
}
