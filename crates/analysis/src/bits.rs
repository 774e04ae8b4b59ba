//! Dense bitsets over small index universes: the representation of the
//! register dataflow facts and of the PDG builder's membership tests.
//!
//! A set is a slice of 64-bit words; several sets of one universe are kept
//! back to back in one `Vec<u64>` (one row per block), so a fixpoint step is
//! a handful of word operations with no allocation.

/// Words needed to hold `n` bits.
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether bit `i` of `w` is set.
#[inline]
pub(crate) fn test(w: &[u64], i: usize) -> bool {
    (w[i / 64] >> (i % 64)) & 1 != 0
}

/// Sets bit `i` of `w`.
#[inline]
pub(crate) fn insert(w: &mut [u64], i: usize) {
    w[i / 64] |= 1u64 << (i % 64);
}

/// Sets (`on`) or clears bits `range` of `w`.
pub(crate) fn fill(w: &mut [u64], range: std::ops::Range<usize>, on: bool) {
    for i in range {
        let mask = 1u64 << (i % 64);
        if on {
            w[i / 64] |= mask;
        } else {
            w[i / 64] &= !mask;
        }
    }
}

/// `dst |= src`; returns whether `dst` grew.
#[inline]
pub(crate) fn union_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= s & !*d != 0;
        *d |= s;
    }
    grew
}

/// The set bits of `w`, in increasing order.
pub(crate) fn iter(w: &[u64]) -> impl Iterator<Item = usize> + '_ {
    w.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                k * 64 + bit
            })
        })
    })
}

/// `planes` square bit matrices over `0..n` in one buffer, one row of
/// words per index.
#[derive(Clone)]
pub(crate) struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// `planes` empty `n × n` matrices.
    pub(crate) fn new(planes: usize, n: usize) -> Self {
        let words = words(n);
        BitMatrix {
            n,
            words,
            bits: vec![0; planes * n * words],
        }
    }

    /// Row `i` of plane `p`.
    #[inline]
    pub(crate) fn row(&self, p: usize, i: usize) -> &[u64] {
        &self.bits[(p * self.n + i) * self.words..][..self.words]
    }

    /// Row `i` of plane `p`, mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, p: usize, i: usize) -> &mut [u64] {
        &mut self.bits[(p * self.n + i) * self.words..][..self.words]
    }

    /// Sets `(i, j)` of plane `p`.
    #[inline]
    pub(crate) fn insert(&mut self, p: usize, i: usize, j: usize) {
        insert(self.row_mut(p, i), j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations_agree_with_a_bool_model() {
        let n = 150;
        let mut w = vec![0u64; words(n)];
        let mut model = vec![false; n];
        for i in (0..n).step_by(7).chain([63, 64, 128, 149]) {
            insert(&mut w, i);
            model[i] = true;
        }
        fill(&mut w, 60..70, false);
        model[60..70].fill(false);
        fill(&mut w, 120..130, true);
        model[120..130].fill(true);
        let expect: Vec<usize> = (0..n).filter(|&i| model[i]).collect();
        assert_eq!(iter(&w).collect::<Vec<_>>(), expect);
        assert!((0..n).all(|i| test(&w, i) == model[i]));

        let mut other = vec![0u64; words(n)];
        insert(&mut other, 61);
        assert!(union_into(&mut other, &w));
        assert!(!union_into(&mut other, &w));
        assert!(test(&other, 61) && test(&other, 149));
    }
}
