//! The processed-record bitmap.
//!
//! "We keep track of whether the input records have been successfully
//! processed or not in a bitmap that has one bit per input record"
//! (§III-B). Kernel lanes set bits concurrently on SUCCESS; between
//! iterations the driver scans for unset bits to build the next pending
//! set.

use gpu_sim::charge::Charge;
use gpu_sim::shadow::{AccessKind, ShadowAddr};
use gpu_sim::sync::Relaxed;

/// A fixed-size concurrent bitmap, one bit per task. Its words carry no
/// payload: a set bit is idempotent and monotone within an iteration, and
/// the driver scans them only at the quiescent boundary.
#[derive(Debug)]
pub struct Bitmap {
    words: Box<[Relaxed<u64>]>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| Relaxed::new(0)).collect();
        Bitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`. Idempotent; safe to call concurrently.
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64].fetch_or(1 << (i % 64));
    }

    /// [`Bitmap::set`] declaring the word access to the shadow sanitizer —
    /// the form kernel lanes use, so cross-warp bitmap traffic is checked.
    #[inline]
    pub fn set_charged<C: Charge>(&self, i: usize, charge: &mut C) {
        charge.access(ShadowAddr::BitmapWord((i / 64) as u32), AccessKind::Atomic);
        self.set(i);
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64].get() & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    ///
    /// A count above `len` means a bit past the end was set — memory
    /// corruption, not a condition to paper over. It trips the debug
    /// assertion here and is surfaced by `TableAudit` in release builds
    /// (the raw count is returned unclamped so the audit can see it).
    pub fn count_set(&self) -> usize {
        let n: usize = self
            .words
            .iter()
            .map(|w| w.get().count_ones() as usize)
            .sum();
        debug_assert!(
            n <= self.len,
            "bitmap corrupt: {n} bits set in a bitmap of {} bits",
            self.len
        );
        n
    }

    /// Indices of clear bits, ascending — the pending set for the next SEPO
    /// iteration.
    pub fn unset_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, word) in self.words.iter().enumerate() {
            let mut inv = !word.get();
            // Mask off the tail beyond `len`.
            if (wi + 1) * 64 > self.len {
                let valid = self.len - wi * 64;
                if valid < 64 {
                    inv &= (1u64 << valid) - 1;
                }
            }
            while inv != 0 {
                let bit = inv.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                inv &= inv - 1;
            }
        }
        out
    }

    /// Raw word values, for checkpointing at a quiescent point.
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.words.iter().map(Relaxed::get).collect()
    }

    /// Overwrite the words with a checkpointed snapshot (hard-fault
    /// recovery at a quiescent point). Panics on a length mismatch.
    pub fn restore_words(&self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "bitmap word count mismatch");
        for (w, &v) in self.words.iter().zip(words) {
            w.set(v);
        }
    }

    /// Are all bits set?
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// Clear every bit.
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_roundtrip() {
        let b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65) && !b.get(128));
        assert_eq!(b.count_set(), 3);
    }

    #[test]
    fn unset_indices_enumerates_pending() {
        let b = Bitmap::new(10);
        for i in [0usize, 2, 4, 6, 8] {
            b.set(i);
        }
        assert_eq!(b.unset_indices(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn tail_bits_are_masked() {
        let b = Bitmap::new(70);
        for i in 0..70 {
            b.set(i);
        }
        assert!(b.all_set());
        assert!(b.unset_indices().is_empty());
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert!(b.all_set());
        assert!(b.unset_indices().is_empty());
    }

    #[test]
    fn clear_all_resets() {
        let b = Bitmap::new(100);
        for i in 0..100 {
            b.set(i);
        }
        b.clear_all();
        assert_eq!(b.count_set(), 0);
        assert_eq!(b.unset_indices().len(), 100);
    }

    #[test]
    fn word_snapshot_restore_round_trips() {
        let b = Bitmap::new(130);
        for i in [0usize, 63, 64, 129] {
            b.set(i);
        }
        let snap = b.snapshot_words();
        b.set(10);
        b.set(70);
        b.restore_words(&snap);
        assert_eq!(b.snapshot_words(), snap);
        assert_eq!(b.count_set(), 4);
        assert!(!b.get(10) && !b.get(70));
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn restore_words_rejects_wrong_length() {
        let b = Bitmap::new(130);
        b.restore_words(&[0u64; 2]);
    }

    #[test]
    fn concurrent_sets_all_land() {
        let b = Arc::new(Bitmap::new(8_000));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in (t..8_000).step_by(8) {
                        b.set(i);
                    }
                });
            }
        });
        assert!(b.all_set());
    }

    #[test]
    fn set_is_idempotent() {
        let b = Bitmap::new(8);
        b.set(3);
        b.set(3);
        assert_eq!(b.count_set(), 1);
    }

    #[test]
    fn set_charged_declares_the_word() {
        use gpu_sim::shadow::{AccessKind, ShadowAddr};

        struct Recorder(Vec<(ShadowAddr, AccessKind)>);
        impl Charge for Recorder {
            fn add(&mut self, _: gpu_sim::Counter, _: u64) {}
            fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
                self.0.push((addr, kind));
            }
        }

        let b = Bitmap::new(130);
        let mut rec = Recorder(Vec::new());
        b.set_charged(0, &mut rec);
        b.set_charged(129, &mut rec);
        assert!(b.get(0) && b.get(129));
        assert_eq!(
            rec.0,
            vec![
                (ShadowAddr::BitmapWord(0), AccessKind::Atomic),
                (ShadowAddr::BitmapWord(2), AccessKind::Atomic),
            ]
        );
    }
}
