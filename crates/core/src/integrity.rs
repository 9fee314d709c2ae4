//! End-to-end data integrity: CRC32C stamps and verification state.
//!
//! Loud failures (lane aborts, `DeviceLost`) are survived by re-issue and
//! checkpoints; *silent* corruption is the failure mode this
//! module exists for. Every evicted page is a [`StampedPage`]: it carries a
//! CRC32C (Castagnoli) checksum computed from the pristine bytes before
//! they cross the simulated PCIe bus, and its bytes are reachable only
//! through [`StampedPage::verify`] — at host adoption, [`HostStore`]
//! absorption, every finalized-table reader, and an end-of-run scrub. The
//! persisted formats — the `SEPOHST4` table image, the `SEPOCKS3`
//! checkpoint file and each `SEPOCKP6` section inside it — carry
//! whole-image trailing checksums so any single flipped bit on disk is
//! rejected at load, never parsed into a silently wrong image.
//!
//! CRC32C detects *all* single-bit errors (and all odd-weight errors, all
//! burst errors up to 32 bits), which is exactly the fault model
//! [`FaultKind::CORRUPTION`] injects — so a seeded-corruption run either
//! recovers to a byte-identical image or fails loudly with a witness; it
//! can never complete with a divergent image.
//!
//! [`StampedPage`]: sepo_alloc::StampedPage
//! [`StampedPage::verify`]: sepo_alloc::StampedPage::verify
//! [`HostStore`]: crate::serve::HostStore
//! [`FaultKind::CORRUPTION`]: gpu_sim::FaultKind::CORRUPTION

use std::sync::Mutex;

use gpu_sim::sync::Relaxed;
use gpu_sim::FaultDraw;

/// How many times a transfer whose checksum failed verification is
/// re-issued before the eviction is declared unrecoverable.
pub const MAX_TRANSFER_RETRANSMITS: u32 = 8;

/// The witness carried by `SepoError::CorruptTransfer` when retransmission
/// is exhausted: which host page's eviction transfer kept failing
/// verification, and the corruption draw that condemned the final attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferFailure {
    /// Host id of the page whose eviction transfer failed verification.
    pub host_id: u64,
    /// The corruption draw behind the final failed attempt.
    pub error: FaultDraw,
}

/// Shared integrity state attached to a `SepoTable`: detection counters
/// and the unrecovered-transfer witness slot the driver polls at iteration
/// boundaries.
#[derive(Debug, Default)]
pub struct IntegrityState {
    pages_stamped: Relaxed<u64>,
    pages_verified: Relaxed<u64>,
    retransmits: Relaxed<u64>,
    failure: Mutex<Option<TransferFailure>>,
}

impl IntegrityState {
    /// Record a page stamped at eviction.
    pub fn note_stamped(&self) {
        self.pages_stamped.fetch_add(1);
    }

    /// Record a page whose stamp was re-verified clean.
    pub fn note_verified(&self) {
        self.pages_verified.fetch_add(1);
    }

    /// Record one detected-and-retransmitted in-flight corruption.
    pub fn note_retransmit(&self) {
        self.retransmits.fetch_add(1);
    }

    /// Record an eviction transfer that failed verification on every
    /// retransmit attempt. The first failure wins (it is the one the
    /// driver reports); later ones are counted but not stored.
    pub fn note_failure(&self, failure: TransferFailure) {
        let mut slot = self.failure.lock().unwrap();
        if slot.is_none() {
            *slot = Some(failure);
        }
    }

    /// Take the pending unrecovered-transfer witness, if any. Called by
    /// the driver at iteration boundaries; a `Some` aborts the run with
    /// `SepoError::CorruptTransfer`.
    pub fn take_failure(&self) -> Option<TransferFailure> {
        self.failure.lock().unwrap().take()
    }

    /// Pages stamped at eviction so far.
    pub fn pages_stamped(&self) -> u64 {
        self.pages_stamped.get()
    }

    /// Stamp re-verifications that passed so far.
    pub fn pages_verified(&self) -> u64 {
        self.pages_verified.get()
    }

    /// Detected-and-retransmitted in-flight corruptions so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }
}

/// Flip a single bit (chosen by `entropy`) in `data`, returning the damaged
/// copy. Used by injection sites; the offset is derived deterministically
/// from the corruption draw's entropy so damage is reproducible.
pub fn flip_bit(data: &[u8], entropy: u64) -> Vec<u8> {
    let mut out = data.to_vec();
    if !out.is_empty() {
        let bit = (entropy % (out.len() as u64 * 8)) as usize;
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// Flip a single whole byte (XOR with a nonzero mask chosen by `entropy`)
/// at a deterministic offset, in place. Used for disk-image corruption.
pub fn flip_byte_in_place(data: &mut [u8], entropy: u64) {
    if data.is_empty() {
        return;
    }
    let at = (entropy % data.len() as u64) as usize;
    // Mask is never zero, so the byte always changes.
    let mask = ((entropy >> 32) as u8) | 1;
    data[at] ^= mask;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultKind;

    #[test]
    fn flip_bit_damages_exactly_one_bit_deterministically() {
        let data = vec![0u8; 64];
        let a = flip_bit(&data, 12345);
        let b = flip_bit(&data, 12345);
        assert_eq!(a, b);
        let flipped: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn flip_byte_always_changes_the_image() {
        for entropy in [0u64, 1, 0xFFFF_FFFF_0000_0000, u64::MAX, 42 << 32] {
            let mut data = vec![7u8; 16];
            flip_byte_in_place(&mut data, entropy);
            assert_ne!(data, vec![7u8; 16], "entropy {entropy:#x} was a no-op");
        }
    }

    #[test]
    fn integrity_state_keeps_first_failure_and_counts() {
        let s = IntegrityState::default();
        s.note_stamped();
        s.note_verified();
        s.note_retransmit();
        let first = TransferFailure {
            host_id: 3,
            error: FaultDraw {
                kind: FaultKind::PcieBitFlip,
                draw: 9,
                entropy: 0,
            },
        };
        s.note_failure(first);
        s.note_failure(TransferFailure {
            host_id: 4,
            error: FaultDraw {
                kind: FaultKind::PcieBitFlip,
                draw: 10,
                entropy: 0,
            },
        });
        assert_eq!(s.take_failure(), Some(first));
        assert_eq!(s.take_failure(), None);
        assert_eq!(
            (s.pages_stamped(), s.pages_verified(), s.retransmits()),
            (1, 1, 1)
        );
    }
}
