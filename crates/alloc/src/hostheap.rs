//! The CPU-memory side of the heap.
//!
//! When the SEPO driver evicts device pages (§IV-C), their bytes are copied
//! into the `HostHeap`, indexed by the **host page id** the page was
//! stamped with at acquisition, together with the page's [`PageKind`] (the
//! multi-valued organization enumerates key pages and value pages
//! differently). Because every [`HostLink`](crate::HostLink) created on the
//! device already names `(host_page_id, offset)`, evicted chains remain
//! traversable on the CPU without any pointer rewriting — the paper's
//! "eventual location of contents in CPU memory" pointer (§III-B).
//!
//! A host page is one type, [`StampedPage`]: identity, kind, the CRC32C
//! stamp computed from the pristine bytes before they left the device, and
//! the `Arc`-shared bytes, which are private. There are two ways out:
//!
//! * **transport** — clone, [`PageRecord`], [`HostHeap::store`] /
//!   [`HostHeap::restore`]: bytes and stamp move together, nothing is read;
//! * **[`StampedPage::verify`]** — the only route to parseable bytes: it
//!   recomputes the checksum and hands out a [`VerifiedPage`], or a
//!   [`CorruptPage`] naming the host id.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::codec::{Bytes, U32, U64, U8};
use crate::heap::PageKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) slice-by-8
/// tables, built at compile time. `CRC32C_TABLES[0]` is the classic
/// one-byte-per-step table; `CRC32C_TABLES[k][b]` advances byte `b` past `k`
/// further zero bytes, so eight lookups fold eight input bytes at once.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32C of `data` (initial value all-ones, final inversion — the standard
/// iSCSI/ext4 convention, so `crc32c(b"123456789") == 0xE3069283`). Uses
/// the CPU's CRC32C instruction where there is one (SSE4.2, detected at
/// run time), eight bytes a step; otherwise slice-by-8 tables. Both give
/// the same value.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_sliced(data)
}

/// CRC32C through the SSE4.2 `crc32` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// CRC32C through the slice-by-8 tables: zero dependencies, several times
/// the bytewise table's rate.
fn crc32c_sliced(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[w[4] as usize]
            ^ t2[w[5] as usize]
            ^ t1[w[6] as usize]
            ^ t0[w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A host page whose bytes no longer match the stamp they were evicted
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPage {
    /// Host id of the damaged page.
    pub host_id: u64,
}

impl fmt::Display for CorruptPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host page {} failed checksum verification", self.host_id)
    }
}

impl std::error::Error for CorruptPage {}

/// An evicted page image: the never-reused host identity stamped at page
/// acquisition, the page kind, the CRC32C of the pristine bytes, and the
/// bytes themselves, shared so that checkpoints, snapshots and the host
/// heap pass one buffer around by refcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedPage {
    host_id: u64,
    kind: PageKind,
    crc: u32,
    data: Arc<[u8]>,
}

impl StampedPage {
    /// Stamp pristine bytes as they leave the device.
    pub fn stamp(host_id: u64, kind: PageKind, data: impl Into<Arc<[u8]>>) -> Self {
        let data = data.into();
        let crc = crc32c(&data);
        StampedPage::from_parts(host_id, kind, data, crc)
    }

    /// Rejoin bytes with a stamp computed elsewhere (an injected fault).
    /// Transport: nothing is checked until [`StampedPage::verify`].
    pub fn from_parts(host_id: u64, kind: PageKind, data: impl Into<Arc<[u8]>>, crc: u32) -> Self {
        StampedPage {
            host_id,
            kind,
            crc,
            data: data.into(),
        }
    }

    pub fn host_id(&self) -> u64 {
        self.host_id
    }

    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// The CRC32C the bytes carried when they left the device.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Recompute the checksum and hand out the bytes if it matches the
    /// stamp. The page image is shared, not copied.
    pub fn verify(&self) -> Result<VerifiedPage, CorruptPage> {
        if crc32c(&self.data) != self.crc {
            return Err(CorruptPage {
                host_id: self.host_id,
            });
        }
        Ok(VerifiedPage(self.clone()))
    }
}

crate::record! {
    /// The page record that the `SEPOHST4` image and the `SEPOCKP6`
    /// section share. Reading one re-verifies the persisted stamp against
    /// the payload, so the detection chain reaches back to the checksum
    /// computed when the page originally left the device.
    pub PageRecord: StampedPage {
        host_id: U64("host page id"),
        kind: U8("host page kind"),
        crc: U32("host page checksum stamp"),
        data: Bytes("host page length", "host page payload"),
    }
    then StampedPage::verify
}

/// A page image whose bytes matched their stamp: only
/// [`StampedPage::verify`] makes one.
#[derive(Debug, Clone)]
pub struct VerifiedPage(StampedPage);

impl VerifiedPage {
    pub fn host_id(&self) -> u64 {
        self.0.host_id
    }

    pub fn kind(&self) -> PageKind {
        self.0.kind
    }

    pub fn bytes(&self) -> &[u8] {
        &self.0.data
    }
}

/// Store of evicted pages, keyed by host page id.
#[derive(Debug, Default)]
pub struct HostHeap {
    pages: Mutex<BTreeMap<u64, StampedPage>>,
}

impl HostHeap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an evicted page under its host id. Re-storing the same id
    /// replaces the copy (used when a kept page is finally evicted with
    /// more content than a prior snapshot). The page's buffer is shared,
    /// never copied.
    pub fn store(&self, page: StampedPage) {
        self.pages.lock().insert(page.host_id, page);
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        self.pages.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.lock().is_empty()
    }

    /// Total stored bytes (the hash table's CPU-side footprint).
    pub fn total_bytes(&self) -> u64 {
        self.pages
            .lock()
            .values()
            .map(|p| p.data.len() as u64)
            .sum()
    }

    /// All pages in ascending host-id order (eviction order). The pages
    /// share the store's buffers — a snapshot costs refcounts, not copies.
    pub fn pages(&self) -> Vec<StampedPage> {
        self.pages.lock().values().cloned().collect()
    }

    /// Replace the entire store with `pages` under one lock acquisition
    /// (checkpoint restore, host compaction). Stamps travel with the pages,
    /// so a restored store verifies exactly like the original.
    pub fn restore(&self, pages: &[StampedPage]) {
        *self.pages.lock() = pages.iter().map(|p| (p.host_id, p.clone())).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Source};

    #[test]
    fn crc32c_matches_reference_vector() {
        // The canonical iSCSI check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// One step of the bytewise loop slice-by-8 replaced, kept as the
    /// oracle: CRC32C of `data` is `!data.iter().fold(!0, bytewise_step)`.
    fn bytewise_step(crc: u32, &b: &u8) -> u32 {
        (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
    }

    #[test]
    fn every_path_matches_the_bytewise_oracle_at_every_length_and_alignment() {
        const MAX_LEN: usize = 4100;
        let data: Vec<u8> = (0..(MAX_LEN + 8) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            // The oracle's running state over data[start..start + len].
            let mut state = !0u32;
            for len in 0..=MAX_LEN {
                let slice = &data[start..start + len];
                assert_eq!(crc32c(slice), !state, "start {start} len {len}");
                assert_eq!(
                    crc32c_sliced(slice),
                    !state,
                    "sliced, start {start} len {len}"
                );
                state = bytewise_step(state, &data[start + len]);
            }
        }
        assert_eq!(!b"123456789".iter().fold(!0, bytewise_step), 0xE306_9283);
    }

    #[test]
    fn crc32c_detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let clean = crc32c(&data);
        for bit in 0..data.len() * 8 {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&bad), clean, "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn verify_is_the_only_way_to_the_bytes_and_names_the_damaged_page() {
        let page = StampedPage::stamp(7, PageKind::Mixed, b"0123456789abcdef".to_vec());
        let verified = page.verify().unwrap();
        assert_eq!(verified.bytes(), b"0123456789abcdef");
        assert_eq!((verified.host_id(), verified.kind()), (7, PageKind::Mixed));
        let damaged =
            StampedPage::from_parts(7, PageKind::Mixed, b"0123456789abcdeF".to_vec(), page.crc());
        let err = damaged.verify().unwrap_err();
        assert_eq!(err, CorruptPage { host_id: 7 });
        assert_eq!(err.to_string(), "host page 7 failed checksum verification");
    }

    #[test]
    fn records_round_trip_and_reject_a_damaged_payload() {
        let page = StampedPage::stamp(3, PageKind::Value, b"payload".to_vec());
        let mut buf = Vec::new();
        PageRecord.put(&page, &mut buf);
        assert_eq!(buf.len(), 8 + 1 + 4 + 4 + b"payload".len());
        let read = |bytes: &[u8], magic: &[u8]| PageRecord.take(&mut Source::new(bytes, magic));
        assert_eq!(read(&buf, b"SEPOHST4").unwrap(), page);
        *buf.last_mut().unwrap() ^= 1;
        let err = read(&buf, b"SEPOHST4").unwrap_err();
        assert_eq!(
            err.to_string(),
            "SEPOHST4 image: host page 3 failed checksum verification"
        );
        let err = read(&buf[..10], b"SEPOCKP6").unwrap_err();
        assert!(
            err.to_string().contains("truncated SEPOCKP6 image"),
            "{err}"
        );
    }

    #[test]
    fn store_shares_buffers_and_restoring_an_id_replaces() {
        let hh = HostHeap::new();
        let shared: Arc<[u8]> = Arc::from(b"shared-bytes".to_vec());
        let page = StampedPage::stamp(4, PageKind::Mixed, Arc::clone(&shared));
        hh.store(page.clone());
        // The stored page IS the caller's buffer, not a copy.
        assert!(Arc::ptr_eq(&hh.pages()[0].data, &shared));
        assert_eq!(hh.pages(), vec![page]);
        hh.store(StampedPage::stamp(4, PageKind::Mixed, b"newer".to_vec()));
        assert_eq!((hh.len(), hh.total_bytes()), (1, 5));
        assert_eq!(hh.pages()[0].verify().unwrap().bytes(), b"newer");
    }

    #[test]
    fn restore_swaps_contents_without_copying() {
        let hh = HostHeap::new();
        hh.store(StampedPage::stamp(
            1,
            PageKind::Mixed,
            b"pre-checkpoint".to_vec(),
        ));
        let snapshot = hh.pages();
        hh.store(StampedPage::stamp(
            2,
            PageKind::Key,
            b"post-checkpoint".to_vec(),
        ));
        hh.store(StampedPage::stamp(1, PageKind::Mixed, b"mutated".to_vec()));
        hh.restore(&snapshot);
        assert_eq!(hh.len(), 1);
        // Restored page IS the snapshot's buffer (refcount, not copy).
        assert!(Arc::ptr_eq(&hh.pages()[0].data, &snapshot[0].data));
    }

    #[test]
    fn pages_iterate_in_host_id_order() {
        let hh = HostHeap::new();
        assert!(hh.is_empty());
        hh.store(StampedPage::stamp(5, PageKind::Mixed, vec![5]));
        hh.store(StampedPage::stamp(1, PageKind::Key, vec![1]));
        hh.store(StampedPage::stamp(3, PageKind::Value, vec![3]));
        let ids: Vec<u64> = hh.pages().iter().map(StampedPage::host_id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
