//! The one device-chain walker. New entries go in at the head of a bucket
//! chain, so a walk stops at the first link whose target is no longer
//! resident (§III-B dual pointers). [`walk`] alone follows `next_dev` /
//! `next_host`, over the live heap ([`SepoTable`](crate::SepoTable)) or an
//! epoch's captured pages ([`EpochSnapshot`](crate::EpochSnapshot)).

use crate::entry::{tagged_lens, EntryKind, NEXT_DEV, NEXT_HOST};
use crate::hash::{bucket_of_mixed, mix};
use gpu_sim::charge::Charge;
use sepo_alloc::{DevHandle, HostLink, Link};
use std::ops::ControlFlow;

/// Where a walk reads entries and how it prices them (device traffic by default).
pub(crate) trait ChainPages {
    /// The host id device page `page` carries now, if the source holds it.
    fn host_id(&self, page: u32) -> Option<u64>;

    /// The `len` bytes at `field` of entry `e`.
    fn bytes(&self, e: DevHandle, field: u32, len: usize) -> Option<&[u8]>;

    /// The little-endian word at `field` of entry `e`.
    fn word(&self, e: DevHandle, field: u32) -> Option<u64> {
        let bytes = self.bytes(e, field, 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Price the hop onto entry `e`: its 16-byte link read.
    fn hop<C: Charge>(&self, _e: DevHandle, charge: &mut C) {
        charge.chain_hops(1);
    }

    /// Price `bytes` read from an entry.
    fn read<C: Charge>(&self, bytes: u64, charge: &mut C) {
        charge.device_bytes(bytes);
    }
}

/// Walk the resident chain from `head_raw` (a bucket or value head; null
/// when empty), pricing each entry's hop before `visit` sees it; the link
/// is read only once the walk moves on. Returns `visit`'s break, or the
/// host half of the dead link that ended the walk: null at the chain's end.
#[inline]
pub(crate) fn walk<P: ChainPages, C: Charge, B>(
    pages: &P,
    head_raw: u64,
    charge: &mut C,
    mut visit: impl FnMut(DevHandle, &mut C) -> ControlFlow<B>,
) -> ControlFlow<B, HostLink> {
    let mut at = DevHandle::from_raw(head_raw);
    while !at.is_null() {
        pages.hop(at, charge);
        visit(at, charge)?;
        let words = pages.word(at, NEXT_DEV).zip(pages.word(at, NEXT_HOST));
        let Some((dev, host)) = words else { break };
        let next = Link {
            dev: DevHandle::from_raw(dev),
            host: HostLink::from_raw(host),
        };
        if !next.is_live(|page| pages.host_id(page)) {
            return ControlFlow::Continue(next.host);
        }
        at = next.dev;
    }
    ControlFlow::Continue(HostLink::NULL)
}

/// The bucket (of `n_buckets`) and the tagged length word of a key with
/// [`fnv1a`](crate::hash::fnv1a) hash `hash`, both from one [`mix`].
#[inline]
pub(crate) fn place(key: &[u8], hash: u64, n_buckets: usize) -> (usize, u64) {
    let mixed = mix(hash);
    let bucket = bucket_of_mixed(mixed, n_buckets);
    (bucket, tagged_lens(key.len(), mixed))
}

/// The resident entry of `key` (of `kind`, tagged length word `lens`) in the
/// chain from `head_raw`; an entry whose length word differs costs no key.
#[inline]
pub(crate) fn find<P: ChainPages, C: Charge>(
    pages: &P,
    head_raw: u64,
    kind: EntryKind,
    key: &[u8],
    lens: u64,
    charge: &mut C,
) -> Option<DevHandle> {
    let (klen_field, key_field) = kind.key_fields();
    walk(pages, head_raw, charge, |e, charge| {
        if pages.word(e, klen_field) == Some(lens) {
            pages.read(key.len() as u64, charge);
            if pages.bytes(e, key_field, key.len()) == Some(key) {
                return ControlFlow::Break(e);
            }
        }
        ControlFlow::Continue(())
    })
    .break_value()
}
