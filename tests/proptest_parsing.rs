//! Robustness fuzzing: page walkers must never panic, loop forever, or
//! read out of bounds on arbitrary byte images — a truncated image must
//! degrade to "fewer entries", never to UB or a crash — and a stamped host
//! page must hand out its bytes exactly when they still match the stamp.

use proptest::collection::vec;
use proptest::prelude::*;
use sepo_alloc::{CorruptPage, PageKind, StampedPage};
use sepo_core::entry::{parse_at, EntryKind, PageWalker};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Walking arbitrary bytes terminates and yields in-bounds views.
    #[test]
    fn page_walker_never_panics_on_garbage(
        bytes in vec(any::<u8>(), 0..2048),
        kind_sel in 0usize..4,
    ) {
        let kind = [
            EntryKind::Combining,
            EntryKind::Basic,
            EntryKind::Key,
            EntryKind::Value,
        ][kind_sel];
        // Bounded by construction: each yielded entry advances the cursor,
        // but cap iterations anyway so a looping bug fails fast.
        let mut n = 0;
        for (off, _entry) in PageWalker::new(&bytes, kind) {
            prop_assert!(off < bytes.len());
            n += 1;
            prop_assert!(n <= bytes.len() + 1, "walker failed to advance");
        }
    }

    /// parse_at either returns a strictly advancing offset or None.
    #[test]
    fn parse_at_always_advances(
        bytes in vec(any::<u8>(), 0..512),
        off in 0usize..600,
        kind_sel in 0usize..4,
    ) {
        let kind = [
            EntryKind::Combining,
            EntryKind::Basic,
            EntryKind::Key,
            EntryKind::Value,
        ][kind_sel];
        if let Some((_, next)) = parse_at(&bytes, off, kind) {
            prop_assert!(next > off, "parse_at must make progress");
        }
    }

    /// Any page image verifies under its own stamp and survives the record
    /// round trip; any single flipped bit under the old stamp is refused
    /// with the page's host id, by `verify` and by the record reader.
    #[test]
    fn stamped_pages_verify_exactly_when_untouched(
        data in vec(any::<u8>(), 1..512),
        host_id in any::<u64>(),
        bit in any::<usize>(),
    ) {
        let page = StampedPage::stamp(host_id, PageKind::Mixed, data.clone());
        let verified = page.verify().unwrap();
        prop_assert_eq!(verified.bytes(), &data[..]);
        let mut record = Vec::new();
        page.write_record(&mut record).unwrap();
        prop_assert_eq!(&StampedPage::read_record(&mut &record[..], "SEPOHST2").unwrap(), &page);

        let bit = bit % (data.len() * 8);
        let mut damaged = data;
        damaged[bit / 8] ^= 1 << (bit % 8);
        let damaged = StampedPage::from_parts(host_id, PageKind::Mixed, damaged, page.crc());
        prop_assert_eq!(damaged.verify().unwrap_err(), CorruptPage { host_id });
        let mut record = Vec::new();
        damaged.write_record(&mut record).unwrap();
        let err = StampedPage::read_record(&mut &record[..], "SEPOHST2").unwrap_err();
        let expected = format!("SEPOHST2 image: {}", CorruptPage { host_id });
        prop_assert_eq!(err.to_string(), expected);
    }
}
