//! Robustness fuzzing: page walkers must never panic, loop forever, or
//! read out of bounds on arbitrary byte images — a truncated image must
//! degrade to "fewer entries", never to UB or a crash — and a stamped host
//! page must hand out its bytes exactly when they still match the stamp.
//! The byte-level Netflix record parser must agree with the `str`-based
//! parser it replaced on generated datasets and on near-miss strings.

use proptest::collection::vec;
use proptest::prelude::*;
use sepo_alloc::codec::{Codec, Source};
use sepo_alloc::{CorruptPage, PageKind, PageRecord, StampedPage};
use sepo_core::entry::{parse_at, EntryKind, PageWalker};
use sepo_datagen::ratings::{self, parse_movie, RatingsConfig};

/// The `str`-based movie-record parser `parse_movie` replaced, kept as its
/// oracle. It differs only outside the ASCII grammar: it also accepts a
/// leading `+` and non-ASCII whitespace.
fn parse_movie_str(record: &[u8]) -> Option<(u64, Vec<(u64, u8)>)> {
    let s = std::str::from_utf8(record).ok()?;
    let mut fields = s.split_whitespace();
    let movie = fields.next()?.strip_prefix('m')?.parse().ok()?;
    let mut raters = Vec::new();
    for f in fields {
        let (u, r) = f.split_once(':')?;
        raters.push((u.strip_prefix('u')?.parse().ok()?, r.parse().ok()?));
    }
    Some((movie, raters))
}

#[test]
fn movie_parser_matches_the_str_parser_on_generated_ratings() {
    let shapes = [
        RatingsConfig {
            target_bytes: 60_000,
            ..Default::default()
        },
        RatingsConfig {
            target_bytes: 60_000,
            n_users: Some(50),
            raters_per_movie: 3,
            zipf_exponent: 1.0,
        },
        RatingsConfig {
            target_bytes: 60_000,
            n_users: Some(20_000_000),
            raters_per_movie: 24,
            zipf_exponent: 0.2,
        },
    ];
    for (seed, cfg) in shapes.iter().enumerate() {
        let ds = ratings::generate(cfg, seed as u64);
        for record in ds.records() {
            let parsed = parse_movie(record);
            assert!(parsed.is_some(), "{:?}", String::from_utf8_lossy(record));
            assert_eq!(parsed, parse_movie_str(record));
        }
    }
}

#[test]
fn movie_parser_rejects_what_only_the_str_parser_accepted() {
    for record in [
        "m+1 u2:3",
        "m1 u+2:3",
        "m1 u2:+3",
        "m1\u{a0}u2:3",
        "m1 u2:3\u{2003}",
    ] {
        assert!(parse_movie_str(record.as_bytes()).is_some(), "{record:?}");
        assert_eq!(parse_movie(record.as_bytes()), None, "{record:?}");
    }
}

/// The record alphabet: both field tags, the colon, the ten digits, and
/// space, tab and newline.
const RECORD_ALPHABET: &[u8; 16] = b"mu:0123456789 \t\n";

/// A record assembled from pieces drawn over the record alphabet: single
/// tags and separators, or runs of up to 25 digits (ratings above 255, ids
/// too long for a `u64`).
fn pieced_record(pieces: &[(usize, usize, u64)]) -> Vec<u8> {
    let mut record = Vec::new();
    for &(kind, len, digits) in pieces {
        match kind {
            0..=5 => record.push(b"mu: \t\n"[kind]),
            _ => {
                let mut d = digits;
                for _ in 0..len {
                    record.push(b'0' + (d % 10) as u8);
                    d = d / 10 + len as u64;
                }
            }
        }
    }
    record
}

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
        PageRecord.put(&page, &mut record);
        let read = |record: &[u8]| PageRecord.take(&mut Source::new(record, b"SEPOHST3"));
        prop_assert_eq!(&read(&record).unwrap(), &page);

        let bit = bit % (data.len() * 8);
        let mut damaged = data;
        damaged[bit / 8] ^= 1 << (bit % 8);
        let damaged = StampedPage::from_parts(host_id, PageKind::Mixed, damaged, page.crc());
        prop_assert_eq!(damaged.verify().unwrap_err(), CorruptPage { host_id });
        let mut record = Vec::new();
        PageRecord.put(&damaged, &mut record);
        let err = read(&record).unwrap_err();
        let expected = format!("SEPOHST3 image: {}", CorruptPage { host_id });
        prop_assert_eq!(err.to_string(), expected);
    }

    /// Random strings over the record alphabet parse the same both ways.
    #[test]
    fn movie_parser_matches_the_str_parser_on_random_strings(
        bytes in vec(0usize..16, 0..48),
    ) {
        let record: Vec<u8> = bytes.iter().map(|&i| RECORD_ALPHABET[i]).collect();
        prop_assert_eq!(parse_movie(&record), parse_movie_str(&record));
    }

    /// Near-miss records — tags, separators and digit runs in any order —
    /// parse the same both ways.
    #[test]
    fn movie_parser_matches_the_str_parser_on_pieced_records(
        pieces in vec((0usize..12, 1usize..26, any::<u64>()), 0..24),
    ) {
        let record = pieced_record(&pieces);
        prop_assert_eq!(parse_movie(&record), parse_movie_str(&record));
    }

    /// Every prefix of a well-formed record, and the record with one
    /// colon dropped, parse the same both ways.
    #[test]
    fn movie_parser_matches_the_str_parser_on_truncations(
        movie in 0u64..10_000_000,
        raters in vec((0u64..100_000_000, 0u64..400), 0..10),
        drop_colon in any::<usize>(),
    ) {
        let mut record = format!("m{movie:07}");
        for (user, rating) in &raters {
            record.push_str(&format!(" u{user:07}:{rating}"));
        }
        record.push('\n');
        let record = record.into_bytes();
        for cut in 0..=record.len() {
            let prefix = &record[..cut];
            prop_assert_eq!(parse_movie(prefix), parse_movie_str(prefix));
        }
        let colons: Vec<usize> = (0..record.len()).filter(|&i| record[i] == b':').collect();
        if !colons.is_empty() {
            let mut dropped = record.clone();
            dropped.remove(colons[drop_colon % colons.len()]);
            prop_assert_eq!(parse_movie(&dropped), parse_movie_str(&dropped));
        }
    }
}
