//! Netflix input: per-movie rating records.
//!
//! The application "calculates a similarity score between each pair of
//! users based on their movie preferences" \[3\]: for every movie, every pair
//! of users who both rated it contributes `<userA&userB, score>` to the
//! hash table, combined by addition across movies (§VI-A). Records are one
//! movie per line with its raters, so one task emits `k·(k-1)/2` pairs —
//! the multi-pair-per-task case the SEPO driver's progress counter exists
//! for.

use crate::dataset::Dataset;
use crate::rng::Rng;
use crate::zipf::Zipf;

/// Configuration for the ratings generator.
#[derive(Debug, Clone)]
pub struct RatingsConfig {
    /// Approximate total size in bytes.
    pub target_bytes: u64,
    /// User universe size; `None` derives from volume.
    pub n_users: Option<usize>,
    /// Raters per movie record (mean; actual is uniform in `[k/2, 3k/2)`).
    pub raters_per_movie: usize,
    /// Zipf exponent of user activity.
    pub zipf_exponent: f64,
}

impl Default for RatingsConfig {
    fn default() -> Self {
        RatingsConfig {
            target_bytes: 1 << 20,
            n_users: None,
            raters_per_movie: 10,
            zipf_exponent: 0.6,
        }
    }
}

/// Generate a ratings dataset: lines of `m<movie> u<user>:<rating> ...`.
pub fn generate(cfg: &RatingsConfig, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let k = cfg.raters_per_movie.max(2);
    let approx_line = 8 + k as u64 * 12;
    let n_movies = (cfg.target_bytes / approx_line).max(1);
    let n_users = cfg
        .n_users
        .unwrap_or(((n_movies as usize * k) / 20).max(16));
    let zipf = Zipf::new(n_users, cfg.zipf_exponent);
    let mut ds = Dataset::new();
    let mut line = String::new();
    let mut movie = 0u64;
    let mut raters: Vec<usize> = Vec::new();
    while ds.size_bytes() < cfg.target_bytes {
        let n = (k / 2 + rng.below(k as u64) as usize).max(2);
        raters.clear();
        while raters.len() < n {
            let u = zipf.sample(&mut rng);
            if !raters.contains(&u) {
                raters.push(u);
            }
        }
        line.clear();
        line.push_str(&format!("m{movie:07}"));
        for &u in &raters {
            line.push_str(&format!(" u{u:07}:{}", 1 + rng.below(5)));
        }
        line.push('\n');
        ds.push_record(line.as_bytes());
        movie += 1;
    }
    ds
}

/// Parse a movie record into `(movie_id, [(user, rating)])`.
///
/// The grammar is ASCII: whitespace-separated fields, the first
/// `m<digits>` and every other `u<digits>:<digits>`, with ids that fit a
/// `u64` and ratings that fit a `u8`. Whitespace is space, `\t`, `\n`,
/// vertical tab, form feed and `\r`. A leading `+` on a number and any
/// non-ASCII byte (non-ASCII whitespace included) reject the record. The
/// parse works on bytes and allocates once: the raters vector, sized by the
/// record's colon count.
pub fn parse_movie(record: &[u8]) -> Option<(u64, Vec<(u64, u8)>)> {
    let colons: usize = record.iter().map(|&b| usize::from(b == b':')).sum();
    let mut raters = Vec::with_capacity(colons);
    let mut p = Cursor { rest: record };
    p.skip_space();
    p.eat(b'm')?;
    let movie = p.decimal()?;
    while p.end_field()? {
        p.eat(b'u')?;
        let user = p.decimal()?;
        p.eat(b':')?;
        let rating = u8::try_from(p.decimal()?).ok()?;
        raters.push((user, rating));
    }
    Some((movie, raters))
}

/// A read position in a movie record.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    fn skip_space(&mut self) {
        let n = self.rest.iter().take_while(|&&b| is_space(b)).count();
        self.rest = &self.rest[n..];
    }

    /// Consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> Option<()> {
        let (&first, rest) = self.rest.split_first()?;
        self.rest = rest;
        (first == byte).then_some(())
    }

    /// The unsigned decimal next (one digit at least); `None` when there
    /// is no digit or it overflows a `u64`.
    fn decimal(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut digits = 0;
        for &b in self.rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            // Nineteen digits cannot overflow a u64; only longer runs
            // pay for the checked arithmetic.
            value = match digits {
                0..19 => value * 10 + u64::from(d),
                _ => value.checked_mul(10)?.checked_add(u64::from(d))?,
            };
            digits += 1;
        }
        self.rest = &self.rest[digits..];
        (digits > 0).then_some(value)
    }

    /// Close the field just read: `Some(true)` when another field follows,
    /// `Some(false)` at the end of the record, `None` when the field runs
    /// on into something that is not whitespace.
    fn end_field(&mut self) -> Option<bool> {
        match self.rest.first() {
            None => Some(false),
            Some(&b) if is_space(b) => {
                self.skip_space();
                Some(!self.rest.is_empty())
            }
            Some(_) => None,
        }
    }
}

/// ASCII whitespace as `char::is_whitespace` has it: space, `\t`, `\n`,
/// vertical tab, form feed and `\r`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The pair key for users `a` and `b` — order-normalized so `<a,b>` and
/// `<b,a>` combine.
pub fn pair_key(a: u64, b: u64) -> [u8; 16] {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&lo.to_le_bytes());
    key[8..].copy_from_slice(&hi.to_le_bytes());
    key
}

/// The similarity contribution of two ratings of the same movie: higher
/// when the ratings agree (a simple co-preference score).
pub fn similarity(ra: u8, rb: u8) -> u64 {
    let diff = ra.abs_diff(rb) as u64;
    4u64.saturating_sub(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_parse_back() {
        let ds = generate(
            &RatingsConfig {
                target_bytes: 50_000,
                ..Default::default()
            },
            1,
        );
        assert!(ds.len() > 100);
        for (i, rec) in ds.records().enumerate() {
            let (movie, raters) = parse_movie(rec).expect("parseable");
            assert_eq!(movie, i as u64);
            assert!(raters.len() >= 2);
            assert!(raters.iter().all(|&(_, r)| (1..=5).contains(&r)));
            // Raters unique within a movie.
            let mut us: Vec<u64> = raters.iter().map(|&(u, _)| u).collect();
            us.sort_unstable();
            us.dedup();
            assert_eq!(us.len(), raters.len());
        }
    }

    #[test]
    fn pair_key_is_order_normalized() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(3, 10));
    }

    #[test]
    fn similarity_rewards_agreement() {
        assert_eq!(similarity(5, 5), 4);
        assert_eq!(similarity(1, 5), 0);
        assert!(similarity(4, 5) > similarity(2, 5));
        assert_eq!(similarity(2, 4), similarity(4, 2));
    }

    #[test]
    fn active_users_co_occur_across_movies() {
        // Zipf user activity must produce repeated pairs — the combining
        // workload.
        let ds = generate(
            &RatingsConfig {
                target_bytes: 120_000,
                n_users: Some(200),
                zipf_exponent: 0.9,
                ..Default::default()
            },
            3,
        );
        let mut pair_counts = std::collections::HashMap::new();
        for rec in ds.records() {
            let (_, raters) = parse_movie(rec).unwrap();
            for i in 0..raters.len() {
                for j in i + 1..raters.len() {
                    *pair_counts
                        .entry(pair_key(raters[i].0, raters[j].0))
                        .or_insert(0u32) += 1;
                }
            }
        }
        assert!(pair_counts.values().any(|&c| c > 3), "no repeated pairs");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_movie(b"not a movie line").is_none());
        assert!(parse_movie(b"m1 u2").is_none()); // missing rating
        assert!(parse_movie(b"m1 u2:256").is_none()); // rating beyond a u8
        assert!(parse_movie(b"m1 u+2:3").is_none()); // signs are not ASCII digits
        assert_eq!(parse_movie(b"\tm1  u2:3\r\n"), Some((1, vec![(2, 3)])));
    }
}
