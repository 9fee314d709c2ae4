//! Argument parsing for the `sepo` CLI (kept dependency-free).

use sepo_datagen::App;

/// Parsed option flags shared by the subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    pub dataset: usize,
    pub scale: u64,
    pub heap: Option<u64>,
    pub parallel: bool,
    pub queries: usize,
    pub input: Option<String>,
    pub save: Option<String>,
    /// Run the cross-layer invariant audit at every iteration boundary.
    pub audit: bool,
    /// Seed for deterministic transient fault injection: lane aborts at
    /// the standard rate (`None` = no faults).
    pub faults: Option<u64>,
    /// Thread-block software combiner in front of combining-organization
    /// tables (`--combiner on|off`). Default on: results are byte-identical
    /// either way and skewed workloads contend far less.
    pub combiner: bool,
    /// Check every declared device access against the shadow-memory
    /// sanitizer, panicking on publish-discipline violations. Results are
    /// byte-identical either way.
    pub sanitize: bool,
    /// Persist an iteration-boundary checkpoint to this path (one
    /// `SEPOCKS3` file, a section per shard), enabling hard-fault recovery.
    pub checkpoint: Option<String>,
    /// Seed for hard-fault chaos injection (device loss, poisoned
    /// launches). Turns on in-memory checkpointing so the run survives.
    pub chaos_seed: Option<u64>,
    /// Price boundary eviction DMA as hidden behind the next iteration's
    /// kernels; the run is identical (`--evict-overlap on|off`). Default
    /// off (the paper's synchronous boundary).
    pub evict_overlap: bool,
    /// Mixed-workload serving (`--serve`): publish an epoch snapshot at
    /// every iteration boundary and answer `--queries`-scaled point
    /// lookups (or grouped scans) against it while the run progresses,
    /// checking the answers against a CPU oracle. Results of the run are
    /// byte-identical either way.
    pub serve: bool,
    /// Seed for seeded silent-corruption injection (`--corrupt SEED`):
    /// in-flight PCIe bit flips, resting device-page flips, and disk byte
    /// flips at the standard rates. Turns on in-memory checkpointing so
    /// every detected flip is repaired; the run must end byte-identical
    /// to a corruption-free run or fail loudly with a witness.
    pub corrupt: Option<u64>,
    /// Verify the CRC32C stamp of every finalized host page at the end of
    /// a corruption-free run (`--scrub`). Forced on under `--corrupt`.
    pub scrub: bool,
    /// Shard the run across `--shards N` simulated devices (power of two,
    /// default 1). Each shard owns a hash-prefix slice of the key space
    /// and its own device heap; the merged canonical image is checked
    /// against an unsharded reference run. `--shards 1` is exactly the
    /// single-device path.
    pub shards: u32,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            dataset: 1,
            scale: 256,
            heap: None,
            parallel: false,
            queries: 20_000,
            input: None,
            save: None,
            audit: false,
            faults: None,
            combiner: true,
            sanitize: false,
            checkpoint: None,
            chaos_seed: None,
            evict_overlap: false,
            serve: false,
            corrupt: None,
            scrub: false,
            shards: 1,
        }
    }
}

/// Parse `--flag value` pairs; `None` on any malformed input.
pub fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dataset" => f.dataset = it.next()?.parse().ok().filter(|d| (1..=4).contains(d))?,
            "--scale" => f.scale = it.next()?.parse().ok().filter(|&s| s >= 1)?,
            "--heap" => f.heap = Some(it.next()?.parse().ok()?),
            "--queries" => f.queries = it.next()?.parse().ok()?,
            "--input" => f.input = Some(it.next()?.clone()),
            "--save" => f.save = Some(it.next()?.clone()),
            "--parallel" => f.parallel = true,
            "--audit" => f.audit = true,
            "--sanitize" => f.sanitize = true,
            "--serve" => f.serve = true,
            "--faults" => f.faults = Some(it.next()?.parse().ok()?),
            "--checkpoint" => f.checkpoint = Some(it.next()?.clone()),
            "--chaos-seed" => f.chaos_seed = Some(it.next()?.parse().ok()?),
            "--corrupt" => f.corrupt = Some(it.next()?.parse().ok()?),
            "--scrub" => f.scrub = true,
            "--shards" => {
                f.shards = it
                    .next()?
                    .parse()
                    .ok()
                    .filter(|s: &u32| s.is_power_of_two())?
            }
            "--combiner" => {
                f.combiner = match it.next()?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return None,
                }
            }
            "--evict-overlap" => {
                f.evict_overlap = match it.next()?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(f)
}

/// CLI slug of an application.
pub fn slug(app: App) -> &'static str {
    match app {
        App::InvertedIndex => "inverted-index",
        App::PageViewCount => "pvc",
        App::DnaAssembly => "dna",
        App::Netflix => "netflix",
        App::WordCount => "wordcount",
        App::PatentCitation => "patents",
        App::GeoLocation => "geo",
    }
}

/// Look an application up by slug.
pub fn app_by_slug(s: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| slug(*a) == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let f = parse_flags(&[]).unwrap();
        assert_eq!(f, Flags::default());
    }

    #[test]
    fn all_flags_parse() {
        let f = parse_flags(&strs(&[
            "--dataset",
            "3",
            "--scale",
            "512",
            "--heap",
            "1048576",
            "--queries",
            "100",
            "--input",
            "a.log",
            "--save",
            "t.sepo",
            "--parallel",
            "--audit",
            "--sanitize",
            "--faults",
            "42",
            "--combiner",
            "off",
            "--checkpoint",
            "run.ckp",
            "--chaos-seed",
            "7",
            "--corrupt",
            "99",
            "--scrub",
            "--evict-overlap",
            "on",
            "--serve",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(f.dataset, 3);
        assert_eq!(f.scale, 512);
        assert_eq!(f.heap, Some(1_048_576));
        assert_eq!(f.queries, 100);
        assert_eq!(f.input.as_deref(), Some("a.log"));
        assert_eq!(f.save.as_deref(), Some("t.sepo"));
        assert!(f.parallel);
        assert!(f.audit);
        assert!(f.sanitize);
        assert_eq!(f.faults, Some(42));
        assert!(!f.combiner);
        assert_eq!(f.checkpoint.as_deref(), Some("run.ckp"));
        assert_eq!(f.chaos_seed, Some(7));
        assert_eq!(f.corrupt, Some(99));
        assert!(f.scrub);
        assert!(f.evict_overlap);
        assert!(f.serve);
        assert_eq!(f.shards, 4);
    }

    #[test]
    fn shards_default_one_and_must_be_a_power_of_two() {
        assert_eq!(parse_flags(&[]).unwrap().shards, 1);
        assert_eq!(parse_flags(&strs(&["--shards", "1"])).unwrap().shards, 1);
        assert_eq!(parse_flags(&strs(&["--shards", "8"])).unwrap().shards, 8);
        assert!(parse_flags(&strs(&["--shards"])).is_none());
        assert!(parse_flags(&strs(&["--shards", "0"])).is_none());
        assert!(parse_flags(&strs(&["--shards", "3"])).is_none());
        assert!(parse_flags(&strs(&["--shards", "6"])).is_none());
        assert!(parse_flags(&strs(&["--shards", "not-a-count"])).is_none());
    }

    #[test]
    fn serve_defaults_off() {
        assert!(!parse_flags(&[]).unwrap().serve);
        assert!(parse_flags(&strs(&["--serve"])).unwrap().serve);
    }

    #[test]
    fn evict_overlap_defaults_off_and_parses_both_states() {
        assert!(!parse_flags(&[]).unwrap().evict_overlap);
        assert!(
            parse_flags(&strs(&["--evict-overlap", "on"]))
                .unwrap()
                .evict_overlap
        );
        assert!(
            !parse_flags(&strs(&["--evict-overlap", "off"]))
                .unwrap()
                .evict_overlap
        );
    }

    #[test]
    fn sanitize_defaults_off() {
        assert!(!parse_flags(&[]).unwrap().sanitize);
        assert!(parse_flags(&strs(&["--sanitize"])).unwrap().sanitize);
    }

    #[test]
    fn combiner_defaults_on_and_parses_both_states() {
        assert!(parse_flags(&[]).unwrap().combiner);
        assert!(parse_flags(&strs(&["--combiner", "on"])).unwrap().combiner);
        assert!(!parse_flags(&strs(&["--combiner", "off"])).unwrap().combiner);
    }

    #[test]
    fn malformed_flags_rejected() {
        assert!(parse_flags(&strs(&["--dataset", "0"])).is_none());
        assert!(parse_flags(&strs(&["--dataset", "5"])).is_none());
        assert!(parse_flags(&strs(&["--scale", "0"])).is_none());
        assert!(parse_flags(&strs(&["--heap"])).is_none());
        assert!(parse_flags(&strs(&["--frobnicate"])).is_none());
        assert!(parse_flags(&strs(&["--heap", "not-a-number"])).is_none());
        assert!(parse_flags(&strs(&["--faults"])).is_none());
        assert!(parse_flags(&strs(&["--faults", "not-a-seed"])).is_none());
        assert!(parse_flags(&strs(&["--combiner"])).is_none());
        assert!(parse_flags(&strs(&["--combiner", "maybe"])).is_none());
        assert!(parse_flags(&strs(&["--evict-overlap"])).is_none());
        assert!(parse_flags(&strs(&["--evict-overlap", "maybe"])).is_none());
        assert!(parse_flags(&strs(&["--checkpoint"])).is_none());
        assert!(parse_flags(&strs(&["--chaos-seed"])).is_none());
        assert!(parse_flags(&strs(&["--chaos-seed", "not-a-seed"])).is_none());
        assert!(parse_flags(&strs(&["--corrupt"])).is_none());
        assert!(parse_flags(&strs(&["--corrupt", "not-a-seed"])).is_none());
    }

    #[test]
    fn corrupt_and_scrub_default_off() {
        let f = parse_flags(&[]).unwrap();
        assert_eq!(f.corrupt, None);
        assert!(!f.scrub);
        assert_eq!(
            parse_flags(&strs(&["--corrupt", "5"])).unwrap().corrupt,
            Some(5)
        );
        assert!(parse_flags(&strs(&["--scrub"])).unwrap().scrub);
    }

    #[test]
    fn slugs_round_trip_every_app() {
        for app in App::ALL {
            assert_eq!(app_by_slug(slug(app)), Some(app), "{}", app.name());
        }
        assert_eq!(app_by_slug("nonsense"), None);
    }
}
