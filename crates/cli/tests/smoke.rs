//! End-to-end smoke of the `sepo` binary at the toy 1/16384 scale, for one
//! device and for four, with `--audit --sanitize` on: the chaos, serving
//! and corruption report lines must be present with non-zero counts, a
//! multi-valued serving run must report its probes' device bytes and chain
//! hops, every run must report its allocations and page-cursor updates, a
//! sharded run must print its merged-image identity line, `--save` must
//! round-trip through `sepo query` on a single combining or multi-valued
//! table and be rejected for a sharded run, and the `host compaction:` line must appear on
//! multi-iteration runs that folded partial aggregates or joined
//! multi-valued key entries and not on a one-iteration run, and
//! `--checkpoint` must leave a file with one
//! readable section per shard. Netflix must report block-combiner
//! absorption (DNA and PVC must not), and save the same image with the
//! combiner on and off. These are the CLI's only smoke checks of those
//! paths.

use std::process::{Command, Output};

fn sepo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sepo"))
        .args(args)
        .output()
        .expect("spawn the sepo binary")
}

/// `sepo run wordcount --scale 16384 --audit --sanitize --shards N <extra>`;
/// the run must exit 0. Returns its stdout.
fn run_wordcount(shards: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "run",
        "wordcount",
        "--scale",
        "16384",
        "--audit",
        "--sanitize",
    ];
    args.extend(["--shards", shards]);
    args.extend(extra);
    let out = sepo(&args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "sepo {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The count printed between `before` and `after` on the first line of
/// `report` holding both — what `grep -E 'before[1-9][0-9]*after'` probes.
fn count(report: &str, before: &str, after: &str) -> u64 {
    let found = report.lines().find_map(|line| {
        let rest = &line[line.find(before)? + before.len()..];
        rest[..rest.find(after)?].parse().ok()
    });
    found.unwrap_or_else(|| panic!("no `{before}<n>{after}` line in:\n{report}"))
}

#[test]
fn ci_report_lines_hold_for_one_device_and_for_four() {
    for shards in ["1", "4"] {
        let chaos = run_wordcount(shards, &["--chaos-seed", "142", "--heap", "98304"]);
        assert!(count(&chaos, "hard faults: ", " device losses") >= 1);
        assert!(count(&chaos, "), ", " recoveries") >= 1);

        let serve = run_wordcount(shards, &["--serve"]);
        assert!(serve.contains("oracle ok"), "{serve}");

        let corrupt = run_wordcount(shards, &["--corrupt", "2", "--heap", "98304"]);
        assert!(count(&corrupt, "integrity: recovered (", " flips injected") >= 1);

        for report in [&chaos, &serve, &corrupt] {
            assert_eq!(
                report.contains("sharded image vs 1 device: identical"),
                shards == "4",
                "the identity line is printed for sharded runs only:\n{report}"
            );
        }
    }
}

#[test]
fn save_round_trips_through_query_on_one_device_only() {
    let image = std::env::temp_dir().join(format!("sepo-smoke-{}.img", std::process::id()));
    let image = image.to_str().expect("utf-8 temp path");

    let saved = run_wordcount("1", &["--save", image]);
    assert!(saved.contains(&format!("table image saved to {image}")));
    let query = sepo(&["query", image, "the", "no-such-word"]);
    let answers = String::from_utf8_lossy(&query.stdout).into_owned();
    std::fs::remove_file(image).expect("the saved image exists");
    assert!(query.status.success(), "{answers}");
    let the = answers.lines().find_map(|line| line.strip_prefix("the = "));
    assert!(the.is_some_and(|n| n.parse::<u64>().is_ok()), "{answers}");
    assert!(answers.contains("no-such-word = <absent>"), "{answers}");

    let sharded = sepo(&[
        "run",
        "wordcount",
        "--scale",
        "16384",
        "--shards",
        "4",
        "--save",
        image,
    ]);
    assert!(!sharded.status.success());
    let why = String::from_utf8_lossy(&sharded.stderr);
    assert!(why.contains("--save needs a single table image"), "{why}");
    assert!(!std::path::Path::new(image).exists());
}

/// A multi-valued image round-trips too: `sepo query` in a fresh process
/// walks each key's value chain over host links alone, and the hottest
/// cited patent's group is `patent::reference`'s.
#[test]
fn a_multi_valued_image_round_trips_through_query() {
    let image = std::env::temp_dir().join(format!("sepo-smoke-mv-{}.img", std::process::id()));
    let image = image.to_str().expect("utf-8 temp path");
    let saved = run_app("patents", &["--save", image]);
    assert!(saved.contains(&format!("table image saved to {image}")));

    let ds = sepo_datagen::App::PatentCitation.generate(0, 16_384);
    let reference = sepo_apps::patent::reference(&ds);
    let (hot, want) = reference
        .iter()
        .max_by_key(|&(key, values)| (values.len(), key))
        .expect("citations");
    assert!(want.len() > 1, "the hottest patent is cited more than once");
    let hot = std::str::from_utf8(hot).expect("ASCII patent number");
    let query = sepo(&["query", image, hot, "no-such-patent"]);
    let answers = String::from_utf8_lossy(&query.stdout).into_owned();
    std::fs::remove_file(image).expect("the saved image exists");
    assert!(query.status.success(), "{answers}");
    let group = answers
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{hot} = [")))
        .and_then(|rest| rest.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no group for {hot} in:\n{answers}"));
    let mut got: Vec<&[u8]> = group.split(", ").map(str::as_bytes).collect();
    got.sort();
    assert_eq!(got, want.iter().map(Vec::as_slice).collect::<Vec<_>>());
    assert!(answers.contains("no-such-patent = <absent>"), "{answers}");
}

/// Patent Citation is multi-valued, so `--serve` answers grouped probes:
/// the serving line reports what they cost on the device.
#[test]
fn a_multi_valued_serving_run_reports_its_probe_traffic() {
    let report = run_app("patents", &["--serve"]);
    assert!(report.contains("oracle ok"), "{report}");
    assert!(
        count(&report, "(charged off-run), ", " device bytes") > 0,
        "{report}"
    );
    assert!(
        count(&report, " device bytes, ", " chain hops") > 0,
        "{report}"
    );
}

/// Every run reports its allocator traffic: allocations, the page-cursor
/// updates that block leases keep far below them, and the run tails that
/// racing claims kept from going back — none when blocks run in order.
#[test]
fn the_allocator_line_counts_allocations_and_cursor_updates() {
    let report = run_app("patents", &[]);
    let allocations = count(&report, "allocator: ", " allocations");
    let updates = count(&report, " allocations, ", " cursor updates");
    assert!(allocations > 0 && updates > 0, "{report}");
    assert!(updates < allocations, "{report}");
    assert_eq!(count(&report, " cursor updates, ", " run tails lost"), 0);
    assert!(report.contains("run tails lost (0 B)"), "{report}");
}

/// The `iterations` figure of the report's GPU/SEPO block.
fn iterations(report: &str) -> u64 {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("iterations"));
    let n = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
    n.unwrap_or_else(|| panic!("no iterations line in:\n{report}"))
}

#[test]
fn host_compaction_is_reported_exactly_when_it_ran() {
    // DNA at a 48 KiB heap iterates four times, and k-mers recur across
    // iterations: compaction folds their partials.
    let out = sepo(&["run", "dna", "--scale", "16384", "--heap", "49152"]);
    let dna = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(out.status.success(), "{dna}");
    assert!(iterations(&dna) > 1, "{dna}");
    let entries = count(&dna, "host compaction: ", " entries -> ");
    let keys = count(&dna, " entries -> ", " keys, ");
    assert!(entries > keys, "{dna}");
    assert!(dna.contains(" KB -> "), "{dna}");

    // Patent Citation is multi-valued: popular patents' key entries leave
    // the device before their last citations arrive, and compaction joins
    // each key's entries into one.
    let out = sepo(&[
        "run",
        "patents",
        "--dataset",
        "4",
        "--scale",
        "16384",
        "--heap",
        "65536",
        "--audit",
    ]);
    let patents = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(out.status.success(), "{patents}");
    assert!(iterations(&patents) > 1, "{patents}");
    let entries = count(&patents, "host compaction: ", " entries -> ");
    let keys = count(&patents, " entries -> ", " keys, ");
    assert!(entries > keys, "{patents}");

    // One iteration: one eviction holds each key once; nothing to report.
    let wordcount = run_wordcount("1", &[]);
    assert_eq!(iterations(&wordcount), 1, "{wordcount}");
    assert!(!wordcount.contains("host compaction"), "{wordcount}");
}

#[test]
fn checkpoint_writes_one_section_per_shard() {
    for (shards, n) in [("1", 1), ("4", 4)] {
        let path =
            std::env::temp_dir().join(format!("sepo-smoke-{}-{shards}.ckp", std::process::id()));
        let file = path.to_str().expect("utf-8 temp path");
        let args = [
            "--chaos-seed",
            "142",
            "--heap",
            "98304",
            "--checkpoint",
            file,
        ];
        let report = run_wordcount(shards, &args);
        let sections = sepo_core::CheckpointFile::read(&path);
        std::fs::remove_file(&path).expect("the checkpoint file exists");
        let sections = sections.expect("read the checkpoint file back");
        assert_eq!(sections.len(), n, "{report}");
        assert!(sections.iter().all(Option::is_some), "{report}");
        assert!(count(&report, "checkpoints: ", " taken") >= 1, "{report}");
        assert!(count(&report, "), ", " recoveries") >= 1, "{report}");
    }
}

/// `sepo run <app> --scale 16384 <extra>`; the run must exit 0. Returns
/// its stdout.
fn run_app(app: &str, extra: &[&str]) -> String {
    let mut args = vec!["run", app, "--scale", "16384"];
    args.extend(extra);
    let out = sepo(&args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "sepo {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn netflix_reaches_the_block_combiner_and_dna_and_pvc_do_not() {
    for app in ["dna", "pvc"] {
        let report = run_app(app, &[]);
        assert!(!report.contains("block combiner:"), "{app}:\n{report}");
    }

    // The combiner moves traffic, never results: the saved images match
    // byte for byte.
    let image = |tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "sepo-smoke-{}-netflix-{tag}.img",
            std::process::id()
        ));
        path.to_str().expect("utf-8 temp path").to_owned()
    };
    let (on, off) = (image("on"), image("off"));
    let netflix = run_app("netflix", &["--save", &on]);
    assert!(
        count(&netflix, "block combiner: ", " emits absorbed") > 0,
        "{netflix}"
    );
    run_app("netflix", &["--combiner", "off", "--save", &off]);
    let bytes = |path: &str| std::fs::read(path).expect("the saved image exists");
    let (on_bytes, off_bytes) = (bytes(&on), bytes(&off));
    std::fs::remove_file(&on).expect("remove the combiner-on image");
    std::fs::remove_file(&off).expect("remove the combiner-off image");
    assert!(!on_bytes.is_empty());
    assert!(
        on_bytes == off_bytes,
        "combiner on and off saved different images"
    );
}
