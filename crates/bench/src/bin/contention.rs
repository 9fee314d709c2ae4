//! Hot-bucket contention gate: block combiner on vs off.
//!
//! Runs Word Count over Zipf-skewed text (the §VI-B contention-bound
//! workload) twice — with and without the thread-block software combiner — and
//! compares what actually reached the hash table: per-bucket insert
//! touches, chain hops walked, head-CAS retries, and the combiner's own
//! hit/flush/overflow counters. The combined results must stay
//! byte-identical; the combiner is a pure traffic optimisation.
//!
//! Writes `results/BENCH_contention.json` so the
//! contention trajectory is tracked from PR to PR, and exits non-zero if
//! the combiner stops absorbing traffic, thrashes (more slots displaced
//! than emits absorbed), moves more than 128 B of shared memory per emit,
//! or perturbs results.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use sepo_apps::{wordcount, AppConfig};
use sepo_datagen::text::{generate, TextConfig};
use std::sync::Arc;

/// Target text volume. Small enough for a CI smoke step, large enough
/// that the hottest words dominate whole thread blocks.
const TARGET_BYTES: u64 = 256 * 1024;
/// Distinct words: few enough that updates concentrate (§VI-B).
const VOCAB: usize = 3_000;
/// Device heap: ample, so both runs complete in one iteration and the
/// comparison isolates insert traffic rather than eviction behaviour.
const HEAP_BYTES: u64 = 4 << 20;
/// Shared-memory traffic allowed per emit: a full 8-way set probe (64 B)
/// plus admission with the key, with room to spare — the old whole-buffer
/// walk cost 261 B here.
const MAX_SMEM_BYTES_PER_EMIT: f64 = 128.0;

struct Run {
    snapshot: Snapshot,
    iterations: u32,
    /// Sorted `<word, count>` results serialized to a JSON string.
    results_json: String,
    /// Per-bucket insert-touch histogram facts.
    touches: u64,
    hottest_bucket: u64,
    chain_hops: u64,
}

fn run_once(ds: &sepo_datagen::Dataset, combiner: bool) -> Run {
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let cfg = AppConfig::new(HEAP_BYTES).with_combiner(combiner);
    let run = wordcount::run(ds, &cfg, &exec);
    let hist = run.table.contention_histogram();
    let mut results: Vec<(Vec<u8>, u64)> = run.table.collect_combining();
    results.sort();
    let mut map = serde_json::Map::new();
    for (k, v) in &results {
        map.insert(
            String::from_utf8_lossy(k).into_owned(),
            serde_json::json!(v),
        );
    }
    let snapshot = metrics.snapshot();
    Run {
        iterations: run.iterations(),
        results_json: serde_json::to_string(&serde_json::Value::Object(map))
            .expect("serialize results"),
        touches: hist.total_updates(),
        hottest_bucket: hist.max_count(),
        chain_hops: snapshot.chain_hops,
        snapshot,
    }
}

fn main() {
    let ds = generate(
        &TextConfig {
            target_bytes: TARGET_BYTES,
            vocab_size: VOCAB,
            ..Default::default()
        },
        17,
    );
    let total_pairs: u64 = wordcount::reference(&ds).values().sum();

    let off = run_once(&ds, false);
    let on = run_once(&ds, true);

    let hit_rate = on.snapshot.combiner_hits as f64 / total_pairs as f64;
    println!(
        "word count, {} emitted pairs over {} records (Zipf text, vocab {VOCAB})",
        total_pairs,
        ds.len()
    );
    for (label, r) in [("combiner off", &off), ("combiner on", &on)] {
        println!(
            "{label:>14}: {:>8} bucket touches (hottest {:>6}) {:>8} chain hops \
             {:>4} CAS retries",
            r.touches, r.hottest_bucket, r.chain_hops, r.snapshot.head_cas_retries
        );
    }
    println!(
        "{:>14}: {:.1}% of emits absorbed in-block, {} batched flushes, {} overflows",
        "combiner",
        hit_rate * 100.0,
        on.snapshot.combiner_flushes,
        on.snapshot.combiner_overflows
    );

    let results_identical = off.results_json == on.results_json;
    let report = serde_json::json!({
        "bench": "hot-bucket contention, block combiner on vs off",
        "workload": "wordcount",
        "target_bytes": TARGET_BYTES,
        "vocab_size": VOCAB,
        "emitted_pairs": total_pairs,
        "combiner_off": serde_json::json!({
            "bucket_touches": off.touches,
            "hottest_bucket_touches": off.hottest_bucket,
            "chain_hops": off.chain_hops,
            "head_cas_retries": off.snapshot.head_cas_retries,
            "iterations": off.iterations,
        }),
        "combiner_on": serde_json::json!({
            "bucket_touches": on.touches,
            "hottest_bucket_touches": on.hottest_bucket,
            "chain_hops": on.chain_hops,
            "head_cas_retries": on.snapshot.head_cas_retries,
            "iterations": on.iterations,
            "combiner_hits": on.snapshot.combiner_hits,
            "combiner_flushes": on.snapshot.combiner_flushes,
            "combiner_overflows": on.snapshot.combiner_overflows,
            "smem_bytes": on.snapshot.smem_bytes,
        }),
        "combiner_hit_rate": hit_rate,
        "touch_reduction": off.touches as f64 / on.touches.max(1) as f64,
        "results_identical": results_identical,
    });
    sepo_bench::write_json("BENCH_contention", &report);
    println!("\nwrote results/BENCH_contention.json");

    let mut failed = false;
    if !results_identical {
        eprintln!("FAIL: combined results differ between combiner on and off");
        failed = true;
    }
    if on.iterations != off.iterations {
        eprintln!(
            "FAIL: iteration counts differ (on {} vs off {})",
            on.iterations, off.iterations
        );
        failed = true;
    }
    if on.touches >= off.touches {
        eprintln!(
            "FAIL: combiner did not reduce bucket insert touches ({} vs {})",
            on.touches, off.touches
        );
        failed = true;
    }
    if on.chain_hops > off.chain_hops {
        eprintln!(
            "FAIL: combiner increased chain hops ({} vs {})",
            on.chain_hops, off.chain_hops
        );
        failed = true;
    }
    if hit_rate < 0.10 {
        eprintln!("FAIL: combiner hit rate {:.1}% under 10%", hit_rate * 100.0);
        failed = true;
    }
    if on.snapshot.combiner_overflows >= on.snapshot.combiner_hits {
        eprintln!(
            "FAIL: combiner thrashes ({} overflows vs {} hits)",
            on.snapshot.combiner_overflows, on.snapshot.combiner_hits
        );
        failed = true;
    }
    let smem_per_emit = on.snapshot.smem_bytes as f64 / total_pairs as f64;
    if smem_per_emit > MAX_SMEM_BYTES_PER_EMIT {
        eprintln!(
            "FAIL: {smem_per_emit:.0} B of shared-memory traffic per emit \
             (limit {MAX_SMEM_BYTES_PER_EMIT})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
