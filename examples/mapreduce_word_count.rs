//! Writing a MapReduce application on the SEPO runtime (§V).
//!
//! Shows the programmer-facing API the paper describes: provide an input
//! data partitioner (here, a loop that cuts the input into one record per
//! map task) and a map function; pick MAP_REDUCE (reduce embedded
//! in the insert via a combiner) or MAP_GROUP. The KV store is the SEPO
//! hash table, so the job survives map output larger than device memory —
//! "the first GPU-based MapReduce runtime capable of processing data
//! larger than what GPU memory can hold".
//!
//! Run: `cargo run --release --example mapreduce_word_count`

use sepo::prelude::*;
use sepo::sepo_datagen::text::{generate, TextConfig};
use std::sync::Arc;

fn main() {
    // Input: ~2 MB of Zipf-skewed text.
    let text = generate(
        &TextConfig {
            target_bytes: 2 << 20,
            vocab_size: 20_000,
            ..Default::default()
        },
        3,
    );

    // 1. The application's input data partitioner: chunks of ~2 KiB
    //    extended to the end of a line, so one map task handles many lines
    //    and no line is split. Each chunk is one record, i.e. one map task.
    let mut tasks = Dataset::new();
    let mut rest = &text.bytes[..];
    while !rest.is_empty() {
        let mut end = rest.len().min(2048);
        while end < rest.len() && rest[end - 1] != b'\n' {
            end += 1;
        }
        tasks.push_record(&rest[..end]);
        rest = &rest[end..];
    }
    println!(
        "partitioner produced {} map tasks over {} bytes",
        tasks.len(),
        tasks.size_bytes()
    );

    // 2. The map function: tokenize, emit <word, 1>. Re-emission after a
    //    postponement is safe — the emitter resumes at the saved pair.
    let map = |record: &[u8], out: &mut Emitter<'_, '_>| {
        for word in record.split(|&b| b.is_ascii_whitespace()) {
            if !word.is_empty() && !out.emit_combining(word, 1) {
                return; // postponed: stop early, resume next iteration
            }
        }
    };

    // 3. Run in MAP_REDUCE mode with Add as the reduce/combine callback,
    //    on a heap much smaller than the map output.
    let executor = Executor::new(ExecMode::Parallel { workers: 0 }, Arc::new(Metrics::new()));
    let cfg = AppConfig::new(256 * 1024);
    let run = run_mapper(&tasks, &cfg, &executor, Mode::MapReduce(Combiner::Add), map);

    println!(
        "job finished in {} SEPO iteration(s); KV store shipped {} bytes to CPU memory",
        run.iterations(),
        run.outcome.total_evicted_bytes(),
    );

    let mut counts = run.table.collect_combining();
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!(
        "{} distinct words, {total} tokens; most frequent:",
        counts.len()
    );
    for (word, n) in counts.iter().take(8) {
        println!("  {:>8}  {}", n, String::from_utf8_lossy(word));
    }
}
