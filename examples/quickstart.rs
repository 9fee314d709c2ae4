//! Quickstart: the SEPO hash table in five minutes.
//!
//! Builds a combining table on a simulated GPU, sizes its heap the way the
//! paper does (grab whatever device memory is left after the other
//! structures), pushes more distinct keys than the heap can hold, and shows
//! the SEPO driver iterating until everything is stored — with exact
//! results at the end.
//!
//! Run: `cargo run --release --example quickstart`

use sepo::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. A simulated device: 8 MiB of "GPU memory" for this demo. ----
    let capacity: u64 = 8 << 20;

    // The paper's sizing idiom (§IV-A): allocate every other structure
    // first, then give the heap all remaining free space.
    let bucket_array = 512 * 1024;
    let staging_buffers = 2 * 1024 * 1024;
    let locks_and_bitmaps = 256 * 1024;
    let heap = capacity - bucket_array - staging_buffers - locks_and_bitmaps;
    println!("device: {capacity} total, heap gets {heap} bytes");

    // --- 2. The table + executor. --------------------------------------
    let metrics = Arc::new(Metrics::new());
    let config = TableConfig::tuned(Organization::Combining(Combiner::Add), heap);
    let table = SepoTable::new(config, heap, Arc::clone(&metrics));
    let executor = Executor::new(ExecMode::Parallel { workers: 0 }, metrics);

    // --- 3. A workload that outgrows the heap. -------------------------
    // 400k records over 200k distinct keys: the table needs several times
    // the heap. Under SEPO the insert may answer POSTPONE; the driver
    // tracks unprocessed records and re-issues them next iteration.
    let records: Vec<String> = (0..400_000)
        .map(|i| format!("https://example.com/item/{:06}", i % 200_000))
        .collect();

    let outcome = SepoDriver::new(&table, &executor).run(
        records.len(),
        |t| records[t].len() as u64,
        |task, _start, lane| match table.insert_combining(records[task].as_bytes(), 1, lane) {
            InsertStatus::Success => TaskResult::Done,
            InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
        },
    );

    // --- 4. Inspect the run. --------------------------------------------
    println!(
        "processed {} records in {} SEPO iteration(s)",
        outcome.total_tasks,
        outcome.n_iterations()
    );
    for it in &outcome.iterations {
        println!(
            "  iteration {}: attempted {:>7}, completed {:>7}, evicted {:>8} bytes to CPU",
            it.iteration, it.tasks_attempted, it.tasks_completed, it.evict.evicted_bytes
        );
    }
    println!(
        "total shipped to CPU memory: {} bytes (heap is only {})",
        outcome.total_evicted_bytes(),
        heap
    );

    // --- 5. Results are exact despite all the postponing. ---------------
    let results = table.collect_combining();
    assert_eq!(results.len(), 200_000);
    assert!(results.iter().all(|&(_, n)| n == 2));
    println!("all {} keys counted exactly (2 hits each)", results.len());
}
