//! Soak tests — heavier runs exercising real parallelism at volume.
//! Ignored by default; run with `cargo test --release -- --ignored`.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use sepo_apps::{run_app, AppConfig};
use sepo_datagen::App;
use std::collections::HashMap;
use std::sync::Arc;

#[test]
#[ignore = "soak test: run explicitly with --ignored in release mode"]
fn full_table1_matrix_parallel() {
    // Every app on every dataset at scale 2048, parallel executor, results
    // verified against single-pass deterministic runs.
    for app in App::ALL {
        for idx in 0..4 {
            let ds = app.generate(idx, 2048);
            let m1 = Arc::new(Metrics::new());
            let par = run_app(
                app,
                &ds,
                &AppConfig::new(512 * 1024),
                &Executor::new(ExecMode::Parallel { workers: 0 }, m1),
            );
            let m2 = Arc::new(Metrics::new());
            let det = run_app(
                app,
                &ds,
                &AppConfig::new(64 << 20),
                &Executor::new(ExecMode::ParallelDeterministic, m2),
            );
            let a: HashMap<_, _> = par
                .table
                .collect_grouped()
                .into_iter()
                .map(|(k, mut v)| {
                    v.sort();
                    (k, v)
                })
                .collect();
            let b: HashMap<_, _> = det
                .table
                .collect_grouped()
                .into_iter()
                .map(|(k, mut v)| {
                    v.sort();
                    (k, v)
                })
                .collect();
            assert_eq!(a, b, "{} #{}", app.name(), idx + 1);
        }
    }
}

#[test]
#[ignore = "soak test: run explicitly with --ignored in release mode"]
fn ten_million_combines_under_pressure() {
    use gpu_sim::NoCharge;
    use sepo_core::{Combiner, Organization, SepoTable, TableConfig};
    let heap = 1 << 20;
    let t = Arc::new(SepoTable::new(
        TableConfig::tuned(Organization::Combining(Combiner::Add), heap),
        heap,
        Arc::new(Metrics::new()),
    ));
    let n_keys = 100_000usize;
    let per_key = 100u64;
    let mut round = 0;
    let mut pending: Vec<(usize, u64)> = (0..n_keys).map(|k| (k, per_key)).collect();
    while !pending.is_empty() {
        // Parallel storm over the pending multiset.
        let next = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for shard in pending.chunks(pending.len().div_ceil(8)) {
                let t = Arc::clone(&t);
                let next = &next;
                s.spawn(move || {
                    let mut ch = NoCharge;
                    let mut local = Vec::new();
                    for &(k, remaining) in shard {
                        let key = format!("key-{k:06}");
                        let mut left = remaining;
                        while left > 0 {
                            match t.insert_combining(key.as_bytes(), 1, &mut ch) {
                                sepo_core::InsertStatus::Success => left -= 1,
                                sepo_core::InsertStatus::Postponed => break,
                            }
                        }
                        if left > 0 {
                            local.push((k, left));
                        }
                    }
                    next.lock().extend(local);
                });
            }
        });
        t.end_iteration();
        pending = next.into_inner();
        round += 1;
        assert!(round < 1_000, "no progress");
    }
    t.finalize();
    let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
    assert_eq!(got.len(), n_keys);
    assert!(got.values().all(|&v| v == per_key));
}
