//! `sepo` — command-line front end for the SEPO reproduction.
//!
//! ```text
//! sepo apps                              list the seven applications
//! sepo run <app> [options]               run one app GPU-vs-CPU, report
//!   --dataset <1..4>                     Table I dataset index (default 1)
//!   --scale <N>                          capacity/dataset divisor (default 256)
//!   --heap <bytes>                       device heap override
//!   --parallel                           racing parallel executor (default:
//!                                        parallel-deterministic)
//!   --audit                              cross-layer invariant audit at every
//!                                        iteration boundary
//!   --faults <seed>                      deterministic transient faults: lane
//!                                        aborts at the standard rate (one
//!                                        lane in 200), seeded with <seed>;
//!                                        aborted tasks are re-issued next
//!                                        iteration
//!   --combiner on|off                    thread-block software combiner in front
//!                                        of combining tables (default on;
//!                                        results identical either way)
//!   --evict-overlap on|off               price boundary eviction DMA as
//!                                        hidden behind the next iteration's
//!                                        kernels (default off); the run is
//!                                        identical
//!   --sanitize                           shadow-memory sanitizer over every
//!                                        declared device access (panics on a
//!                                        violation; results identical either
//!                                        way)
//!   --checkpoint <path>                  persist an iteration-boundary
//!                                        checkpoint to <path> (one SEPOCKS3
//!                                        file, a section per shard),
//!                                        enabling hard-fault recovery
//!   --chaos-seed <seed>                  inject hard device faults (device
//!                                        loss, poisoned launches) at the
//!                                        standard rates; runs recover from
//!                                        checkpoints and finish identically
//!   --corrupt <seed>                     inject seeded silent corruption at
//!                                        the standard rates (in-flight PCIe
//!                                        bit flips, resting device-page
//!                                        flips, disk byte flips on
//!                                        checkpoint images); every flip is
//!                                        detected by CRC32C verification
//!                                        and repaired (retransmit, restore
//!                                        from the boundary checkpoint, or
//!                                        rewrite), and the run must finish
//!                                        byte-identical to a clean one
//!   --scrub                              verify every finalized host page's
//!                                        CRC32C stamp at the end of a
//!                                        corruption-free run (forced on
//!                                        under --corrupt)
//!   --serve                              publish an epoch snapshot at every
//!                                        iteration boundary and answer a
//!                                        Zipf-skewed point-lookup load
//!                                        against it while the run
//!                                        progresses (--queries per epoch),
//!                                        checking every answer against a
//!                                        CPU oracle; results identical
//!                                        either way
//!   --shards <N>                         shard the run across N simulated
//!                                        devices (power of two, default 1);
//!                                        each shard owns a hash-prefix slice
//!                                        of the key space with its own heap,
//!                                        warp pool, and fault streams, and
//!                                        the merged canonical image is
//!                                        checked against an unsharded
//!                                        reference run; shard i draws its
//!                                        fault streams from seed ^ i
//! sepo lookup [--scale N] [--queries N]  build a PVC table, run the SEPO
//!                                        lookup phase over it
//! sepo query <image> <key>...            query a table saved with --save
//! ```

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan};
use sepo_apps::sharded::unsharded_image;
use sepo_apps::{run_app, run_app_sharded, AppConfig};
use sepo_bench::paper::cpu_baseline;
use sepo_bench::report::{fmt_bytes, fmt_speedup};
use sepo_bench::{cpu_total_time, device_heap, gpu_total_time, sharded_total_time};
use sepo_cli::{app_by_slug, parse_flags, slug, Flags};
use sepo_core::{
    CheckpointFile, CheckpointPolicy, Combiner, CompactReport, EpochPublisher, EpochSnapshot,
    Organization, QueryError, SepoTable, ShardedSnapshot,
};
use sepo_datagen::App;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sepo apps\n  sepo run <app> [--dataset 1..4] [--scale N] \
         [--heap BYTES] [--parallel] [--audit] [--sanitize] [--faults SEED] \
         [--combiner on|off] [--evict-overlap on|off] [--checkpoint PATH] \
         [--chaos-seed SEED] [--corrupt SEED] [--scrub] [--serve] [--shards N] \
         [--input FILE] [--save IMAGE]\n  \
         sepo lookup [--scale N] [--queries N]\n  sepo query <image> <key>...\n\
         \napps: {}",
        App::ALL
            .iter()
            .map(|a| slug(*a))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn cmd_apps() -> Result<(), String> {
    println!("{:<16} {:<30} paper dataset sizes", "slug", "application");
    for app in App::ALL {
        let mb = app.table1_mb();
        println!(
            "{:<16} {:<30} {}",
            slug(app),
            app.name(),
            mb.map(|m| format!("{:.1}GB", m as f64 / 1000.0))
                .join(" / ")
        );
    }
    Ok(())
}

/// Rolling state of one shard's `--serve` query load: per-epoch counters
/// plus the last answer seen per key, so epoch-to-epoch monotonicity
/// (partial aggregates never shrink, groups never lose values) is checked
/// online.
#[derive(Default)]
struct ServeStats {
    epochs: u32,
    queries: u64,
    hits: u64,
    violations: Vec<String>,
    /// Per key, the last combined value or group size answered.
    last: HashMap<Vec<u8>, u64>,
}

/// Answer one epoch's Zipf-skewed query batch against its snapshot and
/// fold the answers into `st`, recording any epoch-to-epoch regression.
fn serve_epoch(snap: &EpochSnapshot, exec: &Executor, per_epoch: usize, st: &mut ServeStats) {
    use sepo_datagen::{Rng, Zipf};
    st.epochs += 1;
    let keys = snap.visible_keys();
    if keys.is_empty() || matches!(snap.organization(), Organization::Basic) {
        return;
    }
    let mut rng = Rng::new(0x5E17 ^ u64::from(snap.iteration()));
    let zipf = Zipf::new(keys.len(), 0.9);
    let owned: Vec<Vec<u8>> = (0..per_epoch)
        .map(|i| {
            if i % 5 == 4 {
                format!("absent-{i}").into_bytes() // misses exercise the full probe
            } else {
                keys[zipf.sample(&mut rng)].clone()
            }
        })
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    st.queries += queries.len() as u64;
    let it = snap.iteration();
    // One monotone measure per key: its combined value, or its group size.
    let answers = match snap.organization() {
        Organization::MultiValued => snap.batch_get_grouped(exec, &queries).map(|groups| {
            let size = |vs: Vec<Vec<u8>>| vs.len() as u64;
            groups.into_iter().map(|g| g.map(size)).collect()
        }),
        _ => snap.batch_get(exec, &queries),
    };
    let answers: Vec<Option<u64>> = match answers {
        Ok(answers) => answers,
        Err(e) => return st.violations.push(format!("epoch {it}: {e}")),
    };
    for (k, answer) in owned.iter().zip(answers) {
        let key = String::from_utf8_lossy(k);
        let prev = st.last.get(k).copied();
        let Some(v) = answer else {
            if prev.is_some() {
                st.violations
                    .push(format!("epoch {it}: key {key:?} vanished"));
            }
            continue;
        };
        st.hits += 1;
        let regressed = prev.is_some_and(|prev| match snap.organization() {
            Organization::Combining(Combiner::Add) | Organization::MultiValued => v < prev,
            Organization::Combining(Combiner::Or) => v & prev != prev,
            _ => false,
        });
        if regressed {
            st.violations
                .push(format!("epoch {it}: key {key:?} regressed to {v}"));
        }
        st.last.insert(k.clone(), v);
    }
}

/// One shard's `--serve` stack: the publisher wired into its driver and
/// the stats its epoch hook folds into.
type ShardServing = (Arc<EpochPublisher>, Arc<Mutex<ServeStats>>);

/// Post-run serving oracle over the hash-routed [`ShardedSnapshot`] view of
/// every shard's last epoch (one shard: that epoch itself): no online
/// violations, and every key the collectors report must answer identically
/// from the finalized epochs.
fn check_serving(
    tables: &[&SepoTable],
    serving: &[ShardServing],
    execs: &[Executor],
) -> Result<String, String> {
    let (mut epochs, mut queries, mut hits, mut violations) = (0, 0, 0, Vec::new());
    let mut snaps = Vec::new();
    for (publisher, stats) in serving {
        let st = stats.lock().unwrap();
        epochs += st.epochs;
        queries += st.queries;
        hits += st.hits;
        violations.extend(st.violations.iter().cloned());
        snaps.push(publisher.current().ok_or("no epoch was ever published")?);
    }
    if let Some(v) = violations.first() {
        return Err(format!(
            "{} epoch violation(s), first: {v}",
            violations.len()
        ));
    }
    let view = ShardedSnapshot::new(snaps);
    if !view.finalized() {
        return Err("last published epoch is not the finalized one".into());
    }
    let mut checked = 0usize;
    for table in tables {
        checked += match table.config().organization {
            Organization::Combining(_) => check_keys(table.collect_combining(), 4096, |q| {
                view.batch_get(execs, q)
            })?,
            Organization::MultiValued => {
                let sorted = |mut vs: Vec<Vec<u8>>| {
                    vs.sort();
                    vs
                };
                let truth = table.collect_multivalued();
                let truth = truth.into_iter().map(|(k, vs)| (k, sorted(vs))).collect();
                check_keys(truth, 1024, |q| {
                    let groups = view.batch_get_grouped(execs, q)?;
                    Ok(groups.into_iter().map(|g| g.map(sorted)).collect())
                })?
            }
            Organization::Basic => 0,
        };
    }
    Ok(format!(
        "{epochs} epochs, {queries} queries answered ({hits} hits), final epoch checked {checked} keys: oracle ok"
    ))
}

/// Query every key of `truth` through `get`, `chunk` keys per batch, and
/// demand exactly the collectors' value back. Returns the keys checked.
fn check_keys<V: PartialEq>(
    truth: Vec<(Vec<u8>, V)>,
    chunk: usize,
    get: impl Fn(&[&[u8]]) -> Result<Vec<Option<V>>, QueryError>,
) -> Result<usize, String> {
    for chunk in truth.chunks(chunk) {
        let q: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_slice()).collect();
        let answers = get(&q).map_err(|e| e.to_string())?;
        for ((k, v), a) in chunk.iter().zip(answers) {
            if a.as_ref() != Some(v) {
                return Err(format!(
                    "final epoch: key {:?} diverges from the collectors",
                    String::from_utf8_lossy(k)
                ));
            }
        }
    }
    Ok(truth.len())
}

/// Build the input dataset: `--input` file (one record per line) or the
/// generated Table I dataset.
fn load_dataset(app: App, f: &Flags) -> Result<sepo_datagen::Dataset, String> {
    let Some(path) = &f.input else {
        return Ok(app.generate(f.dataset - 1, f.scale));
    };
    // Real user data: one record per line.
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut ds = sepo_datagen::Dataset::new();
    for record in bytes.split_inclusive(|&b| b == b'\n') {
        ds.push_record(record);
    }
    Ok(ds)
}

/// Shard `i`'s simulated device: its own metrics, sanitizer and fault
/// plan. Each fault flag attaches its family under its own seed, and every
/// stream is seeded `seed ^ i`, so each device sees independent faults and
/// shard 0 draws exactly the single-device streams.
fn shard_executor(f: &Flags, mode: ExecMode, i: u32) -> Executor {
    let shard = u64::from(i);
    let mut configs = [
        f.faults.map(|seed| FaultConfig::standard(seed ^ shard)),
        f.chaos_seed.map(|seed| FaultConfig::chaos(seed ^ shard)),
        f.corrupt.map(|seed| FaultConfig::corruption(seed ^ shard)),
    ]
    .into_iter()
    .flatten();
    let mut exec = Executor::new(mode, Arc::new(Metrics::new()));
    if let Some(first) = configs.next() {
        let plan = configs.fold(FaultPlan::new(first), FaultPlan::with);
        exec = exec.with_faults(Arc::new(plan));
    }
    if f.sanitize {
        exec = exec.with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
    }
    exec
}

/// One device's `AppConfig` from the flags. `disk` writes this device's
/// section of the `--checkpoint` file; without one, `--chaos-seed` and
/// `--corrupt` still need somewhere to recover from, so they keep a
/// checkpoint in memory.
fn shard_config(
    f: &Flags,
    heap: u64,
    disk: Option<CheckpointPolicy>,
    serving: Option<&ShardServing>,
) -> AppConfig {
    let recovering = f.chaos_seed.is_some() || f.corrupt.is_some();
    let in_memory = if recovering {
        CheckpointPolicy::Memory
    } else {
        CheckpointPolicy::Off
    };
    let mut cfg = AppConfig::new(heap)
        .with_audit(f.audit)
        .with_combiner(f.combiner)
        .with_sanitize(f.sanitize)
        .with_evict_overlap(f.evict_overlap)
        .with_scrub(f.scrub)
        .with_checkpoint(disk.unwrap_or(in_memory));
    if recovering {
        cfg = cfg.with_max_recoveries(32);
    }
    if let Some((publisher, _)) = serving {
        cfg = cfg.with_serving(Arc::clone(publisher));
    }
    cfg
}

/// Sum of `of` over `items`: every counter `sepo run` reports is a sum over
/// shards.
fn total<T>(items: &[T], of: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(of).sum()
}

/// `sepo run`: the app over `--shards N` simulated devices (per-shard
/// device heap, warp pool, fault streams; N = 1 is the
/// single-device run). For N > 1 an unsharded reference run follows, the
/// merged canonical image is checked against it, and divergence fails the
/// process after the `sharded image vs 1 device: …` line CI greps for.
fn cmd_run(app: App, f: &Flags) -> Result<(), String> {
    let n = f.shards;
    if n > 1 && f.save.is_some() {
        return Err(
            "--save needs a single table image; it is not available with --shards > 1".into(),
        );
    }
    let spec = gpu_sim::SystemSpec::scaled(f.scale);
    let heap = f.heap.unwrap_or_else(|| device_heap(&spec));
    let devices = match n {
        1 => format!("device heap {}", fmt_bytes(heap)),
        _ => format!("{n} shards, device heap {} per shard", fmt_bytes(heap)),
    };
    println!(
        "{} | dataset #{} at scale 1/{} | {devices}",
        app.name(),
        f.dataset,
        f.scale
    );
    let ds = load_dataset(app, f)?;
    println!(
        "input: {} ({} records)",
        fmt_bytes(ds.size_bytes()),
        ds.len()
    );

    let mode = if f.parallel {
        ExecMode::Parallel { workers: 0 }
    } else {
        ExecMode::ParallelDeterministic
    };
    if let Some(seed) = f.faults {
        println!("fault injection: standard rates, seed {seed}");
    }
    if let Some(seed) = f.chaos_seed {
        println!("chaos injection: hard device faults at standard rates, seed {seed}");
    }
    if let Some(seed) = f.corrupt {
        println!("corruption injection: silent flips at standard rates, seed {seed}");
    }
    if f.sanitize {
        println!("shadow-memory sanitizer: on");
    }
    // --checkpoint persists boundary checkpoints: one SEPOCKS3 file with a
    // section per shard.
    let ckp_file = f.checkpoint.as_ref().map(|path| {
        let sections = if n == 1 { "section" } else { "sections" };
        println!("checkpoint: SEPOCKS3 file at {path} ({n} {sections})");
        Arc::new(CheckpointFile::new(path.into(), n))
    });
    // --serve: epoch-snapshot serving under the live run. Every boundary's
    // snapshot is handed to a hook that answers a Zipf-skewed query batch
    // through a *separate* serving executor per shard (own metrics, own
    // fault stream); the run itself must stay byte-identical.
    let serving = f.serve.then(|| {
        println!(
            "serving: epoch snapshots on, {} queries per epoch",
            f.queries
        );
        let execs: Vec<Executor> = (0..n)
            .map(|i| {
                let exec = Executor::new(mode, Arc::new(Metrics::new()));
                match f.faults {
                    // A distinct fault stream: serving retries its own aborts.
                    Some(seed) => exec.with_faults(Arc::new(FaultPlan::new(
                        FaultConfig::standard(seed ^ 0x5E17 ^ u64::from(i)),
                    ))),
                    None => exec,
                }
            })
            .collect();
        let execs = Arc::new(execs);
        let shards: Vec<ShardServing> = (0..n as usize)
            .map(|i| {
                let shard: ShardServing = Default::default();
                let (execs, stats, per_epoch) =
                    (Arc::clone(&execs), Arc::clone(&shard.1), f.queries);
                shard.0.on_epoch(move |snap| {
                    serve_epoch(snap, &execs[i], per_epoch, &mut stats.lock().unwrap());
                });
                shard
            })
            .collect();
        (execs, shards)
    });

    let execs: Vec<Executor> = (0..n).map(|i| shard_executor(f, mode, i)).collect();
    let cfgs: Vec<AppConfig> = (0..n)
        .map(|i| {
            let serving = serving.as_ref().map(|(_, shards)| &shards[i as usize]);
            let disk = ckp_file
                .as_ref()
                .map(|file| CheckpointPolicy::Disk(Arc::clone(file), i));
            shard_config(f, heap, disk, serving)
        })
        .collect();
    let sharded = run_app_sharded(app, &ds, &cfgs, &execs);
    let runs = &sharded.shards;

    let recs: Vec<_> = runs.iter().map(|r| r.outcome.recovery).collect();
    let plans: Vec<_> = execs.iter().filter_map(|e| e.faults()).collect();
    if !plans.is_empty() {
        println!(
            "  injected faults: {} lane aborts over {} draws",
            total(&plans, |p| p.injected(FaultKind::LaneAbort)),
            total(&plans, |p| p.draws(FaultKind::LaneAbort))
        );
    }
    if plans.iter().any(|p| p.has_hard_faults()) {
        println!(
            "  hard faults: {} device losses, {} poisoned launches",
            total(&plans, |p| p.injected(FaultKind::DeviceLost)),
            total(&plans, |p| p.injected(FaultKind::PoisonedLaunch))
        );
    }
    if plans.iter().any(|p| p.has_corruption()) {
        // The run finished, so every injected flip was detected and
        // repaired — an escaped flip fails the run with a witness.
        println!(
            "  integrity: recovered ({} flips injected: {} retransmits, \
             {} checkpoint restores, {} image rewrites; {} host pages scrubbed clean)",
            total(&plans, |p| FaultKind::CORRUPTION
                .iter()
                .map(|&k| p.injected(k))
                .sum()),
            total(&recs, |r| r.retransmits),
            total(&recs, |r| r.integrity_restores.into()),
            total(&recs, |r| r.checkpoint_rewrites.into()),
            total(&recs, |r| r.scrubbed_pages)
        );
    }
    if f.scrub && f.corrupt.is_none() {
        println!(
            "  scrub: {} finalized host pages verified",
            total(&recs, |r| r.scrubbed_pages)
        );
    }
    if cfgs.iter().any(|c| c.driver.checkpoint.is_enabled()) {
        println!(
            "  checkpoints: {} taken (latest {}), {} recoveries, {} iterations replayed",
            total(&recs, |r| r.checkpoints_taken.into()),
            fmt_bytes(total(&recs, |r| r.checkpoint_bytes)),
            total(&recs, |r| r.recoveries.into()),
            total(&recs, |r| r.replayed_iterations.into())
        );
    }
    if f.audit {
        println!("  audit: every iteration boundary checked");
    }
    for sz in execs.iter().filter_map(|e| e.shadow()) {
        println!("  sanitizer: {}", sz.report());
    }
    let snaps: Vec<_> = execs.iter().map(|e| e.metrics().snapshot()).collect();
    let hits = total(&snaps, |s| s.combiner_hits);
    let flushes = total(&snaps, |s| s.combiner_flushes);
    if f.combiner && hits + flushes > 0 {
        println!(
            "  block combiner: {hits} emits absorbed, {flushes} batched flushes, {} overflows",
            total(&snaps, |s| s.combiner_overflows)
        );
    }
    println!(
        "  head CAS retries: {}",
        total(&snaps, |s| s.head_cas_retries)
    );
    println!(
        "  allocator: {} allocations, {} cursor updates, {} run tails lost ({})",
        total(&snaps, |s| s.alloc_success),
        total(runs, |r| r.table.cursor_updates()),
        total(runs, |r| r.table.lost_run_tails().0),
        fmt_bytes(total(runs, |r| r.table.lost_run_tails().1))
    );

    let hists: Vec<_> = runs
        .iter()
        .map(|r| r.table.full_contention_histogram())
        .collect();
    let parts: Vec<_> = runs
        .iter()
        .zip(&hists)
        .map(|(r, h)| (&r.outcome, h))
        .collect();
    // Per-iteration makespan max across shards; one shard's own clock.
    let gpu = sharded_total_time(&parts, &spec);
    let (pages, bytes) = runs
        .iter()
        .map(|r| r.table.host_footprint())
        .fold((0, 0), |a, (p, b)| (a.0 + p, a.1 + b));
    let evicted: u64 = runs.iter().map(|r| r.outcome.total_evicted_bytes()).sum();
    let stopped_early = runs
        .iter()
        .flat_map(|r| &r.outcome.iterations)
        .filter(|i| i.halted_early)
        .count();
    let across = if n > 1 {
        format!(" across {n} shards")
    } else {
        String::new()
    };
    println!("\nGPU/SEPO run");
    println!(
        "  iterations        {} ({stopped_early} stopped early{across})",
        gpu.iterations
    );
    println!(
        "  table (host side) {} in {} pages",
        fmt_bytes(bytes),
        pages
    );
    println!("  evicted to CPU    {}", fmt_bytes(evicted));
    let compacted: Vec<CompactReport> = runs.iter().filter_map(|r| r.outcome.compaction).collect();
    if !compacted.is_empty() {
        let kb = |of: fn(&CompactReport) -> u64| total(&compacted, of) as f64 / 1024.0;
        println!(
            "  host compaction: {} entries -> {} keys, {:.1} KB -> {:.1} KB",
            total(&compacted, |c| c.entries),
            total(&compacted, |c| c.keys),
            kb(|c| c.bytes_before),
            kb(|c| c.bytes_after)
        );
    }
    println!("  sim time          {}", gpu.total);
    println!(
        "    kernels {} | transfers {} | contention {}",
        gpu.kernel, gpu.transfers, gpu.contention
    );
    for (i, (run, routed)) in runs.iter().zip(&sharded.routed_records).enumerate() {
        if n > 1 {
            println!(
                "  shard {i}: {routed:>6} records routed, {:>2} iterations, {:>9} evicted",
                run.iterations(),
                fmt_bytes(run.outcome.total_evicted_bytes())
            );
        }
        let stats = run.table.table_stats();
        println!(
            "  table shape       {} keys over {} buckets (load factor {:.2}, max chain {}, mean {:.2})",
            stats.distinct_keys, stats.buckets, stats.load_factor, stats.max_chain, stats.mean_chain
        );
    }

    let (snapshot, contention) = cpu_baseline(app, &ds);
    let cpu = cpu_total_time(&snapshot, &contention, &spec);
    let baseline = if App::MAPREDUCE.contains(&app) {
        "Phoenix++-style"
    } else {
        "shared hash table, 8 threads"
    };
    println!("\nCPU baseline");
    println!("  sim time          {cpu} ({baseline})");
    println!(
        "\nspeedup             {}",
        fmt_speedup(cpu.ratio(gpu.total))
    );

    if n > 1 {
        // Unsharded reference: one device, same heap and flags, shard 0's
        // fault seeds. The merged canonical image must match it byte for
        // byte.
        let ref_exec = shard_executor(f, mode, 0);
        let reference = run_app(app, &ds, &shard_config(f, heap, None, None), &ref_exec);
        let ref_hist = reference.table.full_contention_histogram();
        let ref_gpu = gpu_total_time(&reference.outcome, &ref_hist, &spec);
        println!("\nunsharded reference (1 device, same heap)");
        println!("  iterations        {}", ref_gpu.iterations);
        println!("  sim time          {}", ref_gpu.total);
        let identical = sharded.image == unsharded_image(&reference);
        println!(
            "\nsharded image vs 1 device: {}",
            if identical { "identical" } else { "DIVERGED" }
        );
        println!(
            "speedup vs 1 device {}",
            fmt_speedup(ref_gpu.total.ratio(gpu.total))
        );
        if !identical {
            return Err("the merged sharded image diverged from the 1-device reference".into());
        }
    }

    if let Some((serve_execs, shards)) = &serving {
        let tables: Vec<&SepoTable> = runs.iter().map(|r| &r.table).collect();
        let summary = check_serving(&tables, shards, serve_execs)
            .map_err(|e| format!("serving oracle FAILED: {e}"))?;
        let traffic: Vec<_> = serve_execs.iter().map(|e| e.metrics().snapshot()).collect();
        println!("\nserving under the run");
        println!("  {summary}");
        println!(
            "  serving traffic: {} bulk transfers, {} over PCIe (charged off-run), \
             {} device bytes, {} chain hops",
            total(&traffic, |s| s.pcie_bulk_transfers),
            fmt_bytes(total(&traffic, |s| s.pcie_bulk_bytes)),
            total(&traffic, |s| s.device_bytes),
            total(&traffic, |s| s.chain_hops)
        );
    }

    if let (Some(path), [run]) = (&f.save, runs.as_slice()) {
        let file = std::fs::File::create(path);
        let mut file = file.map_err(|e| format!("cannot create {path}: {e}"))?;
        run.table
            .save(&mut file)
            .map_err(|e| format!("cannot save table: {e}"))?;
        println!("table image saved to {path}");
    }
    Ok(())
}

fn cmd_query(path: &str, keys: &[String]) -> Result<(), String> {
    use sepo_core::HostStore;
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let table = SepoTable::load(&mut file, 1 << 20, Arc::new(Metrics::new()))
        .map_err(|e| format!("cannot load table image: {e}"))?;
    let idx = HostStore::of_finalized(&table).map_err(|e| format!("cannot query {path}: {e}"))?;
    println!("loaded {path}: {} distinct keys", idx.len());
    for key in keys {
        let answer = match table.config().organization {
            Organization::Combining(_) => idx
                .get_combined(key.as_bytes())
                .map(|v| v.map(|v| v.to_string())),
            Organization::MultiValued => idx.get_grouped(key.as_bytes()).map(|vs| {
                let shown = |v: &Vec<u8>| String::from_utf8_lossy(v).into_owned();
                vs.map(|vs| format!("[{}]", vs.iter().map(shown).collect::<Vec<_>>().join(", ")))
            }),
            Organization::Basic => {
                println!("{key}: basic tables have no keyed query; use collect_basic()");
                continue;
            }
        };
        match answer.map_err(|e| format!("{key}: {e}"))? {
            Some(v) => println!("{key} = {v}"),
            None => println!("{key} = <absent>"),
        }
    }
    Ok(())
}

fn cmd_lookup(f: Flags) -> Result<(), String> {
    use sepo_datagen::{weblog, Rng, Zipf};
    let spec = gpu_sim::SystemSpec::scaled(f.scale);
    let heap = f.heap.unwrap_or_else(|| device_heap(&spec));
    let ds = App::PageViewCount.generate(1, f.scale);
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let run = sepo_apps::pvc::run(&ds, &AppConfig::new(heap), &exec);
    let (_, table_bytes) = run.table.host_footprint();
    println!(
        "built PVC table: {} over a {} heap ({} iterations)",
        fmt_bytes(table_bytes),
        fmt_bytes(heap),
        run.iterations()
    );

    let mut rng = Rng::new(7);
    let universe = (ds.len() / 3).max(1);
    let zipf = Zipf::new(universe, 0.9);
    let owned: Vec<String> = (0..f.queries)
        .map(|i| {
            if i % 5 == 4 {
                format!("http://absent.example.com/{i}")
            } else {
                weblog::url(zipf.sample(&mut rng))
            }
        })
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
    let out = run.table.lookup_phase(&exec, &queries);
    println!(
        "lookup phase: {} queries, {} rounds, {} paged through the device, {} hits",
        queries.len(),
        out.n_rounds(),
        fmt_bytes(out.total_loaded_bytes()),
        out.hits()
    );
    for r in &out.rounds {
        println!(
            "  round {}: {:>3} pages in, {:>7} pending, {:>7} completed",
            r.round, r.pages_loaded, r.queries_attempted, r.queries_completed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = |from: usize| args.get(from..).and_then(parse_flags);
    // `None`: malformed command line.
    let done = match args.first().map(String::as_str) {
        Some("apps") => Some(cmd_apps()),
        Some("run") => args
            .get(1)
            .and_then(|s| app_by_slug(s))
            .zip(flags(2))
            .map(|(app, f)| cmd_run(app, &f)),
        Some("lookup") => flags(1).map(cmd_lookup),
        Some("query") => args.get(1).map(|path| cmd_query(path, &args[2..])),
        _ => None,
    };
    match done {
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        None => usage(),
    }
}
