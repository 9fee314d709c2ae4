//! The read side of `serve_mixed`: query batches against every published
//! epoch, then a lookup phase over the finalized table.
//!
//! At each epoch the hook draws [`BATCHES_PER_EPOCH`] batches of [`BATCH`]
//! queries — Zipf 0.9 over the keys visible at that epoch, one absent key
//! in five — *before* timing anything, then times each `batch_get` on its
//! own. Every answer is checked: a visible key must hit, an absent key must
//! miss, a combined value may never run ahead of the finished oracle nor
//! fall behind what an earlier epoch answered, and the finalized epoch must
//! answer exactly the oracle.

use crate::setup::{executor, Oracle};
use crate::trace::{snapshot_counts, Tracer};
use crate::verify::Tally;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::{ContentionHistogram, GpuCostModel, Metrics, PcieBus, Snapshot, SystemSpec};
use sepo_core::{Combiner, EpochPublisher, EpochSnapshot, Organization, SepoTable};
use sepo_datagen::{Rng, Zipf};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const BATCHES_PER_EPOCH: usize = 64;
pub const BATCH: usize = 256;
const ZIPF_S: f64 = 0.9;

/// `i`-th query of a mixed load: every fifth is a key no dataset contains.
fn mixed_query(i: usize, keys: &[Vec<u8>], zipf: &Zipf, rng: &mut Rng) -> Vec<u8> {
    if i % 5 == 4 {
        format!("absent-{i}").into_bytes()
    } else {
        keys[zipf.sample(rng)].clone()
    }
}

/// What the serving hook gathered over one `run_app`.
#[derive(Default)]
pub struct ServeStats {
    /// Host seconds per `batch_get` call.
    pub batch_secs: Vec<f64>,
    /// Simulated seconds per batch, priced as `bin/serving.rs` does.
    pub batch_sim_secs: Vec<f64>,
    pub queries: u64,
    /// Host seconds spent inside the hook (query building, serving and
    /// checking) — subtracted from the run's wall.
    pub hook_secs: f64,
    /// Hook entry and exit stamps per epoch, seconds since the load was
    /// created; iteration walls are read off the gaps between them.
    pub stamps: Vec<(f64, f64)>,
    /// Serving executor's metrics over the whole run.
    pub metrics: Snapshot,
    pub tally: Tally,
    last_answer: HashMap<Vec<u8>, u64>,
}

/// An epoch publisher wired to a query load (or to nothing but boundary
/// stamps, for the traced runs of the workloads that serve no reads).
pub struct ServeLoad {
    pub publisher: Arc<EpochPublisher>,
    stats: Arc<Mutex<ServeStats>>,
}

struct Pricing {
    gpu: GpuCostModel,
    bus: PcieBus,
}

impl Pricing {
    fn new(spec: &SystemSpec) -> Self {
        Pricing {
            gpu: GpuCostModel::new(spec.device.clone()),
            bus: PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new())),
        }
    }

    /// Probe-kernel time at device rates plus the bulk transfers the batch
    /// charged, each with its own initiation latency.
    fn batch_secs(&self, d: &Snapshot) -> f64 {
        let empty = ContentionHistogram::default();
        let lat0 = self.bus.bulk_transfer_time(0);
        let t = self.gpu.kernel_time(d, &empty)
            + self.bus.bulk_transfer_time(d.pcie_bulk_bytes)
            + lat0 * d.pcie_bulk_transfers.saturating_sub(1);
        t.as_secs_f64()
    }
}

impl ServeLoad {
    /// A publisher whose hook fires the mixed query load when `queries` is
    /// set, and always stamps the boundary (and, when tracing, records
    /// `iter.N` / `finalize` / `serve.epoch.N` / `serve.batch` spans under
    /// whatever span is open when `run_app` starts).
    pub fn new(
        queries: bool,
        oracle: Arc<Oracle>,
        spec: &SystemSpec,
        seed: u64,
        run_metrics: Arc<Metrics>,
        tracer: Arc<Tracer>,
    ) -> ServeLoad {
        let publisher = Arc::new(EpochPublisher::default());
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let exec = executor(ExecMode::ParallelDeterministic);
        let pricing = Pricing::new(spec);
        let origin = Instant::now();
        let hook_stats = Arc::clone(&stats);
        // A segment span runs from one hook's exit to the next one's
        // entry; the epoch that closes it says which iteration it was.
        let open_segment = Mutex::new(None);
        publisher.on_epoch(move |snap| {
            let entered = origin.elapsed().as_secs_f64();
            let mut st = hook_stats.lock().expect("serving hook panicked earlier");
            let now = run_metrics.snapshot();
            let closing: Option<(crate::trace::Open, Snapshot)> =
                open_segment.lock().expect("hook panicked earlier").take();
            if let Some((span, before)) = closing {
                let name = if snap.finalized() {
                    "finalize".to_string()
                } else {
                    format!("iter.{}", snap.iteration())
                };
                tracer.end_as(span, name, snapshot_counts(&now.delta(&before)));
            }
            if queries {
                let span = tracer.begin(format!("serve.epoch.{}", snap.iteration()));
                serve_epoch(snap, &exec, &oracle, &pricing, seed, &tracer, &mut st);
                tracer.end(span, Vec::new());
            }
            st.metrics = exec.metrics().snapshot();
            if !snap.finalized() {
                *open_segment.lock().expect("hook panicked earlier") =
                    Some((tracer.begin("segment"), now));
            }
            let left = origin.elapsed().as_secs_f64();
            st.hook_secs += left - entered;
            st.stamps.push((entered, left));
        });
        ServeLoad { publisher, stats }
    }

    /// Take what the hook gathered (call after `run_app` returned).
    pub fn finish(self) -> ServeStats {
        let mut stats = std::mem::take(&mut *self.stats.lock().expect("serving hook panicked"));
        // Only the hook compares epochs; the samples outlive the run.
        stats.last_answer = HashMap::new();
        stats
    }
}

/// Host seconds of each SEPO iteration, from the boundary stamps: the gap
/// between one hook's exit and the next hook's entry. The finalized epoch
/// follows the last iteration's boundary directly and is left out.
pub fn iteration_walls(stamps: &[(f64, f64)], iterations: usize) -> Vec<f64> {
    stamps
        .windows(2)
        .take(iterations)
        .map(|w| w[1].0 - w[0].1)
        .collect()
}

/// Can `partial` still grow into `whole` under `comb`? Sums only rise and
/// bit sets only gain bits; Min/Max partials may sit on either side.
fn sound_partial(comb: Combiner, partial: u64, whole: u64) -> bool {
    match comb {
        Combiner::Add => partial <= whole,
        Combiner::Or => partial & !whole == 0,
        _ => true,
    }
}

fn serve_epoch(
    snap: &EpochSnapshot,
    exec: &Executor,
    oracle: &Oracle,
    pricing: &Pricing,
    seed: u64,
    tracer: &Tracer,
    st: &mut ServeStats,
) {
    let (Organization::Combining(comb), Oracle::Combining(truth)) = (snap.organization(), oracle)
    else {
        panic!("the serving workload is a combining one");
    };
    let keys = snap.visible_keys();
    if keys.is_empty() {
        return;
    }
    let mut rng = Rng::new(seed ^ 0x5E17 ^ u64::from(snap.iteration()));
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let batches: Vec<Vec<Vec<u8>>> = (0..BATCHES_PER_EPOCH)
        .map(|_| {
            (0..BATCH)
                .map(|i| mixed_query(i, &keys, &zipf, &mut rng))
                .collect()
        })
        .collect();
    let it = snap.iteration();
    for owned in &batches {
        let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let before = exec.metrics().snapshot();
        let span = tracer.begin("serve.batch");
        let start = Instant::now();
        let answers = snap.batch_get(exec, &queries);
        let secs = start.elapsed().as_secs_f64();
        let delta = exec.metrics().snapshot().delta(&before);
        tracer.end(span, snapshot_counts(&delta));
        st.batch_secs.push(secs);
        st.batch_sim_secs.push(pricing.batch_secs(&delta));
        st.queries += queries.len() as u64;
        let answers = match answers {
            Ok(a) => a,
            Err(e) => {
                for _ in &queries {
                    st.tally.check(false, || format!("epoch {it}: {e}"));
                }
                continue;
            }
        };
        for (i, (key, answer)) in owned.iter().zip(&answers).enumerate() {
            let show = || String::from_utf8_lossy(key).into_owned();
            if i % 5 == 4 {
                st.tally.check(answer.is_none(), || {
                    format!("epoch {it}: absent key {:?} answered {answer:?}", show())
                });
                continue;
            }
            let Some(v) = *answer else {
                st.tally.check(false, || {
                    format!("epoch {it}: visible key {:?} missed", show())
                });
                continue;
            };
            let fin = truth.get(key).copied();
            let prev = st.last_answer.insert(key.clone(), v);
            let sound = match fin {
                None => false,
                Some(f) if snap.finalized() => v == f,
                Some(f) => {
                    sound_partial(comb, v, f) && prev.is_none_or(|p| sound_partial(comb, p, v))
                }
            };
            st.tally.check(sound, || {
                format!(
                    "epoch {it}: key {:?} answered {v} (earlier {prev:?}, final {fin:?})",
                    show()
                )
            });
        }
    }
}

/// The lookup phase after `finalize`: `n` queries of the same mix against
/// the finished table. Queries are built before the clock starts. Every
/// result is checked against the oracle for hit or miss. A key whose value
/// was evicted in several partials is answered with the first partial the
/// phase pages in (`lookup_phase` does not merge them), so a hit's value is
/// only required not to run ahead of the oracle; `partial` counts the hits
/// that fell short, the share a later fix should drive to zero.
pub struct LookupResult {
    pub secs: f64,
    pub queries: u64,
    pub rounds: u32,
    pub loaded_bytes: u64,
    pub hits: u64,
    pub partial: u64,
    pub tally: Tally,
}

pub fn lookup_phase(
    table: &SepoTable,
    oracle: &Oracle,
    n: usize,
    seed: u64,
    tracer: &Tracer,
) -> LookupResult {
    let (Organization::Combining(comb), Oracle::Combining(truth)) =
        (table.config().organization, oracle)
    else {
        panic!("the lookup phase reads a combining table");
    };
    let keys: Vec<Vec<u8>> = oracle
        .sorted_keys()
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    let mut rng = Rng::new(seed ^ 0x100C);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let owned: Vec<Vec<u8>> = (0..n)
        .map(|i| mixed_query(i, &keys, &zipf, &mut rng))
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    // The phase pages table segments through the table's own (now empty)
    // heap and counts on the table's metrics.
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(table.metrics()));
    let span = tracer.begin("lookup.phase");
    let start = Instant::now();
    let out = table.lookup_phase(&exec, &queries);
    let secs = start.elapsed().as_secs_f64();
    tracer.end(
        span,
        vec![
            ("queries", n as u64),
            ("loaded_bytes", out.total_loaded_bytes()),
        ],
    );
    let mut tally = Tally::default();
    let mut partial = 0;
    for (key, got) in owned.iter().zip(&out.results) {
        let want = truth.get(key).copied();
        let sound = match (*got, want) {
            (None, None) => true,
            (Some(g), Some(w)) => {
                partial += u64::from(g != w);
                sound_partial(comb, g, w)
            }
            _ => false,
        };
        tally.check(sound, || {
            format!(
                "lookup {:?}: got {got:?}, oracle {want:?}",
                String::from_utf8_lossy(key)
            )
        });
    }
    LookupResult {
        secs,
        queries: n as u64,
        rounds: out.n_rounds(),
        loaded_bytes: out.total_loaded_bytes(),
        hits: out.hits() as u64,
        partial,
        tally,
    }
}
