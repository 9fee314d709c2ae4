//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded by the benchmark's own code (tracing inside the
//! crates is a later change), kept in memory, and written as JSON lines
//! when the run ends. A disabled tracer records nothing, so the untraced
//! run pays two branch tests per span site.

use gpu_sim::Snapshot;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Counts attached to a span at its closing boundary.
pub type Counts = Vec<(&'static str, u64)>;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    open: Vec<u32>,
}

/// Span recorder shared between the harness and the serving hook (which
/// runs inside `run_app`, hence the lock; one thread, never contended).
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    inner: Mutex<Inner>,
}

/// Handle of an open span; `None` inside when tracing is off.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            enabled,
            workload,
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a span site panicked while recording")
    }

    /// Open a span under the innermost open span.
    pub fn begin(&self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        inner.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, attaching the counts taken at this boundary.
    pub fn end(&self, span: Open, counts: Counts) {
        self.close(span, None, counts);
    }

    /// [`Tracer::end`] for a span whose name is only known when it closes
    /// (an iteration learns its number from the epoch that ends it).
    pub fn end_as(&self, span: Open, name: String, counts: Counts) {
        self.close(span, Some(name), counts);
    }

    fn close(&self, span: Open, name: Option<String>, counts: Counts) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let top = inner.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let s = &mut inner.spans[id as usize];
        s.end_ns = end_ns;
        s.counts = counts;
        if let Some(name) = name {
            s.name = name;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open, Vec::new());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let self_ns = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let mut counts = serde_json::Map::new();
            for (k, v) in &s.counts {
                counts.insert(k.to_string(), serde_json::Value::from(*v));
            }
            let line = serde_json::json!({
                "workload": self.workload,
                "id": s.id,
                "parent": s.parent,
                "name": s.name.as_str(),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns[s.id as usize],
                "counts": counts,
            });
            let text = serde_json::to_string(&line).expect("the stub serializer is total");
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// Every span's self time, by span id: its duration minus the part its
/// direct children cover. Children of one parent never overlap (one thread,
/// nested begin/end), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            covered[parent as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The non-zero fields of a metrics delta, as span counts.
pub fn snapshot_counts(d: &Snapshot) -> Counts {
    [
        ("tasks", d.tasks),
        ("compute_units", d.compute_units),
        ("device_bytes", d.device_bytes),
        ("stream_bytes", d.stream_bytes),
        ("chain_hops", d.chain_hops),
        ("smem_bytes", d.smem_bytes),
        ("combiner_hits", d.combiner_hits),
        ("combiner_flushes", d.combiner_flushes),
        ("combiner_overflows", d.combiner_overflows),
        ("head_cas_retries", d.head_cas_retries),
        ("divergence_events", d.divergence_events),
        ("alloc_success", d.alloc_success),
        ("alloc_postponed", d.alloc_postponed),
        ("pcie_bulk_transfers", d.pcie_bulk_transfers),
        ("pcie_bulk_bytes", d.pcie_bulk_bytes),
    ]
    .into_iter()
    .filter(|&(_, v)| v > 0)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25), // grandchild: already inside span 1
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 20, 30 - 10, 10, 20]);
    }

    #[test]
    fn nesting_assigns_parents_and_off_records_nothing() {
        let t = Tracer::new("w", true);
        let outer = t.begin("outer");
        t.span("inner", || {});
        t.end(outer, vec![("records", 3)]);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].counts, vec![("records", 3)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Tracer::new("w", false);
        let o = off.begin("x");
        off.end(o, Vec::new());
        assert!(off.spans().is_empty());
    }
}
