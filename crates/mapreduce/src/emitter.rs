//! The KV emitter handed to map functions.
//!
//! The emitter is the bridge between a map function and the SEPO hash
//! table: it numbers the pairs a task emits, *skips* pairs already stored
//! in a previous iteration (resuming at the saved progress), and records
//! the index of the first postponed pair so the task can resume exactly
//! there next iteration. Map functions simply emit every pair every time;
//! idempotence across SEPO iterations is the emitter's job. A map function
//! that charges simulated work per pair asks [`Emitter::will_attempt`]
//! first, so skipped pairs cost nothing.

use gpu_sim::executor::LaneCtx;
use sepo_core::combiner::WarpCombiner;
use sepo_core::hash::fnv1a;
use sepo_core::sepo::TaskResult;
use sepo_core::table::{InsertStatus, SepoTable};

/// Pair-emission state for one task execution.
pub struct Emitter<'a, 'w> {
    table: &'a SepoTable,
    lane: &'a mut LaneCtx<'w>,
    start_pair: u32,
    next_pair: u32,
    postponed_at: Option<u32>,
}

impl<'a, 'w> Emitter<'a, 'w> {
    /// An emitter resuming at `start_pair` (0 on a task's first attempt).
    pub fn new(table: &'a SepoTable, lane: &'a mut LaneCtx<'w>, start_pair: u32) -> Self {
        Emitter {
            table,
            lane,
            start_pair,
            next_pair: 0,
            postponed_at: None,
        }
    }

    /// Emit a `<key, u64>` pair into a combining (MAP_REDUCE) table.
    /// Returns `false` once a pair has been postponed — the map function
    /// may stop early (later emits are ignored either way).
    ///
    /// The key is hashed exactly once here; the `u64` is threaded through
    /// the insert/find paths (and the block combiner's set probe, when the
    /// driver attached one) instead of re-running FNV-1a per layer.
    pub fn emit_combining(&mut self, key: &[u8], value: u64) -> bool {
        if !self.should_attempt() {
            return self.postponed_at.is_none();
        }
        let hash = fnv1a(key);
        // Sharded ownership filter, ahead of the block combiner so a
        // foreign key never occupies a combiner slot: the owner shard's
        // replica of this task stores it (see `SepoTable` shard docs).
        if !self.table.config().owns_hash(hash) {
            return true;
        }
        // Route through the block combiner when the launch installed one:
        // duplicate keys within the thread block fold locally and flush at
        // block retirement; first touches and postponements follow the
        // direct path bit for bit.
        let (scratch, mut warp_charge) = self.lane.scratch_parts();
        let status = match scratch.and_then(|s| s.downcast_mut::<WarpCombiner>()) {
            Some(wc) => wc.emit(self.table, key, hash, value, &mut warp_charge),
            None => self
                .table
                .insert_combining_hashed(key, hash, value, self.lane),
        };
        match status {
            InsertStatus::Success => true,
            InsertStatus::Postponed => {
                self.note_postponed();
                false
            }
        }
    }

    /// Emit a `<key, value>` pair into a multi-valued (MAP_GROUP) table.
    pub fn emit_grouped(&mut self, key: &[u8], value: &[u8]) -> bool {
        if !self.should_attempt() {
            return self.postponed_at.is_none();
        }
        match self.table.insert_multivalued(key, value, self.lane) {
            InsertStatus::Success => true,
            InsertStatus::Postponed => {
                self.note_postponed();
                false
            }
        }
    }

    /// The lane, for charging map-side parse work.
    pub fn lane(&mut self) -> &mut LaneCtx<'w> {
        self.lane
    }

    /// Will the next emit be attempted? No below the resume point and after
    /// a postponement. A map function that charges per-pair work asks
    /// first, so a resumed task pays only for the pairs it stores.
    pub fn will_attempt(&self) -> bool {
        self.postponed_at.is_none() && self.next_pair >= self.start_pair
    }

    /// [`Emitter::will_attempt`], advancing the pair counter.
    fn should_attempt(&mut self) -> bool {
        let attempt = self.will_attempt();
        self.next_pair += 1;
        attempt
    }

    fn note_postponed(&mut self) {
        // next_pair was already advanced past the failing pair.
        self.postponed_at = Some(self.next_pair - 1);
    }

    /// Fold the emission record into the task's [`TaskResult`].
    pub fn finish(self) -> TaskResult {
        match self.postponed_at {
            None => TaskResult::Done,
            Some(p) => TaskResult::Postponed { next_pair: p },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::executor::{ExecMode, Executor};
    use gpu_sim::metrics::Metrics;
    use sepo_core::config::{Combiner, Organization, TableConfig};
    use std::sync::Arc;

    fn run_one_task(
        table: &SepoTable,
        start: u32,
        f: impl Fn(&mut Emitter<'_, '_>) + Sync,
    ) -> TaskResult {
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(table.metrics()));
        let result = parking_lot::Mutex::new(None);
        exec.launch(1, |lane| {
            let mut e = Emitter::new(table, lane, start);
            f(&mut e);
            *result.lock() = Some(e.finish());
        });
        result.into_inner().unwrap()
    }

    fn combining_table(pages: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn all_pairs_stored_reports_done() {
        let t = combining_table(16);
        let r = run_one_task(&t, 0, |e| {
            assert!(e.emit_combining(b"a", 1));
            assert!(e.emit_combining(b"b", 2));
        });
        assert_eq!(r, TaskResult::Done);
        t.finalize();
        assert_eq!(t.collect_combining().len(), 2);
    }

    #[test]
    fn postponement_reports_failing_pair_index() {
        let t = combining_table(1);
        let r = run_one_task(&t, 0, |e| {
            let mut i = 0u64;
            // Emit big keys until one postpones.
            loop {
                let key = format!("key-{i:04}-{}", "x".repeat(40));
                if !e.emit_combining(key.as_bytes(), 1) {
                    break;
                }
                i += 1;
                assert!(i < 1000, "heap never filled");
            }
        });
        match r {
            TaskResult::Postponed { next_pair } => assert!(next_pair > 0),
            TaskResult::Done => panic!("must postpone"),
        }
    }

    #[test]
    fn resume_skips_already_stored_pairs() {
        let t = combining_table(16);
        // First attempt stores pairs 0 and 1 (simulate postponement at 2 by
        // resuming from 2 manually).
        let r1 = run_one_task(&t, 0, |e| {
            e.emit_combining(b"p0", 1);
            e.emit_combining(b"p1", 1);
        });
        assert_eq!(r1, TaskResult::Done);
        // Re-run the same task resuming at pair 2: pairs 0 and 1 must be
        // skipped (no double count), pair 2 stored.
        let r2 = run_one_task(&t, 2, |e| {
            e.emit_combining(b"p0", 1);
            e.emit_combining(b"p1", 1);
            e.emit_combining(b"p2", 1);
        });
        assert_eq!(r2, TaskResult::Done);
        t.finalize();
        let got: std::collections::HashMap<Vec<u8>, u64> =
            t.collect_combining().into_iter().collect();
        assert_eq!(got[&b"p0".to_vec()], 1, "skipped pair must not recombine");
        assert_eq!(got[&b"p1".to_vec()], 1);
        assert_eq!(got[&b"p2".to_vec()], 1);
    }

    #[test]
    fn emits_after_postponement_are_ignored() {
        let t = combining_table(1);
        let r = run_one_task(&t, 0, |e| {
            let mut postponed = false;
            for i in 0..500 {
                let key = format!("key-{i:04}-{}", "y".repeat(40));
                if !e.emit_combining(key.as_bytes(), 1) {
                    postponed = true;
                    // Keep emitting; the emitter must ignore these.
                    e.emit_combining(b"late-key", 1);
                    break;
                }
            }
            assert!(postponed);
        });
        assert!(matches!(r, TaskResult::Postponed { .. }));
        t.finalize();
        let got = t.collect_combining();
        assert!(
            got.iter().all(|(k, _)| k != b"late-key"),
            "post-postponement emit leaked into the table"
        );
    }

    #[test]
    fn will_attempt_is_false_below_the_resume_point_and_after_a_postponement() {
        let t = combining_table(1);
        let r = run_one_task(&t, 2, |e| {
            for key in [b"p0", b"p1"] {
                assert!(!e.will_attempt());
                assert!(e.emit_combining(key, 1));
            }
            let mut i = 0u64;
            while e.will_attempt() {
                let key = format!("key-{i:04}-{}", "z".repeat(40));
                e.emit_combining(key.as_bytes(), 1);
                i += 1;
                assert!(i < 1000, "heap never filled");
            }
        });
        match r {
            TaskResult::Postponed { next_pair } => assert!(next_pair >= 2),
            TaskResult::Done => panic!("must postpone"),
        }
    }
}
