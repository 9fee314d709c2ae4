//! Seeded, deterministic fault injection.
//!
//! WarpSpeed (McCoy & Pandey) argues that what blocks large-scale adoption
//! of GPU hash tables is missing failure-handling, not raw speed — and the
//! SEPO paper's own claim is *graceful* degradation under resource
//! exhaustion. A [`FaultPlan`] lets the harness prove that claim with three
//! classes of fault, six [`FaultKind`]s in all: *transient* lane aborts
//! (the executor skips a lane's task, and the SEPO driver re-issues it next
//! iteration), *hard* faults that kill a launch before it starts
//! ([`FaultKind::HARD`]), and *silent* corruption of data in flight or at
//! rest ([`FaultKind::CORRUPTION`]).
//!
//! Each fault kind is one seeded stream: a monotone draw counter hashed
//! together with the stream's seed and salt (SplitMix64). Under
//! [`ExecMode::ParallelDeterministic`] the
//! draw *order* equals the execution order, so the same seed reproduces the
//! same fault sequence — iteration counts and results JSON stay
//! byte-identical across runs.
//!
//! [`ExecMode::ParallelDeterministic`]: crate::executor::ExecMode::ParallelDeterministic

use crate::sync::Relaxed;

/// One fault kind: a row of the fault table. `as usize` indexes
/// [`FaultConfig::rates`] and a plan's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// *Transient*: a kernel lane aborts before its task runs; the SEPO
    /// driver re-issues the task next iteration.
    LaneAbort,
    /// *Hard*: the simulated device is lost (ECC double-bit error, bus
    /// drop, external reset). All device memory contents are gone.
    DeviceLost,
    /// *Hard*: the launch itself is poisoned (corrupted kernel image,
    /// sticky uncorrectable error): it never starts, and the device context
    /// must be rebuilt before anything else can run.
    PoisonedLaunch,
    /// *Corruption*: a bit flips in an evicted page while it crosses the
    /// PCIe bus (in-flight transfer corruption).
    PcieBitFlip,
    /// *Corruption*: a bit flips in a device-resident page between kernel
    /// launches (cosmic ray / weak cell in simulated device DRAM).
    RestingPageFlip,
    /// *Corruption*: a byte is damaged in a checkpoint or host-image file
    /// on its way to or from disk.
    DiskByteFlip,
}

use FaultKind::{
    DeviceLost, DiskByteFlip, LaneAbort, PcieBitFlip, PoisonedLaunch, RestingPageFlip,
};

impl FaultKind {
    /// Every kind, in row order.
    pub const ALL: [FaultKind; 6] = [
        LaneAbort,
        DeviceLost,
        PoisonedLaunch,
        PcieBitFlip,
        RestingPageFlip,
        DiskByteFlip,
    ];

    /// The *hard* kinds, in draw order: device loss first. Unlike transient
    /// lane aborts, these are not retried in place. They kill the in-flight
    /// launch before it touches any state and surface to the driver, which
    /// either resumes from its last iteration-boundary checkpoint or aborts
    /// the run.
    pub const HARD: [FaultKind; 2] = [DeviceLost, PoisonedLaunch];

    /// The *silent corruption* kinds: unlike both transient lane aborts and
    /// the hard kinds, these do not announce themselves — they flip bits in
    /// data at rest or in flight and it is the integrity layer's job (CRC32C
    /// stamps in `sepo_core`) to notice before the damage propagates.
    pub const CORRUPTION: [FaultKind; 3] = [PcieBitFlip, RestingPageFlip, DiskByteFlip];

    /// Human-readable name used in error messages and reports.
    pub fn label(self) -> &'static str {
        ROWS[self as usize].1
    }
}

/// Per-kind salt (distinct, so no stream correlates with another), label,
/// and the family a [`FaultDraw`]'s message names, in row order.
const ROWS: [(u64, &str, &str); 6] = [
    (0x1A7E_AB07_0000_0003, "lane abort", "lane-abort"),
    (0xDE51_CE10_0000_0004, "device lost", "hard-fault"),
    (0x9015_0ED0_0000_0005, "poisoned launch", "hard-fault"),
    (0xBADF_00D0_0000_0006, "pcie bit flip", "corruption"),
    (0x0E57_F11A_0000_0007, "resting page flip", "corruption"),
    (0xD15C_B17E_0000_0008, "disk byte flip", "corruption"),
];

/// One fault decision that hit: which kind, the per-kind draw index
/// (correlates a failure with a seed when reproducing), and an entropy word
/// derived from the draw hash that corruption sites use to pick *which* bit
/// or byte to flip — so the damaged offset is as reproducible as the
/// decision to damage. It is also the error value a hard fault or an
/// *unrecovered* corruption surfaces as (the witness carried in
/// `LaunchError` and the `SepoError::{DeviceLost, Corrupt*}` chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDraw {
    /// Which fault kind struck.
    pub kind: FaultKind,
    /// The 0-based draw index (for this kind) that hit.
    pub draw: u64,
    /// Deterministic entropy for choosing the flipped bit/byte offset.
    pub entropy: u64,
}

impl std::fmt::Display for FaultDraw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, label, family) = ROWS[self.kind as usize];
        write!(f, "{label} ({family} draw #{})", self.draw)
    }
}

impl std::error::Error for FaultDraw {}

/// Per-kind fault rates in `[0.0, 1.0]`, indexed by [`FaultKind`], plus the
/// seed of their streams. Each fault family keeps its own config and seed
/// (see [`FaultPlan::with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the draw streams of this config's nonzero rates.
    pub seed: u64,
    /// Per-kind probability that one opportunity (a lane, a launch, a
    /// transfer, a resident page per iteration, a disk write) faults.
    pub rates: [f64; 6],
}

impl FaultConfig {
    /// Every rate zero (a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            rates: [0.0; 6],
        }
    }

    /// This config with `kind`'s rate set to `rate`.
    pub fn rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind as usize] = rate;
        self
    }

    /// The transient mix used by `--faults <seed>`: occasional lane aborts
    /// (one lane in 200), which the driver re-issues next iteration.
    pub fn standard(seed: u64) -> Self {
        Self::quiet(seed).rate(LaneAbort, 0.005)
    }

    /// The chaos mix used by `--chaos-seed <seed>`: per-launch kill
    /// probabilities high enough that multi-iteration runs see recoveries.
    pub fn chaos(seed: u64) -> Self {
        Self::quiet(seed)
            .rate(DeviceLost, 0.01)
            .rate(PoisonedLaunch, 0.005)
    }

    /// The silent-corruption mix used by `--corrupt <seed>`: rates high
    /// enough that multi-iteration runs see detections on every path.
    pub fn corruption(seed: u64) -> Self {
        Self::quiet(seed)
            .rate(PcieBitFlip, 0.05)
            .rate(RestingPageFlip, 0.01)
            .rate(DiskByteFlip, 0.05)
    }
}

/// Point-in-time copy of the transient lane stream's draw/injection
/// counters, captured into iteration-boundary checkpoints so a resumed run
/// replays the exact same lane aborts as an unkilled run. Hard-fault and
/// corruption counters are deliberately **not** part of this: restoring
/// them would make the replayed launch re-draw the very fault that
/// triggered recovery, looping forever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientDrawState {
    /// Lane decisions drawn.
    pub draws: u64,
    /// Lanes aborted.
    pub injected: u64,
}

/// SplitMix64 finalizer: decorrelates consecutive counter values.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One seeded decision stream: draw `n` hashes the seed, the stream's salt
/// and `n` together and hits when the hash falls below the threshold (the
/// rate scaled to the u64 range).
#[derive(Debug)]
struct Stream {
    seed: u64,
    salt: u64,
    threshold: u64,
    draws: Relaxed<u64>,
    injected: Relaxed<u64>,
}

impl Stream {
    fn new(seed: u64, kind: FaultKind, rate: f64) -> Self {
        Stream {
            seed,
            salt: ROWS[kind as usize].0,
            // `u64::MAX as f64` rounds up; the cast back saturates, so rate
            // 1.0 hits on every draw.
            threshold: (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            draws: Relaxed::new(0),
            injected: Relaxed::new(0),
        }
    }

    /// Whether the stream can ever hit.
    fn is_live(&self) -> bool {
        self.threshold != 0
    }

    /// Draw the next decision: `Some((n, hash))` when draw `n` hits. A
    /// rate-0 stream draws nothing, so it burns no counter.
    fn draw(&self) -> Option<(u64, u64)> {
        if !self.is_live() {
            return None;
        }
        let n = self.draws.fetch_add(1);
        let hash = splitmix64(self.seed ^ self.salt ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if hash >= self.threshold {
            return None;
        }
        self.injected.fetch_add(1);
        Some((n, hash))
    }
}

/// A live fault plan: one stream per [`FaultKind`], each under the seed of
/// the config that attached it (rate-0 streams until then, which never
/// draw). One plan belongs to one simulation (like `Metrics`); sharing a
/// plan across concurrent simulations would interleave their draw streams
/// and break reproducibility.
#[derive(Debug)]
pub struct FaultPlan {
    /// Indexed by [`FaultKind`].
    streams: [Stream; 6],
}

impl FaultPlan {
    /// A plan with every stream of `config`, under its seed.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            streams: FaultKind::ALL.map(|k| Stream::new(config.seed, k, config.rates[k as usize])),
        }
    }

    /// Attach the streams `config` gives a nonzero rate, under `config`'s
    /// seed; every other stream keeps its seed, rate and counters, so
    /// families attached from separate configs keep separate seeds and none
    /// shifts another's draws. Hard faults draw once per kernel launch,
    /// *before* the launch touches any state, so a killed launch mutates
    /// nothing. Corruption draws once per *opportunity* (one per transfer
    /// attempt, one per resident page per iteration, one per disk write) at
    /// quiescent points, so the draw order is deterministic under
    /// `ParallelDeterministic`.
    pub fn with(mut self, config: FaultConfig) -> Self {
        for kind in FaultKind::ALL {
            let stream = Stream::new(config.seed, kind, config.rates[kind as usize]);
            if stream.is_live() {
                self.streams[kind as usize] = stream;
            }
        }
        self
    }

    /// Draw the next decision for `kind`: `Some` means "fault here", with
    /// deterministic entropy for choosing a corruption's offset. Only the
    /// lane stream is ever rolled back ([`FaultPlan::restore_transient`]):
    /// a replayed iteration draws the *next* hard or corruption decision
    /// and therefore cannot deterministically re-fault itself.
    pub fn draw(&self, kind: FaultKind) -> Option<FaultDraw> {
        let (draw, hash) = self.streams[kind as usize].draw()?;
        Some(FaultDraw {
            kind,
            draw,
            // Re-finalize the hit hash so the offset entropy is
            // decorrelated from the threshold comparison.
            entropy: splitmix64(hash),
        })
    }

    /// Draw the hard-fault decisions for one launch; `Some` means the
    /// launch is killed before it starts. Kinds are drawn in
    /// [`FaultKind::HARD`] order and the first hit short-circuits, so the
    /// draw sequence is deterministic under a seed.
    pub fn draw_hard(&self) -> Option<FaultDraw> {
        FaultKind::HARD.into_iter().find_map(|kind| self.draw(kind))
    }

    /// Draw the next lane decision: `true` means "abort this lane".
    /// Deterministic in the draw sequence: the n-th call under a given
    /// seed always returns the same answer.
    pub fn should_abort_lane(&self) -> bool {
        self.streams[LaneAbort as usize].draw().is_some()
    }

    /// Decisions drawn so far for `kind`.
    pub fn draws(&self, kind: FaultKind) -> u64 {
        self.streams[kind as usize].draws.get()
    }

    /// Faults injected so far for `kind`.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.streams[kind as usize].injected.get()
    }

    /// Faults injected so far across every kind.
    pub fn total_injected(&self) -> u64 {
        FaultKind::ALL.into_iter().map(|k| self.injected(k)).sum()
    }

    /// Whether any hard-fault stream is attached with a nonzero rate.
    pub fn has_hard_faults(&self) -> bool {
        FaultKind::HARD
            .iter()
            .any(|&k| self.streams[k as usize].is_live())
    }

    /// Whether any silent-corruption stream is attached with a nonzero
    /// rate. Gates every injection/stamp/scrub code path so corruption-off
    /// runs pay nothing and stay byte-identical.
    pub fn has_corruption(&self) -> bool {
        FaultKind::CORRUPTION
            .iter()
            .any(|&k| self.streams[k as usize].is_live())
    }

    /// Capture the lane stream's counters for a checkpoint. Only
    /// meaningful at quiescent points (iteration boundaries).
    pub fn transient_snapshot(&self) -> TransientDrawState {
        TransientDrawState {
            draws: self.draws(LaneAbort),
            injected: self.injected(LaneAbort),
        }
    }

    /// Roll the lane stream's counters back to a checkpointed state, so a
    /// resumed iteration replays the exact lane aborts the killed attempt
    /// drew. Hard and corruption counters are untouched.
    pub fn restore_transient(&self, s: &TransientDrawState) {
        let lane = &self.streams[LaneAbort as usize];
        lane.draws.set(s.draws);
        lane.injected.set(s.injected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet plan with `kind` attached at `rate` under `seed`.
    fn one(kind: FaultKind, seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig::quiet(1)).with(FaultConfig::quiet(seed).rate(kind, rate))
    }

    #[test]
    fn zero_rates_never_fault() {
        let p = FaultPlan::new(FaultConfig::quiet(42));
        for _ in 0..10_000 {
            assert!(!p.should_abort_lane());
        }
        assert_eq!(p.total_injected(), 0);
        assert_eq!(p.draws(LaneAbort), 0, "rate 0 must not burn draws");
    }

    #[test]
    fn rate_one_always_faults() {
        let p = FaultPlan::new(FaultConfig::quiet(1).rate(LaneAbort, 1.0));
        for _ in 0..1_000 {
            assert!(p.should_abort_lane());
        }
        assert_eq!(p.total_injected(), 1_000);
    }

    #[test]
    fn same_seed_reproduces_the_same_sequence() {
        let cfg = FaultConfig::standard(0xDEAD_BEEF);
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        let seq_a: Vec<bool> = (0..5_000).map(|_| a.should_abort_lane()).collect();
        let seq_b: Vec<bool> = (0..5_000).map(|_| b.should_abort_lane()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.total_injected(), b.total_injected());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::standard(1));
        let b = FaultPlan::new(FaultConfig::standard(2));
        let seq_a: Vec<bool> = (0..5_000).map(|_| a.should_abort_lane()).collect();
        let seq_b: Vec<bool> = (0..5_000).map(|_| b.should_abort_lane()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn plans_without_hard_config_never_draw_hard() {
        let p = FaultPlan::new(FaultConfig::standard(3));
        assert!(!p.has_hard_faults());
        for _ in 0..1_000 {
            assert!(p.draw_hard().is_none());
        }
        assert_eq!(p.injected(DeviceLost) + p.injected(PoisonedLaunch), 0);
        assert_eq!(p.draws(DeviceLost), 0);
    }

    #[test]
    fn quiet_hard_rates_never_kill() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with(FaultConfig::quiet(2));
        assert!(!p.has_hard_faults());
        for _ in 0..10_000 {
            assert!(p.draw_hard().is_none());
        }
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn hard_rate_one_kills_every_launch() {
        let p = one(DeviceLost, 9, 1.0);
        for n in 0..1_000u64 {
            let hit = p.draw_hard().expect("rate 1.0 must kill");
            assert_eq!(hit.kind, DeviceLost);
            assert_eq!(hit.draw, n);
        }
        assert_eq!(p.injected(DeviceLost), 1_000);
        // Device loss short-circuits: the poisoned-launch stream never drew.
        assert_eq!(p.draws(PoisonedLaunch), 0);
    }

    #[test]
    fn same_hard_seed_reproduces_the_same_kill_points() {
        let mk = || {
            FaultPlan::new(FaultConfig::quiet(7)).with(
                FaultConfig::quiet(0xC0FFEE)
                    .rate(DeviceLost, 0.05)
                    .rate(PoisonedLaunch, 0.02),
            )
        };
        let (a, b) = (mk(), mk());
        let seq_a: Vec<Option<FaultKind>> =
            (0..5_000).map(|_| a.draw_hard().map(|e| e.kind)).collect();
        let seq_b: Vec<Option<FaultKind>> =
            (0..5_000).map(|_| b.draw_hard().map(|e| e.kind)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(a.total_injected() > 0, "rates should produce kills");
    }

    #[test]
    fn hard_draws_do_not_perturb_transient_streams() {
        let cfg = FaultConfig::standard(0xFEED);
        let plain = FaultPlan::new(cfg);
        let chaotic = FaultPlan::new(cfg).with(FaultConfig::chaos(0xFEED));
        let seq_plain: Vec<bool> = (0..5_000).map(|_| plain.should_abort_lane()).collect();
        let seq_chaos: Vec<bool> = (0..5_000)
            .map(|_| {
                let _ = chaotic.draw_hard();
                chaotic.should_abort_lane()
            })
            .collect();
        assert_eq!(
            seq_plain, seq_chaos,
            "attaching hard faults must not shift transient draws"
        );
    }

    #[test]
    fn attaching_a_family_keeps_the_other_streams_and_their_seeds() {
        let plan = FaultPlan::new(FaultConfig::standard(3))
            .with(FaultConfig::chaos(4))
            .with(FaultConfig::corruption(5));
        let mixed = FaultPlan::new(
            FaultConfig::corruption(5)
                .rate(DeviceLost, 0.01)
                .rate(PoisonedLaunch, 0.005)
                .rate(LaneAbort, 0.005),
        );
        let lanes = |p: &FaultPlan| {
            (0..5_000)
                .map(|_| p.should_abort_lane())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            lanes(&plan),
            lanes(&FaultPlan::new(FaultConfig::standard(3)))
        );
        assert_ne!(
            lanes(&plan),
            lanes(&mixed),
            "each family keeps its own seed"
        );
    }

    #[test]
    fn transient_snapshot_round_trips_and_replays() {
        let p = FaultPlan::new(FaultConfig::quiet(11).rate(LaneAbort, 0.3));
        for _ in 0..100 {
            p.should_abort_lane();
        }
        let snap = p.transient_snapshot();
        let first: Vec<bool> = (0..200).map(|_| p.should_abort_lane()).collect();
        p.restore_transient(&snap);
        assert_eq!(p.transient_snapshot(), snap);
        let replay: Vec<bool> = (0..200).map(|_| p.should_abort_lane()).collect();
        assert_eq!(first, replay, "restored counters must replay identically");
    }

    #[test]
    fn restore_transient_leaves_hard_counters_alone() {
        let p = one(DeviceLost, 5, 1.0);
        let snap = p.transient_snapshot();
        assert!(p.draw_hard().is_some());
        p.restore_transient(&snap);
        // The next hard draw advances — recovery cannot re-draw the kill.
        assert_eq!(p.draw_hard().expect("still rate 1.0").draw, 1);
    }

    #[test]
    fn plans_without_corruption_config_never_draw_corruption() {
        let p = FaultPlan::new(FaultConfig::standard(3));
        assert!(!p.has_corruption());
        for kind in FaultKind::CORRUPTION {
            for _ in 0..1_000 {
                assert!(p.draw(kind).is_none());
            }
            assert_eq!(p.draws(kind), 0);
        }
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn quiet_corruption_rates_burn_no_draws() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with(FaultConfig::quiet(2));
        assert!(!p.has_corruption());
        for kind in FaultKind::CORRUPTION {
            for _ in 0..10_000 {
                assert!(p.draw(kind).is_none());
            }
            assert_eq!(p.draws(kind), 0, "rate 0 must not burn draws");
        }
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn corruption_rate_one_always_hits_with_monotone_draws() {
        let p = one(PcieBitFlip, 9, 1.0);
        assert!(p.has_corruption());
        for n in 0..1_000u64 {
            let hit = p.draw(PcieBitFlip).expect("rate 1.0 must hit");
            assert_eq!(hit.kind, PcieBitFlip);
            assert_eq!(hit.draw, n);
        }
        assert_eq!(p.injected(PcieBitFlip), 1_000);
        assert_eq!(p.draws(RestingPageFlip), 0);
    }

    #[test]
    fn same_corruption_seed_reproduces_hits_and_entropy() {
        let mk = || {
            FaultPlan::new(FaultConfig::quiet(7)).with(
                FaultConfig::quiet(0xC0FFEE)
                    .rate(PcieBitFlip, 0.05)
                    .rate(RestingPageFlip, 0.03)
                    .rate(DiskByteFlip, 0.02),
            )
        };
        let (a, b) = (mk(), mk());
        for kind in FaultKind::CORRUPTION {
            let seq_a: Vec<Option<FaultDraw>> = (0..5_000).map(|_| a.draw(kind)).collect();
            let seq_b: Vec<Option<FaultDraw>> = (0..5_000).map(|_| b.draw(kind)).collect();
            assert_eq!(seq_a, seq_b, "kind {kind:?} must replay exactly");
            assert!(a.injected(kind) > 0, "rates should hit");
        }
    }

    #[test]
    fn corruption_draws_do_not_perturb_transient_or_hard_streams() {
        let cfg = FaultConfig::standard(0xFEED);
        let plain = FaultPlan::new(cfg).with(FaultConfig::chaos(0xFEED));
        let noisy = FaultPlan::new(cfg)
            .with(FaultConfig::chaos(0xFEED))
            .with(FaultConfig::corruption(0xFEED));
        let seq_plain: Vec<(bool, Option<FaultKind>)> = (0..5_000)
            .map(|_| (plain.should_abort_lane(), plain.draw_hard().map(|e| e.kind)))
            .collect();
        let seq_noisy: Vec<(bool, Option<FaultKind>)> = (0..5_000)
            .map(|_| {
                for kind in FaultKind::CORRUPTION {
                    let _ = noisy.draw(kind);
                }
                (noisy.should_abort_lane(), noisy.draw_hard().map(|e| e.kind))
            })
            .collect();
        assert_eq!(
            seq_plain, seq_noisy,
            "attaching corruption must not shift transient/hard draws"
        );
    }

    #[test]
    fn restore_transient_leaves_corruption_counters_alone() {
        let p = one(PcieBitFlip, 5, 1.0);
        let snap = p.transient_snapshot();
        assert!(p.draw(PcieBitFlip).is_some());
        p.restore_transient(&snap);
        // The next corruption draw advances — recovery cannot replay the
        // very flip that triggered it.
        assert_eq!(p.draw(PcieBitFlip).expect("still rate 1.0").draw, 1);
    }

    #[test]
    fn fault_draw_display_names_kind_family_and_draw() {
        let at = |kind, draw| FaultDraw {
            kind,
            draw,
            entropy: 0,
        };
        assert_eq!(
            at(RestingPageFlip, 17).to_string(),
            "resting page flip (corruption draw #17)"
        );
        assert_eq!(
            at(DeviceLost, 3).to_string(),
            "device lost (hard-fault draw #3)"
        );
    }

    /// Every seeded stream, pinned to recorded values: a changed seed mix,
    /// salt, threshold formula or draw order fails here, where the
    /// same-seed tests above (two plans from one build) cannot notice.
    #[test]
    fn seeded_streams_match_recorded_draws() {
        // (seed, lane abort rate, hits among the first 2,000 decisions)
        let lanes: [(u64, f64, &[u64]); 2] = [
            (
                7,
                0.01,
                &[
                    2, 40, 63, 174, 186, 196, 201, 319, 423, 532, 1183, 1193, 1250, 1331, 1436,
                    1639, 1823,
                ],
            ),
            (
                0xDEAD_BEEF,
                0.005,
                &[374, 569, 658, 1163, 1271, 1287, 1443, 1484, 1734, 1770],
            ),
        ];
        for (seed, rate, hits) in lanes {
            let p = FaultPlan::new(FaultConfig::quiet(seed).rate(LaneAbort, rate));
            let got: Vec<u64> = (0..2_000u64).filter(|_| p.should_abort_lane()).collect();
            assert_eq!(got, hits, "lane stream, seed {seed:#x}");
        }

        // The first 20 kills, device loss drawn first on every launch.
        let p = FaultPlan::new(FaultConfig::quiet(7)).with(
            FaultConfig::quiet(0xC0FFEE)
                .rate(DeviceLost, 0.05)
                .rate(PoisonedLaunch, 0.02),
        );
        let kills: Vec<(FaultKind, u64)> = std::iter::from_fn(|| Some(p.draw_hard()))
            .flatten()
            .take(20)
            .map(|e| (e.kind, e.draw))
            .collect();
        let want = [
            (DeviceLost, 1),
            (PoisonedLaunch, 37),
            (DeviceLost, 43),
            (DeviceLost, 71),
            (PoisonedLaunch, 77),
            (DeviceLost, 86),
            (DeviceLost, 99),
            (DeviceLost, 108),
            (DeviceLost, 125),
            (PoisonedLaunch, 119),
            (DeviceLost, 131),
            (DeviceLost, 140),
            (DeviceLost, 152),
            (DeviceLost, 175),
            (DeviceLost, 187),
            (DeviceLost, 240),
            (PoisonedLaunch, 228),
            (DeviceLost, 260),
            (DeviceLost, 266),
            (DeviceLost, 278),
        ];
        assert_eq!(kills, want, "hard streams");

        // (kind, [(draw, entropy)] of every hit among 1,000 draws)
        let p = FaultPlan::new(FaultConfig::quiet(7)).with(
            FaultConfig::quiet(0xC0DE)
                .rate(PcieBitFlip, 0.01)
                .rate(RestingPageFlip, 0.01)
                .rate(DiskByteFlip, 0.01),
        );
        let corruptions: [(FaultKind, &[(u64, u64)]); 3] = [
            (
                PcieBitFlip,
                &[
                    (148, 0xb092fe1c22c13cd4),
                    (174, 0x8d7c87be5479c088),
                    (216, 0x03498fb2433fcbb2),
                    (260, 0xccc72e88193c7b5c),
                    (474, 0xd2e1d1b2d389c482),
                    (564, 0x579472cd54efe9be),
                    (643, 0xf41ab6f1f145df73),
                    (657, 0xf1b36bddaa7980ab),
                    (947, 0xe88b63f63f9f74ea),
                ],
            ),
            (
                RestingPageFlip,
                &[
                    (33, 0x0b70dacfa3998821),
                    (513, 0x68b087e44630efdf),
                    (519, 0xe8f1028df4de7009),
                    (575, 0x7ee300ac7733d624),
                    (673, 0x1d7a45724e372ff2),
                    (755, 0x5e28b301d1bb3776),
                    (926, 0xfd0d67759ec069e5),
                    (987, 0x6944186b60c4c3a1),
                ],
            ),
            (
                DiskByteFlip,
                &[
                    (76, 0x722289ed5dae0c22),
                    (156, 0xdbe0112f02a75516),
                    (232, 0x966bfba7911a43a1),
                    (382, 0xd329325c42f0c549),
                    (531, 0x92ed61706ff487f2),
                    (541, 0x85af64cf2580bf6d),
                    (574, 0xc51e698ed75064f5),
                    (721, 0xd2a01b909372a707),
                    (783, 0xdf3af1e1d3072d7f),
                ],
            ),
        ];
        for (kind, hits) in corruptions {
            let got: Vec<(u64, u64)> = (0..1_000)
                .filter_map(|_| p.draw(kind))
                .map(|h| (h.draw, h.entropy))
                .collect();
            assert_eq!(got, hits, "{kind:?} stream");
        }
    }

    #[test]
    fn injection_rate_tracks_configured_rate() {
        let p = FaultPlan::new(FaultConfig::quiet(7).rate(LaneAbort, 0.25));
        let n = 100_000u64;
        for _ in 0..n {
            p.should_abort_lane();
        }
        let rate = p.total_injected() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
        assert_eq!(p.draws(LaneAbort), n);
    }
}
