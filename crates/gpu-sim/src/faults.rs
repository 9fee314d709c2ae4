//! Seeded, deterministic fault injection.
//!
//! WarpSpeed (McCoy & Pandey) argues that what blocks large-scale adoption
//! of GPU hash tables is missing failure-handling, not raw speed — and the
//! SEPO paper's own claim is *graceful* degradation under resource
//! exhaustion. A [`FaultPlan`] lets the harness prove that claim with three
//! classes of fault: *transient* lane aborts (the executor skips a lane's
//! task, and the SEPO driver re-issues it next iteration), *hard* faults
//! that kill a launch before it starts ([`HardFaultKind`]), and *silent*
//! corruption of data in flight or at rest ([`CorruptionKind`]).
//!
//! Each fault kind is one seeded stream: a monotone draw counter hashed
//! together with the stream's seed and salt (SplitMix64). Under
//! [`ExecMode::ParallelDeterministic`] the
//! draw *order* equals the execution order, so the same seed reproduces the
//! same fault sequence — iteration counts and results JSON stay
//! byte-identical across runs.
//!
//! [`ExecMode::ParallelDeterministic`]: crate::executor::ExecMode::ParallelDeterministic

use std::sync::atomic::{AtomicU64, Ordering};

/// Salt of the lane-abort stream.
const LANE_SALT: u64 = 0x1A7E_AB07_0000_0003;

/// A *hard* fault kind: unlike transient lane aborts, these are not retried
/// in place. They kill the in-flight launch before it touches any state and
/// surface to the driver, which either resumes from its last
/// iteration-boundary checkpoint or aborts the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFaultKind {
    /// The simulated device is lost (ECC double-bit error, bus drop,
    /// external reset). All device memory contents are gone.
    DeviceLost,
    /// The launch itself is poisoned (corrupted kernel image, sticky
    /// uncorrectable error): it never starts, and the device context must
    /// be rebuilt before anything else can run.
    PoisonedLaunch,
}

/// A *silent* corruption kind: unlike both transient lane aborts and the
/// [`HardFaultKind`]s, these do not announce themselves — they flip bits in
/// data at rest or in flight and it is the integrity layer's job (CRC32C
/// stamps in `sepo_core`) to notice before the damage propagates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A bit flips in an evicted page while it crosses the PCIe bus
    /// (in-flight transfer corruption).
    PcieBitFlip,
    /// A bit flips in a device-resident page between kernel launches
    /// (cosmic ray / weak cell in simulated device DRAM).
    RestingPageFlip,
    /// A byte is damaged in a checkpoint or host-image file on its way
    /// to or from disk.
    DiskByteFlip,
}

impl CorruptionKind {
    /// All kinds in draw order.
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::PcieBitFlip,
        CorruptionKind::RestingPageFlip,
        CorruptionKind::DiskByteFlip,
    ];

    /// Per-kind salt; distinct from the lane and hard-kind salts so
    /// corruption streams never correlate with fault streams.
    fn salt(self) -> u64 {
        match self {
            CorruptionKind::PcieBitFlip => 0xBADF_00D0_0000_0006,
            CorruptionKind::RestingPageFlip => 0x0E57_F11A_0000_0007,
            CorruptionKind::DiskByteFlip => 0xD15C_B17E_0000_0008,
        }
    }

    /// Human-readable name used in error messages and reports.
    pub fn label(self) -> &'static str {
        match self {
            CorruptionKind::PcieBitFlip => "pcie bit flip",
            CorruptionKind::RestingPageFlip => "resting page flip",
            CorruptionKind::DiskByteFlip => "disk byte flip",
        }
    }
}

/// One corruption decision that hit: which kind, the per-kind draw index
/// (correlates a failure with a seed when reproducing), and an entropy word
/// derived from the draw hash that injection sites use to pick *which* bit
/// or byte to flip — so the damaged offset is as reproducible as the
/// decision to damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionDraw {
    /// Which corruption kind struck.
    pub kind: CorruptionKind,
    /// The 0-based draw index (for this kind) that hit.
    pub draw: u64,
    /// Deterministic entropy for choosing the flipped bit/byte offset.
    pub entropy: u64,
}

/// The error value an *unrecovered* corruption surfaces as (the witness
/// carried in `SepoError::Corrupt*` chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionError {
    /// Which corruption kind struck.
    pub kind: CorruptionKind,
    /// The 0-based draw index (for this kind) that hit.
    pub draw: u64,
}

impl std::fmt::Display for CorruptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (corruption draw #{})", self.kind.label(), self.draw)
    }
}

impl std::error::Error for CorruptionError {}

/// Per-kind silent-corruption rates in `[0.0, 1.0]`, plus their own seed.
/// Kept separate from [`FaultConfig`] and [`HardFaultConfig`] so existing
/// plans are untouched: a corruption-free comparison run simply never
/// attaches a corruption config, and its transient/hard draw streams stay
/// byte-identical to a corrupting run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Seed for the corruption draw streams (independent of the transient
    /// and hard seeds).
    pub seed: u64,
    /// Probability that an evicted page is damaged in flight on the bus.
    pub pcie_bit_flip_rate: f64,
    /// Per-page, per-iteration probability that a resident page is damaged
    /// between launches.
    pub resting_page_flip_rate: f64,
    /// Probability that a checkpoint/host-image write is damaged on disk.
    pub disk_byte_flip_rate: f64,
}

impl CorruptionConfig {
    /// Every rate zero (a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        CorruptionConfig {
            seed,
            pcie_bit_flip_rate: 0.0,
            resting_page_flip_rate: 0.0,
            disk_byte_flip_rate: 0.0,
        }
    }

    /// The silent-corruption mix used by `--corrupt <seed>`: rates high
    /// enough that multi-iteration runs see detections on every path.
    pub fn standard(seed: u64) -> Self {
        CorruptionConfig {
            seed,
            pcie_bit_flip_rate: 0.05,
            resting_page_flip_rate: 0.01,
            disk_byte_flip_rate: 0.05,
        }
    }

    fn rate(&self, kind: CorruptionKind) -> f64 {
        match kind {
            CorruptionKind::PcieBitFlip => self.pcie_bit_flip_rate,
            CorruptionKind::RestingPageFlip => self.resting_page_flip_rate,
            CorruptionKind::DiskByteFlip => self.disk_byte_flip_rate,
        }
    }
}

impl HardFaultKind {
    /// All kinds in draw order: device loss first.
    const ALL: [HardFaultKind; 2] = [HardFaultKind::DeviceLost, HardFaultKind::PoisonedLaunch];

    /// Per-kind salt; distinct from the lane salt so the hard streams never
    /// correlate with the transient one.
    fn salt(self) -> u64 {
        match self {
            HardFaultKind::DeviceLost => 0xDE51_CE10_0000_0004,
            HardFaultKind::PoisonedLaunch => 0x9015_0ED0_0000_0005,
        }
    }

    /// Human-readable name used in error messages and reports.
    pub fn label(self) -> &'static str {
        match self {
            HardFaultKind::DeviceLost => "device lost",
            HardFaultKind::PoisonedLaunch => "poisoned launch",
        }
    }
}

/// The error value a hard fault surfaces as: which kind struck, and the
/// per-kind draw index that produced it (useful to correlate a failure with
/// a seed when reproducing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardFaultError {
    /// Which hard fault struck.
    pub kind: HardFaultKind,
    /// The 0-based draw index (for this kind) that hit.
    pub draw: u64,
}

impl std::fmt::Display for HardFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (hard-fault draw #{})", self.kind.label(), self.draw)
    }
}

impl std::error::Error for HardFaultError {}

/// Per-kind hard-fault rates in `[0.0, 1.0]`, plus their own seed. Kept
/// separate from [`FaultConfig`] so existing transient plans are untouched:
/// an unkilled comparison run simply never attaches a hard config, and its
/// transient draw stream stays byte-identical to a chaos run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardFaultConfig {
    /// Seed for the hard-fault draw streams (independent of the transient
    /// seed).
    pub seed: u64,
    /// Probability that a launch is killed by device loss.
    pub device_loss_rate: f64,
    /// Probability that a launch is poisoned before it starts.
    pub poisoned_launch_rate: f64,
}

impl HardFaultConfig {
    /// Every rate zero (a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        HardFaultConfig {
            seed,
            device_loss_rate: 0.0,
            poisoned_launch_rate: 0.0,
        }
    }

    /// The chaos mix used by `--chaos-seed <seed>`: per-launch kill
    /// probabilities high enough that multi-iteration runs see recoveries.
    pub fn standard(seed: u64) -> Self {
        HardFaultConfig {
            seed,
            device_loss_rate: 0.01,
            poisoned_launch_rate: 0.005,
        }
    }

    fn rate(&self, kind: HardFaultKind) -> f64 {
        match kind {
            HardFaultKind::DeviceLost => self.device_loss_rate,
            HardFaultKind::PoisonedLaunch => self.poisoned_launch_rate,
        }
    }
}

/// Point-in-time copy of the transient lane stream's draw/injection
/// counters, captured into iteration-boundary checkpoints so a resumed run
/// replays the exact same lane aborts as an unkilled run. Hard-fault
/// counters are deliberately **not** part of this: restoring them would
/// make the replayed launch re-draw the very kill that triggered recovery,
/// looping forever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientDrawState {
    /// Lane decisions drawn.
    pub draws: u64,
    /// Lanes aborted.
    pub injected: u64,
}

/// The transient injection rate in `[0.0, 1.0]`, plus the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic lane-abort stream.
    pub seed: u64,
    /// Probability that a kernel lane aborts before its task runs.
    pub lane_abort_rate: f64,
}

impl FaultConfig {
    /// A plan with every rate zero (useful as a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            lane_abort_rate: 0.0,
        }
    }

    /// The transient mix used by `--faults <seed>`: occasional lane aborts
    /// (one lane in 200), which the driver re-issues next iteration.
    pub fn standard(seed: u64) -> Self {
        FaultConfig {
            seed,
            lane_abort_rate: 0.005,
        }
    }
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
    draws: AtomicU64,
    injected: AtomicU64,
}

impl Stream {
    fn new(seed: u64, salt: u64, rate: f64) -> Self {
        // `u64::MAX as f64` rounds up, so rate 1.0 saturates explicitly.
        let r = rate.clamp(0.0, 1.0);
        let threshold = if r >= 1.0 {
            u64::MAX
        } else {
            (r * u64::MAX as f64) as u64
        };
        Stream {
            seed,
            salt,
            threshold,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
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
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let hash = splitmix64(self.seed ^ self.salt ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if hash >= self.threshold {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some((n, hash))
    }

    fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// A live fault plan: the lane-abort stream of a [`FaultConfig`], plus the
/// hard-fault and corruption streams when attached (rate-0 streams until
/// then, which never draw). One plan belongs to one simulation (like
/// `Metrics`); sharing a plan across concurrent simulations would
/// interleave their draw streams and break reproducibility.
#[derive(Debug)]
pub struct FaultPlan {
    lane: Stream,
    /// Indexed by [`HardFaultKind`] declaration order.
    hard: [Stream; 2],
    /// Indexed by [`CorruptionKind`] declaration order.
    corruption: [Stream; 3],
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            lane: Stream::new(config.seed, LANE_SALT, config.lane_abort_rate),
            hard: HardFaultKind::ALL.map(|k| Stream::new(0, k.salt(), 0.0)),
            corruption: CorruptionKind::ALL.map(|k| Stream::new(0, k.salt(), 0.0)),
        }
    }

    /// Attach hard-fault streams (device loss, poisoned launches) to this
    /// plan. Hard faults draw once per kernel launch, *before* the launch
    /// touches any state, so a killed launch mutates nothing.
    pub fn with_hard(mut self, config: HardFaultConfig) -> Self {
        self.hard = HardFaultKind::ALL.map(|k| Stream::new(config.seed, k.salt(), config.rate(k)));
        self
    }

    /// Attach silent-corruption streams (in-flight bit flips, resting-page
    /// flips, disk byte flips) to this plan. Corruption draws once per
    /// *opportunity* (one per transfer attempt, one per resident page per
    /// iteration, one per disk write) at quiescent points, so the draw
    /// order is deterministic under `ParallelDeterministic`.
    pub fn with_corruption(mut self, config: CorruptionConfig) -> Self {
        self.corruption =
            CorruptionKind::ALL.map(|k| Stream::new(config.seed, k.salt(), config.rate(k)));
        self
    }

    /// Whether any hard-fault stream is attached with a nonzero rate.
    pub fn has_hard_faults(&self) -> bool {
        self.hard.iter().any(Stream::is_live)
    }

    /// Draw the hard-fault decisions for one launch; `Some` means the
    /// launch is killed before it starts. Kinds are drawn in a fixed order
    /// (device loss first) and the first hit short-circuits, so the draw
    /// sequence is deterministic under a seed. Hard draw counters are never
    /// rolled back by checkpoint recovery — a replayed launch draws the
    /// *next* decision and therefore cannot deterministically re-kill
    /// itself.
    pub fn draw_hard(&self) -> Option<HardFaultError> {
        HardFaultKind::ALL.into_iter().find_map(|kind| {
            let (draw, _) = self.hard[kind as usize].draw()?;
            Some(HardFaultError { kind, draw })
        })
    }

    /// Hard-fault decisions drawn so far for `kind`.
    pub fn hard_draws(&self, kind: HardFaultKind) -> u64 {
        self.hard[kind as usize].draws()
    }

    /// Hard faults injected so far for `kind`.
    pub fn hard_injected(&self, kind: HardFaultKind) -> u64 {
        self.hard[kind as usize].injected()
    }

    /// Total hard faults injected across both kinds.
    pub fn total_hard_injected(&self) -> u64 {
        self.hard.iter().map(Stream::injected).sum()
    }

    /// Whether any silent-corruption stream is attached with a nonzero
    /// rate. Gates every injection/stamp/scrub code path so corruption-off
    /// runs pay nothing and stay byte-identical.
    pub fn has_corruption(&self) -> bool {
        self.corruption.iter().any(Stream::is_live)
    }

    /// Draw the next corruption decision for `kind`: `Some` means "flip a
    /// bit/byte here", with deterministic entropy for choosing the offset.
    /// Like hard faults, corruption counters are never rolled back by
    /// checkpoint recovery — a replayed iteration draws the *next*
    /// decision and therefore cannot deterministically re-corrupt itself.
    pub fn draw_corruption(&self, kind: CorruptionKind) -> Option<CorruptionDraw> {
        let (draw, hash) = self.corruption[kind as usize].draw()?;
        Some(CorruptionDraw {
            kind,
            draw,
            // Re-finalize the hit hash so the offset entropy is
            // decorrelated from the threshold comparison.
            entropy: splitmix64(hash),
        })
    }

    /// Corruption decisions drawn so far for `kind`.
    pub fn corruption_draws(&self, kind: CorruptionKind) -> u64 {
        self.corruption[kind as usize].draws()
    }

    /// Corruptions injected so far for `kind`.
    pub fn corruption_injected(&self, kind: CorruptionKind) -> u64 {
        self.corruption[kind as usize].injected()
    }

    /// Total corruptions injected across all kinds.
    pub fn total_corruption_injected(&self) -> u64 {
        self.corruption.iter().map(Stream::injected).sum()
    }

    /// Capture the lane stream's counters for a checkpoint. Only
    /// meaningful at quiescent points (iteration boundaries).
    pub fn transient_snapshot(&self) -> TransientDrawState {
        TransientDrawState {
            draws: self.lane.draws(),
            injected: self.lane.injected(),
        }
    }

    /// Roll the lane stream's counters back to a checkpointed state, so a
    /// resumed iteration replays the exact lane aborts the killed attempt
    /// drew. Hard and corruption counters are untouched.
    pub fn restore_transient(&self, s: &TransientDrawState) {
        self.lane.draws.store(s.draws, Ordering::Relaxed);
        self.lane.injected.store(s.injected, Ordering::Relaxed);
    }

    /// Draw the next lane decision: `true` means "abort this lane".
    /// Deterministic in the draw sequence: the n-th call under a given
    /// seed always returns the same answer.
    pub fn should_abort_lane(&self) -> bool {
        self.lane.draw().is_some()
    }

    /// Lane decisions drawn so far.
    pub fn draws(&self) -> u64 {
        self.lane.draws()
    }

    /// Lanes aborted so far — every transient fault this plan injected.
    pub fn total_injected(&self) -> u64 {
        self.lane.injected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fault() {
        let p = FaultPlan::new(FaultConfig::quiet(42));
        for _ in 0..10_000 {
            assert!(!p.should_abort_lane());
        }
        assert_eq!(p.total_injected(), 0);
        assert_eq!(p.draws(), 0, "rate 0 must not burn draws");
    }

    #[test]
    fn rate_one_always_faults() {
        let p = FaultPlan::new(FaultConfig {
            seed: 1,
            lane_abort_rate: 1.0,
        });
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
        assert_eq!(p.total_hard_injected(), 0);
        assert_eq!(p.hard_draws(HardFaultKind::DeviceLost), 0);
    }

    #[test]
    fn quiet_hard_rates_never_kill() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_hard(HardFaultConfig::quiet(2));
        assert!(!p.has_hard_faults());
        for _ in 0..10_000 {
            assert!(p.draw_hard().is_none());
        }
        assert_eq!(p.total_hard_injected(), 0);
    }

    #[test]
    fn hard_rate_one_kills_every_launch() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_hard(HardFaultConfig {
            seed: 9,
            device_loss_rate: 1.0,
            poisoned_launch_rate: 0.0,
        });
        for n in 0..1_000u64 {
            let hit = p.draw_hard().expect("rate 1.0 must kill");
            assert_eq!(hit.kind, HardFaultKind::DeviceLost);
            assert_eq!(hit.draw, n);
        }
        assert_eq!(p.hard_injected(HardFaultKind::DeviceLost), 1_000);
        // Device loss short-circuits: the poisoned-launch stream never drew.
        assert_eq!(p.hard_draws(HardFaultKind::PoisonedLaunch), 0);
    }

    #[test]
    fn same_hard_seed_reproduces_the_same_kill_points() {
        let mk = || {
            FaultPlan::new(FaultConfig::quiet(7)).with_hard(HardFaultConfig {
                seed: 0xC0FFEE,
                device_loss_rate: 0.05,
                poisoned_launch_rate: 0.02,
            })
        };
        let (a, b) = (mk(), mk());
        let seq_a: Vec<Option<HardFaultKind>> =
            (0..5_000).map(|_| a.draw_hard().map(|e| e.kind)).collect();
        let seq_b: Vec<Option<HardFaultKind>> =
            (0..5_000).map(|_| b.draw_hard().map(|e| e.kind)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(a.total_hard_injected() > 0, "rates should produce kills");
    }

    #[test]
    fn hard_draws_do_not_perturb_transient_streams() {
        let cfg = FaultConfig::standard(0xFEED);
        let plain = FaultPlan::new(cfg);
        let chaotic = FaultPlan::new(cfg).with_hard(HardFaultConfig::standard(0xFEED));
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
    fn transient_snapshot_round_trips_and_replays() {
        let p = FaultPlan::new(FaultConfig {
            seed: 11,
            lane_abort_rate: 0.3,
        });
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
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_hard(HardFaultConfig {
            seed: 5,
            device_loss_rate: 1.0,
            poisoned_launch_rate: 0.0,
        });
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
        for kind in CorruptionKind::ALL {
            for _ in 0..1_000 {
                assert!(p.draw_corruption(kind).is_none());
            }
            assert_eq!(p.corruption_draws(kind), 0);
        }
        assert_eq!(p.total_corruption_injected(), 0);
    }

    #[test]
    fn quiet_corruption_rates_burn_no_draws() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_corruption(CorruptionConfig::quiet(2));
        assert!(!p.has_corruption());
        for kind in CorruptionKind::ALL {
            for _ in 0..10_000 {
                assert!(p.draw_corruption(kind).is_none());
            }
            assert_eq!(p.corruption_draws(kind), 0, "rate 0 must not burn draws");
        }
        assert_eq!(p.total_corruption_injected(), 0);
    }

    #[test]
    fn corruption_rate_one_always_hits_with_monotone_draws() {
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_corruption(CorruptionConfig {
            seed: 9,
            pcie_bit_flip_rate: 1.0,
            resting_page_flip_rate: 0.0,
            disk_byte_flip_rate: 0.0,
        });
        assert!(p.has_corruption());
        for n in 0..1_000u64 {
            let hit = p
                .draw_corruption(CorruptionKind::PcieBitFlip)
                .expect("rate 1.0 must hit");
            assert_eq!(hit.kind, CorruptionKind::PcieBitFlip);
            assert_eq!(hit.draw, n);
        }
        assert_eq!(p.corruption_injected(CorruptionKind::PcieBitFlip), 1_000);
        assert_eq!(p.corruption_draws(CorruptionKind::RestingPageFlip), 0);
    }

    #[test]
    fn same_corruption_seed_reproduces_hits_and_entropy() {
        let mk = || {
            FaultPlan::new(FaultConfig::quiet(7)).with_corruption(CorruptionConfig {
                seed: 0xC0FFEE,
                pcie_bit_flip_rate: 0.05,
                resting_page_flip_rate: 0.03,
                disk_byte_flip_rate: 0.02,
            })
        };
        let (a, b) = (mk(), mk());
        for kind in CorruptionKind::ALL {
            let seq_a: Vec<Option<CorruptionDraw>> =
                (0..5_000).map(|_| a.draw_corruption(kind)).collect();
            let seq_b: Vec<Option<CorruptionDraw>> =
                (0..5_000).map(|_| b.draw_corruption(kind)).collect();
            assert_eq!(seq_a, seq_b, "kind {kind:?} must replay exactly");
            assert!(a.corruption_injected(kind) > 0, "rates should hit");
        }
    }

    #[test]
    fn corruption_draws_do_not_perturb_transient_or_hard_streams() {
        let cfg = FaultConfig::standard(0xFEED);
        let plain = FaultPlan::new(cfg).with_hard(HardFaultConfig::standard(0xFEED));
        let noisy = FaultPlan::new(cfg)
            .with_hard(HardFaultConfig::standard(0xFEED))
            .with_corruption(CorruptionConfig::standard(0xFEED));
        let seq_plain: Vec<(bool, Option<HardFaultKind>)> = (0..5_000)
            .map(|_| (plain.should_abort_lane(), plain.draw_hard().map(|e| e.kind)))
            .collect();
        let seq_noisy: Vec<(bool, Option<HardFaultKind>)> = (0..5_000)
            .map(|_| {
                for kind in CorruptionKind::ALL {
                    let _ = noisy.draw_corruption(kind);
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
        let p = FaultPlan::new(FaultConfig::quiet(1)).with_corruption(CorruptionConfig {
            seed: 5,
            pcie_bit_flip_rate: 1.0,
            resting_page_flip_rate: 0.0,
            disk_byte_flip_rate: 0.0,
        });
        let snap = p.transient_snapshot();
        assert!(p.draw_corruption(CorruptionKind::PcieBitFlip).is_some());
        p.restore_transient(&snap);
        // The next corruption draw advances — recovery cannot replay the
        // very flip that triggered it.
        assert_eq!(
            p.draw_corruption(CorruptionKind::PcieBitFlip)
                .expect("still rate 1.0")
                .draw,
            1
        );
    }

    #[test]
    fn corruption_error_display_names_kind_and_draw() {
        let e = CorruptionError {
            kind: CorruptionKind::RestingPageFlip,
            draw: 17,
        };
        assert_eq!(e.to_string(), "resting page flip (corruption draw #17)");
    }

    /// Every seeded stream, pinned to recorded values: a changed seed mix,
    /// salt, threshold formula or draw order fails here, where the
    /// same-seed tests above (two plans from one build) cannot notice.
    #[test]
    fn seeded_streams_match_recorded_draws() {
        use CorruptionKind::{DiskByteFlip, PcieBitFlip, RestingPageFlip};
        use HardFaultKind::{DeviceLost, PoisonedLaunch};

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
            let p = FaultPlan::new(FaultConfig {
                lane_abort_rate: rate,
                ..FaultConfig::quiet(seed)
            });
            let got: Vec<u64> = (0..2_000u64).filter(|_| p.should_abort_lane()).collect();
            assert_eq!(got, hits, "lane stream, seed {seed:#x}");
        }

        // The first 20 kills, device loss drawn first on every launch.
        let p = FaultPlan::new(FaultConfig::quiet(7)).with_hard(HardFaultConfig {
            seed: 0xC0FFEE,
            device_loss_rate: 0.05,
            poisoned_launch_rate: 0.02,
        });
        let kills: Vec<(HardFaultKind, u64)> = std::iter::from_fn(|| Some(p.draw_hard()))
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
        let p = FaultPlan::new(FaultConfig::quiet(7)).with_corruption(CorruptionConfig {
            seed: 0xC0DE,
            pcie_bit_flip_rate: 0.01,
            resting_page_flip_rate: 0.01,
            disk_byte_flip_rate: 0.01,
        });
        let corruptions: [(CorruptionKind, &[(u64, u64)]); 3] = [
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
                .filter_map(|_| p.draw_corruption(kind))
                .map(|h| (h.draw, h.entropy))
                .collect();
            assert_eq!(got, hits, "{kind:?} stream");
        }
    }

    #[test]
    fn injection_rate_tracks_configured_rate() {
        let p = FaultPlan::new(FaultConfig {
            seed: 7,
            lane_abort_rate: 0.25,
        });
        let n = 100_000u64;
        for _ in 0..n {
            p.should_abort_lane();
        }
        let rate = p.total_injected() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
        assert_eq!(p.draws(), n);
    }
}
