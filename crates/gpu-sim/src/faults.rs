//! Seeded, deterministic fault injection.
//!
//! WarpSpeed (McCoy & Pandey) argues that what blocks large-scale adoption
//! of GPU hash tables is missing failure-handling, not raw speed — and the
//! SEPO paper's own claim is *graceful* degradation under resource
//! exhaustion. A [`FaultPlan`] lets the harness prove that claim: it
//! injects transient allocation failures ([`DeviceMemory`]), PCIe transfer
//! errors ([`PcieBus`]) and lane aborts (the executor) at configurable
//! rates, driven entirely by a seed.
//!
//! Each injection site draws from its own monotone counter hashed together
//! with the seed (SplitMix64). Under [`ExecMode::Deterministic`] and
//! [`ExecMode::ParallelDeterministic`] the draw *order* equals the
//! execution order, so the same seed reproduces the same fault sequence —
//! iteration counts and results JSON stay byte-identical across runs.
//!
//! [`DeviceMemory`]: crate::memory::DeviceMemory
//! [`PcieBus`]: crate::pcie::PcieBus
//! [`ExecMode::Deterministic`]: crate::executor::ExecMode::Deterministic
//! [`ExecMode::ParallelDeterministic`]: crate::executor::ExecMode::ParallelDeterministic

use std::sync::atomic::{AtomicU64, Ordering};

/// Where a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A device-memory reservation transiently fails (driver glitch: the
    /// request would fit, but the allocator says no this time).
    Alloc,
    /// A bulk PCIe transfer fails mid-flight and must be re-issued.
    Pcie,
    /// A kernel lane aborts before running its task; the task stays
    /// unprocessed and is re-issued by the SEPO driver next iteration.
    Lane,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::Pcie => 1,
            FaultSite::Lane => 2,
        }
    }

    /// Stable per-site salt mixed into the hash so the three streams are
    /// independent even under one seed.
    fn salt(self) -> u64 {
        match self {
            FaultSite::Alloc => 0xA110_C8ED_0000_0001,
            FaultSite::Pcie => 0xBC1E_70BB_0000_0002,
            FaultSite::Lane => 0x1A7E_AB07_0000_0003,
        }
    }
}

const N_SITES: usize = 3;

/// A *hard* fault kind: unlike the transient [`FaultSite`]s, these are not
/// retried in place. They kill the in-flight launch before it touches any
/// state and surface to the driver, which either resumes from its last
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

const N_HARD_KINDS: usize = 2;

/// A *silent* corruption kind: unlike both the transient [`FaultSite`]s and
/// the [`HardFaultKind`]s, these do not announce themselves — they flip bits
/// in data at rest or in flight and it is the integrity layer's job
/// (CRC32C stamps in `sepo_core`) to notice before the damage propagates.
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

const N_CORRUPTION_KINDS: usize = 3;

impl CorruptionKind {
    /// All kinds in draw order.
    pub const ALL: [CorruptionKind; N_CORRUPTION_KINDS] = [
        CorruptionKind::PcieBitFlip,
        CorruptionKind::RestingPageFlip,
        CorruptionKind::DiskByteFlip,
    ];

    fn index(self) -> usize {
        match self {
            CorruptionKind::PcieBitFlip => 0,
            CorruptionKind::RestingPageFlip => 1,
            CorruptionKind::DiskByteFlip => 2,
        }
    }

    /// Per-kind salt; distinct from every transient-site and hard-kind salt
    /// so corruption streams never correlate with fault streams.
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
    fn index(self) -> usize {
        match self {
            HardFaultKind::DeviceLost => 0,
            HardFaultKind::PoisonedLaunch => 1,
        }
    }

    /// Per-kind salt; distinct from every transient-site salt so the hard
    /// streams never correlate with the transient ones.
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
/// transient draw streams stay byte-identical to a chaos run's.
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

/// Scale a `[0,1]` rate to the u64 threshold space (draw < threshold →
/// inject); saturates at `u64::MAX` because `u64::MAX as f64` rounds up.
fn threshold_for(rate: f64) -> u64 {
    let r = rate.clamp(0.0, 1.0);
    if r >= 1.0 {
        u64::MAX
    } else {
        (r * u64::MAX as f64) as u64
    }
}

/// Hard-fault state attached to a [`FaultPlan`] via
/// [`FaultPlan::with_hard`].
#[derive(Debug)]
struct HardFaults {
    config: HardFaultConfig,
    thresholds: [u64; N_HARD_KINDS],
    draws: [AtomicU64; N_HARD_KINDS],
    injected: [AtomicU64; N_HARD_KINDS],
}

/// Silent-corruption state attached to a [`FaultPlan`] via
/// [`FaultPlan::with_corruption`].
#[derive(Debug)]
struct Corruptions {
    config: CorruptionConfig,
    thresholds: [u64; N_CORRUPTION_KINDS],
    draws: [AtomicU64; N_CORRUPTION_KINDS],
    injected: [AtomicU64; N_CORRUPTION_KINDS],
}

/// Point-in-time copy of the three *transient* sites' draw/injection
/// counters, captured into iteration-boundary checkpoints so a resumed run
/// replays the exact same transient fault decisions as an unkilled run.
/// Hard-fault counters are deliberately **not** part of this: restoring
/// them would make the replayed launch re-draw the very kill that triggered
/// recovery, looping forever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientDrawState {
    /// Per-site decisions drawn, indexed like [`FaultSite`].
    pub draws: [u64; N_SITES],
    /// Per-site faults injected, indexed like [`FaultSite`].
    pub injected: [u64; N_SITES],
}

/// Per-site injection rates in `[0.0, 1.0]`, plus the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic draw streams.
    pub seed: u64,
    /// Probability that a device-memory reservation transiently fails.
    pub alloc_failure_rate: f64,
    /// Probability that a bulk PCIe transfer attempt errors.
    pub pcie_error_rate: f64,
    /// Probability that a kernel lane aborts before its task runs.
    pub lane_abort_rate: f64,
}

impl FaultConfig {
    /// A plan with every rate zero (useful as a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            alloc_failure_rate: 0.0,
            pcie_error_rate: 0.0,
            lane_abort_rate: 0.0,
        }
    }

    /// The default adversarial mix used by `--faults <seed>`: rare
    /// allocation and transfer errors, occasional lane aborts.
    pub fn standard(seed: u64) -> Self {
        FaultConfig {
            seed,
            alloc_failure_rate: 0.02,
            pcie_error_rate: 0.01,
            lane_abort_rate: 0.005,
        }
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Alloc => self.alloc_failure_rate,
            FaultSite::Pcie => self.pcie_error_rate,
            FaultSite::Lane => self.lane_abort_rate,
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

/// A live fault plan: [`FaultConfig`] plus per-site draw and injection
/// counters. One plan belongs to one simulation (like `Metrics`); sharing
/// a plan across concurrent simulations would interleave their draw
/// streams and break reproducibility.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Thresholds precomputed on the u64 scale: draw < threshold → inject.
    thresholds: [u64; N_SITES],
    draws: [AtomicU64; N_SITES],
    injected: [AtomicU64; N_SITES],
    /// Hard (non-retryable) fault streams; absent unless
    /// [`FaultPlan::with_hard`] attached them.
    hard: Option<HardFaults>,
    /// Silent-corruption streams; absent unless
    /// [`FaultPlan::with_corruption`] attached them.
    corruption: Option<Corruptions>,
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Self {
        let thresholds = [FaultSite::Alloc, FaultSite::Pcie, FaultSite::Lane]
            .map(|s| threshold_for(config.rate(s)));
        FaultPlan {
            config,
            thresholds,
            draws: Default::default(),
            injected: Default::default(),
            hard: None,
            corruption: None,
        }
    }

    /// Attach hard-fault streams (device loss, poisoned launches) to this
    /// plan. Hard faults draw once per kernel launch, *before* the launch
    /// touches any state, so a killed launch mutates nothing.
    pub fn with_hard(mut self, config: HardFaultConfig) -> Self {
        let thresholds = [HardFaultKind::DeviceLost, HardFaultKind::PoisonedLaunch]
            .map(|k| threshold_for(config.rate(k)));
        self.hard = Some(HardFaults {
            config,
            thresholds,
            draws: Default::default(),
            injected: Default::default(),
        });
        self
    }

    /// Attach silent-corruption streams (in-flight bit flips, resting-page
    /// flips, disk byte flips) to this plan. Corruption draws once per
    /// *opportunity* (one per transfer attempt, one per resident page per
    /// iteration, one per disk write) at quiescent points, so the draw
    /// order is deterministic under `ParallelDeterministic`.
    pub fn with_corruption(mut self, config: CorruptionConfig) -> Self {
        let thresholds = CorruptionKind::ALL.map(|k| threshold_for(config.rate(k)));
        self.corruption = Some(Corruptions {
            config,
            thresholds,
            draws: Default::default(),
            injected: Default::default(),
        });
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The hard-fault configuration, when attached.
    pub fn hard_config(&self) -> Option<&HardFaultConfig> {
        self.hard.as_ref().map(|h| &h.config)
    }

    /// Whether any hard-fault stream is attached with a nonzero rate.
    pub fn has_hard_faults(&self) -> bool {
        self.hard
            .as_ref()
            .is_some_and(|h| h.thresholds.iter().any(|&t| t != 0))
    }

    /// Draw the hard-fault decisions for one launch; `Some` means the
    /// launch is killed before it starts. Kinds are drawn in a fixed order
    /// (device loss first) and the first hit short-circuits, so the draw
    /// sequence is deterministic under a seed. Hard draw counters are never
    /// rolled back by checkpoint recovery — a replayed launch draws the
    /// *next* decision and therefore cannot deterministically re-kill
    /// itself.
    pub fn draw_hard(&self) -> Option<HardFaultError> {
        let h = self.hard.as_ref()?;
        for kind in [HardFaultKind::DeviceLost, HardFaultKind::PoisonedLaunch] {
            let i = kind.index();
            if h.thresholds[i] == 0 {
                continue; // rate 0: don't burn a counter increment
            }
            let n = h.draws[i].fetch_add(1, Ordering::Relaxed);
            let hash =
                splitmix64(h.config.seed ^ kind.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
            if hash < h.thresholds[i] {
                h.injected[i].fetch_add(1, Ordering::Relaxed);
                return Some(HardFaultError { kind, draw: n });
            }
        }
        None
    }

    /// Hard-fault decisions drawn so far for `kind` (0 when no hard config
    /// is attached).
    pub fn hard_draws(&self, kind: HardFaultKind) -> u64 {
        self.hard
            .as_ref()
            .map_or(0, |h| h.draws[kind.index()].load(Ordering::Relaxed))
    }

    /// Hard faults injected so far for `kind` (0 when no hard config is
    /// attached).
    pub fn hard_injected(&self, kind: HardFaultKind) -> u64 {
        self.hard
            .as_ref()
            .map_or(0, |h| h.injected[kind.index()].load(Ordering::Relaxed))
    }

    /// Total hard faults injected across both kinds.
    pub fn total_hard_injected(&self) -> u64 {
        self.hard.as_ref().map_or(0, |h| {
            h.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        })
    }

    /// The silent-corruption configuration, when attached.
    pub fn corruption_config(&self) -> Option<&CorruptionConfig> {
        self.corruption.as_ref().map(|c| &c.config)
    }

    /// Whether any silent-corruption stream is attached with a nonzero
    /// rate. Gates every injection/stamp/scrub code path so corruption-off
    /// runs pay nothing and stay byte-identical.
    pub fn has_corruption(&self) -> bool {
        self.corruption
            .as_ref()
            .is_some_and(|c| c.thresholds.iter().any(|&t| t != 0))
    }

    /// Draw the next corruption decision for `kind`: `Some` means "flip a
    /// bit/byte here", with deterministic entropy for choosing the offset.
    /// Like hard faults, corruption counters are never rolled back by
    /// checkpoint recovery — a replayed iteration draws the *next*
    /// decision and therefore cannot deterministically re-corrupt itself.
    pub fn draw_corruption(&self, kind: CorruptionKind) -> Option<CorruptionDraw> {
        let c = self.corruption.as_ref()?;
        let i = kind.index();
        if c.thresholds[i] == 0 {
            return None; // rate 0: don't burn a counter increment
        }
        let n = c.draws[i].fetch_add(1, Ordering::Relaxed);
        let hash = splitmix64(c.config.seed ^ kind.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if hash < c.thresholds[i] {
            c.injected[i].fetch_add(1, Ordering::Relaxed);
            Some(CorruptionDraw {
                kind,
                draw: n,
                // Re-finalize the hit hash so the offset entropy is
                // decorrelated from the threshold comparison.
                entropy: splitmix64(hash),
            })
        } else {
            None
        }
    }

    /// Corruption decisions drawn so far for `kind` (0 when no corruption
    /// config is attached).
    pub fn corruption_draws(&self, kind: CorruptionKind) -> u64 {
        self.corruption
            .as_ref()
            .map_or(0, |c| c.draws[kind.index()].load(Ordering::Relaxed))
    }

    /// Corruptions injected so far for `kind` (0 when no corruption config
    /// is attached).
    pub fn corruption_injected(&self, kind: CorruptionKind) -> u64 {
        self.corruption
            .as_ref()
            .map_or(0, |c| c.injected[kind.index()].load(Ordering::Relaxed))
    }

    /// Total corruptions injected across all kinds.
    pub fn total_corruption_injected(&self) -> u64 {
        self.corruption.as_ref().map_or(0, |c| {
            c.injected.iter().map(|n| n.load(Ordering::Relaxed)).sum()
        })
    }

    /// Capture the transient draw/injection counters for a checkpoint.
    /// Only meaningful at quiescent points (iteration boundaries).
    pub fn transient_snapshot(&self) -> TransientDrawState {
        TransientDrawState {
            draws: std::array::from_fn(|i| self.draws[i].load(Ordering::Relaxed)),
            injected: std::array::from_fn(|i| self.injected[i].load(Ordering::Relaxed)),
        }
    }

    /// Roll the transient draw/injection counters back to a checkpointed
    /// state, so a resumed iteration replays the exact transient fault
    /// decisions the killed attempt drew. Hard counters are untouched.
    pub fn restore_transient(&self, s: &TransientDrawState) {
        for i in 0..N_SITES {
            self.draws[i].store(s.draws[i], Ordering::Relaxed);
            self.injected[i].store(s.injected[i], Ordering::Relaxed);
        }
    }

    /// Draw the next decision for `site`: `true` means "inject a fault
    /// here". Deterministic in the draw sequence: the n-th call for a site
    /// under a given seed always returns the same answer.
    pub fn should_fault(&self, site: FaultSite) -> bool {
        let i = site.index();
        if self.thresholds[i] == 0 {
            return false; // rate 0: don't even burn a counter increment
        }
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let hash =
            splitmix64(self.config.seed ^ site.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let hit = hash < self.thresholds[i];
        if hit {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Decisions drawn so far for `site`.
    pub fn draws(&self, site: FaultSite) -> u64 {
        self.draws[site.index()].load(Ordering::Relaxed)
    }

    /// Faults injected so far for `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fault() {
        let p = FaultPlan::new(FaultConfig::quiet(42));
        for _ in 0..10_000 {
            assert!(!p.should_fault(FaultSite::Alloc));
            assert!(!p.should_fault(FaultSite::Pcie));
            assert!(!p.should_fault(FaultSite::Lane));
        }
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn rate_one_always_faults() {
        let p = FaultPlan::new(FaultConfig {
            seed: 1,
            alloc_failure_rate: 1.0,
            pcie_error_rate: 0.0,
            lane_abort_rate: 0.0,
        });
        for _ in 0..1_000 {
            assert!(p.should_fault(FaultSite::Alloc));
        }
        assert_eq!(p.injected(FaultSite::Alloc), 1_000);
    }

    #[test]
    fn same_seed_reproduces_the_same_sequence() {
        let cfg = FaultConfig::standard(0xDEAD_BEEF);
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        let seq_a: Vec<bool> = (0..5_000)
            .map(|_| a.should_fault(FaultSite::Lane))
            .collect();
        let seq_b: Vec<bool> = (0..5_000)
            .map(|_| b.should_fault(FaultSite::Lane))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.injected(FaultSite::Lane), b.injected(FaultSite::Lane));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::standard(1));
        let b = FaultPlan::new(FaultConfig::standard(2));
        let seq_a: Vec<bool> = (0..5_000)
            .map(|_| a.should_fault(FaultSite::Lane))
            .collect();
        let seq_b: Vec<bool> = (0..5_000)
            .map(|_| b.should_fault(FaultSite::Lane))
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let p = FaultPlan::new(FaultConfig {
            seed: 99,
            alloc_failure_rate: 0.5,
            pcie_error_rate: 0.5,
            lane_abort_rate: 0.5,
        });
        let alloc: Vec<bool> = (0..2_000)
            .map(|_| p.should_fault(FaultSite::Alloc))
            .collect();
        let pcie: Vec<bool> = (0..2_000)
            .map(|_| p.should_fault(FaultSite::Pcie))
            .collect();
        assert_ne!(alloc, pcie, "sites must not share a stream");
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
        let seq_plain: Vec<bool> = (0..5_000)
            .map(|_| plain.should_fault(FaultSite::Lane))
            .collect();
        let seq_chaos: Vec<bool> = (0..5_000)
            .map(|_| {
                let _ = chaotic.draw_hard();
                chaotic.should_fault(FaultSite::Lane)
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
            alloc_failure_rate: 0.3,
            pcie_error_rate: 0.3,
            lane_abort_rate: 0.3,
        });
        for _ in 0..100 {
            p.should_fault(FaultSite::Alloc);
            p.should_fault(FaultSite::Pcie);
            p.should_fault(FaultSite::Lane);
        }
        let snap = p.transient_snapshot();
        let first: Vec<bool> = (0..200).map(|_| p.should_fault(FaultSite::Lane)).collect();
        p.restore_transient(&snap);
        assert_eq!(p.transient_snapshot(), snap);
        let replay: Vec<bool> = (0..200).map(|_| p.should_fault(FaultSite::Lane)).collect();
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
            .map(|_| {
                (
                    plain.should_fault(FaultSite::Lane),
                    plain.draw_hard().map(|e| e.kind),
                )
            })
            .collect();
        let seq_noisy: Vec<(bool, Option<HardFaultKind>)> = (0..5_000)
            .map(|_| {
                for kind in CorruptionKind::ALL {
                    let _ = noisy.draw_corruption(kind);
                }
                (
                    noisy.should_fault(FaultSite::Lane),
                    noisy.draw_hard().map(|e| e.kind),
                )
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

    #[test]
    fn injection_rate_tracks_configured_rate() {
        let p = FaultPlan::new(FaultConfig {
            seed: 7,
            alloc_failure_rate: 0.25,
            pcie_error_rate: 0.0,
            lane_abort_rate: 0.0,
        });
        let n = 100_000u64;
        for _ in 0..n {
            p.should_fault(FaultSite::Alloc);
        }
        let rate = p.injected(FaultSite::Alloc) as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
        assert_eq!(p.draws(FaultSite::Alloc), n);
    }
}
