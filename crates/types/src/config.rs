//! Configuration for the BugNet recorder and the simulated machine.

use crate::size::ByteSize;

/// Largest dictionary a recording may configure (`bugnet dump --dict`) and a
/// decoded log may declare: replay allocates a dictionary of that many
/// entries per interval. The paper's Fig. 5 sweep stops at 1,024.
pub const MAX_DICTIONARY_ENTRIES: usize = 65_536;

/// Configuration of the BugNet recording hardware (one per machine).
///
/// Defaults follow the paper's evaluated design point: 10 M instruction
/// checkpoint intervals, a 64-entry dictionary with 3-bit saturating counters,
/// 5-bit reduced load counts, a 16 KB Checkpoint Buffer and a 32 KB Memory
/// Race Buffer, both backed by a memory region sized for a 10 M instruction
/// replay window.
///
/// # Examples
///
/// ```
/// use bugnet_types::BugNetConfig;
///
/// let cfg = BugNetConfig::default()
///     .with_checkpoint_interval(1_000_000)
///     .with_dictionary_entries(128);
/// assert_eq!(cfg.checkpoint_interval, 1_000_000);
/// assert_eq!(cfg.dictionary_index_bits(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BugNetConfig {
    /// Maximum committed instructions per checkpoint interval.
    pub checkpoint_interval: u64,
    /// Number of entries in the fully-associative load-value dictionary.
    pub dictionary_entries: usize,
    /// Width of the per-entry saturating frequency counter, in bits.
    pub dictionary_counter_bits: u32,
    /// Width of the reduced (common-case) L-Count field, in bits.
    pub reduced_lcount_bits: u32,
    /// Width of the checkpoint interval identifier (C-ID) counter, in bits.
    pub checkpoint_id_bits: u32,
    /// Width of the thread-id field in MRL entries, in bits.
    pub thread_id_bits: u32,
    /// On-chip Checkpoint Buffer capacity.
    pub checkpoint_buffer: ByteSize,
    /// On-chip Memory Race Buffer capacity.
    pub memory_race_buffer: ByteSize,
    /// Memory-backed region for FLLs; oldest checkpoints are discarded when full.
    pub fll_region: ByteSize,
    /// Memory-backed region for MRLs.
    pub mrl_region: ByteSize,
    /// Replay window (committed instructions per thread) the deployment aims
    /// to retain; used only for reporting and for sizing heuristics.
    pub target_replay_window: u64,
    /// Whether to apply Netzer's transitive reduction to memory race logging.
    pub netzer_reduction: bool,
}

impl Default for BugNetConfig {
    fn default() -> Self {
        BugNetConfig {
            checkpoint_interval: 10_000_000,
            dictionary_entries: 64,
            dictionary_counter_bits: 3,
            reduced_lcount_bits: 5,
            checkpoint_id_bits: 8,
            thread_id_bits: 6,
            checkpoint_buffer: ByteSize::from_kib(16),
            memory_race_buffer: ByteSize::from_kib(32),
            fll_region: ByteSize::from_mib(8),
            mrl_region: ByteSize::from_mib(2),
            target_replay_window: 10_000_000,
            netzer_reduction: true,
        }
    }
}

impl BugNetConfig {
    /// Returns the configuration with a new checkpoint interval length.
    pub fn with_checkpoint_interval(mut self, instructions: u64) -> Self {
        self.checkpoint_interval = instructions.max(1);
        self
    }

    /// Returns the configuration with a new dictionary size (entries).
    pub fn with_dictionary_entries(mut self, entries: usize) -> Self {
        self.dictionary_entries = entries.max(1);
        self
    }

    /// Returns the configuration with a new FLL memory-backing capacity.
    pub fn with_fll_region(mut self, region: ByteSize) -> Self {
        self.fll_region = region;
        self
    }

    /// Returns the configuration with a new target replay window.
    pub fn with_target_replay_window(mut self, instructions: u64) -> Self {
        self.target_replay_window = instructions.max(1);
        self
    }

    /// Bits needed to index the dictionary (`log2(entries)`, rounded up).
    pub fn dictionary_index_bits(&self) -> u32 {
        (self.dictionary_entries.max(2) as u64 - 1).ilog2() + 1
    }

    /// Bits needed to store a full L-Count (`log2(checkpoint interval)`, rounded up).
    pub fn full_lcount_bits(&self) -> u32 {
        (self.checkpoint_interval.max(2) - 1).ilog2() + 1
    }

    /// Bits needed to store an instruction count within an interval in MRL entries.
    pub fn interval_ic_bits(&self) -> u32 {
        self.full_lcount_bits()
    }

    /// Total on-chip buffer area (CB + MRB); dictionary CAM reported separately.
    pub fn on_chip_buffer_area(&self) -> ByteSize {
        self.checkpoint_buffer + self.memory_race_buffer
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheLevelConfig {
    /// Creates a level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the block size is not a power of two, if the capacity is not
    /// a multiple of `associativity * block_bytes`, or if any field is zero.
    pub fn new(size_bytes: u64, associativity: usize, block_bytes: u64) -> Self {
        assert!(size_bytes > 0 && associativity > 0 && block_bytes > 0);
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert_eq!(
            size_bytes % (associativity as u64 * block_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        CacheLevelConfig {
            size_bytes,
            associativity,
            block_bytes,
        }
    }

    /// Number of sets in this level.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * self.block_bytes)
    }

    /// Number of 32-bit words per block.
    pub fn words_per_block(&self) -> usize {
        (self.block_bytes / crate::addr::WORD_BYTES) as usize
    }

    /// Number of blocks in this level.
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }
}

/// Geometry of the private two-level cache hierarchy of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Private level-1 data cache.
    pub l1: CacheLevelConfig,
    /// Private level-2 cache.
    pub l2: CacheLevelConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1: CacheLevelConfig::new(32 * 1024, 4, 64),
            l2: CacheLevelConfig::new(1024 * 1024, 8, 64),
        }
    }
}

/// Configuration of the simulated multiprocessor.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware cores.
    pub cores: usize,
    /// Per-core cache hierarchy geometry.
    pub cache: CacheConfig,
    /// Committed instructions between timer interrupts (`None` disables them).
    pub timer_interrupt_period: Option<u64>,
    /// Scheduler quantum in committed instructions for context switches when
    /// more runnable threads exist than cores.
    pub context_switch_quantum: u64,
    /// Main memory bytes transferable per core-cycle when the bus is idle;
    /// used by the log write-back bandwidth/overhead model.
    pub bus_bytes_per_cycle: f64,
    /// Approximate fraction of cycles the memory bus is idle and available for
    /// lazy log write-back.
    pub bus_idle_fraction: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 1,
            cache: CacheConfig::default(),
            timer_interrupt_period: Some(1_000_000),
            context_switch_quantum: 500_000,
            bus_bytes_per_cycle: 8.0,
            bus_idle_fraction: 0.4,
        }
    }
}

impl MachineConfig {
    /// A machine with `cores` cores and defaults for everything else.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            cores: cores.max(1),
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = BugNetConfig::default();
        assert_eq!(cfg.checkpoint_interval, 10_000_000);
        assert_eq!(cfg.dictionary_entries, 64);
        assert_eq!(cfg.dictionary_index_bits(), 6);
        assert_eq!(cfg.reduced_lcount_bits, 5);
        assert_eq!(cfg.on_chip_buffer_area(), ByteSize::from_kib(48));
    }

    #[test]
    fn derived_bit_widths() {
        let cfg = BugNetConfig::default().with_checkpoint_interval(10_000_000);
        assert_eq!(cfg.full_lcount_bits(), 24);
        let cfg = cfg.with_checkpoint_interval(1024);
        assert_eq!(cfg.full_lcount_bits(), 10);
        let cfg = cfg.with_dictionary_entries(1024);
        assert_eq!(cfg.dictionary_index_bits(), 10);
        let cfg = cfg.with_dictionary_entries(8);
        assert_eq!(cfg.dictionary_index_bits(), 3);
    }

    #[test]
    fn builders_clamp_to_valid_values() {
        let cfg = BugNetConfig::default()
            .with_checkpoint_interval(0)
            .with_dictionary_entries(0)
            .with_target_replay_window(0);
        assert_eq!(cfg.checkpoint_interval, 1);
        assert_eq!(cfg.dictionary_entries, 1);
        assert_eq!(cfg.target_replay_window, 1);
    }

    #[test]
    fn cache_level_geometry() {
        let l1 = CacheLevelConfig::new(32 * 1024, 4, 64);
        assert_eq!(l1.num_sets(), 128);
        assert_eq!(l1.words_per_block(), 16);
        assert_eq!(l1.num_blocks(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_level_rejects_non_power_of_two_block() {
        let _ = CacheLevelConfig::new(32 * 1024, 4, 48);
    }

    #[test]
    fn machine_config_with_cores() {
        assert_eq!(MachineConfig::with_cores(4).cores, 4);
        assert_eq!(MachineConfig::with_cores(0).cores, 1);
    }
}
