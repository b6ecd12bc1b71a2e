//! Aggregate log-size and compression statistics.
//!
//! These are the quantities the paper's evaluation reports: total FLL bytes
//! needed to replay a window of execution (Figures 2-4, Table 2), dictionary
//! hit rates (Figure 5) and compression ratios (Figure 6).

use bugnet_types::ByteSize;

use crate::recorder::CheckpointLogs;

/// Summary of a collection of checkpoint logs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogSizeReport {
    /// Number of checkpoint intervals summarized.
    pub intervals: u64,
    /// Committed instructions covered by those intervals.
    pub instructions: u64,
    /// Load instructions executed.
    pub loads_executed: u64,
    /// First loads logged (FLL records).
    pub loads_logged: u64,
    /// Logged values that hit in the dictionary.
    pub dictionary_hits: u64,
    /// Total FLL size (headers + records + fault trailers).
    pub fll_size: ByteSize,
    /// FLL record payload size (excluding headers).
    pub fll_payload_size: ByteSize,
    /// FLL payload size without dictionary compression.
    pub fll_uncompressed_payload_size: ByteSize,
    /// Total MRL size.
    pub mrl_size: ByteSize,
    /// MRL entries recorded.
    pub mrl_entries: u64,
}

impl LogSizeReport {
    /// Builds a report over any iterator of checkpoint logs: a live store's
    /// or a loaded dump's.
    pub fn from_logs<'a, I>(logs: I) -> Self
    where
        I: IntoIterator<Item = &'a CheckpointLogs>,
    {
        let mut report = LogSizeReport::default();
        for CheckpointLogs { fll, mrl, .. } in logs {
            report.intervals += 1;
            report.instructions += fll.instructions;
            report.loads_executed += fll.loads_executed;
            report.loads_logged += fll.records();
            report.dictionary_hits += fll.dictionary_hits();
            report.fll_size += fll.size();
            report.fll_payload_size += fll.payload_size();
            report.fll_uncompressed_payload_size += fll.uncompressed_payload_size();
            report.mrl_size += mrl.size();
            report.mrl_entries += mrl.entries().len() as u64;
        }
        report
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &LogSizeReport) {
        self.intervals += other.intervals;
        self.instructions += other.instructions;
        self.loads_executed += other.loads_executed;
        self.loads_logged += other.loads_logged;
        self.dictionary_hits += other.dictionary_hits;
        self.fll_size += other.fll_size;
        self.fll_payload_size += other.fll_payload_size;
        self.fll_uncompressed_payload_size += other.fll_uncompressed_payload_size;
        self.mrl_size += other.mrl_size;
        self.mrl_entries += other.mrl_entries;
    }

    /// Fraction of executed loads that had to be logged.
    pub fn logged_load_fraction(&self) -> f64 {
        if self.loads_executed == 0 {
            0.0
        } else {
            self.loads_logged as f64 / self.loads_executed as f64
        }
    }

    /// Fraction of logged values found in the dictionary (Figure 5's metric).
    pub fn dictionary_hit_rate(&self) -> f64 {
        if self.loads_logged == 0 {
            0.0
        } else {
            self.dictionary_hits as f64 / self.loads_logged as f64
        }
    }

    /// Dictionary compression ratio of the record payload (Figure 6's metric).
    pub fn compression_ratio(&self) -> f64 {
        self.fll_uncompressed_payload_size
            .ratio_to(self.fll_payload_size)
    }

    /// Average FLL bytes per committed instruction.
    pub fn fll_bytes_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.fll_size.bytes() as f64 / self.instructions as f64
        }
    }

    /// FLL size extrapolated to a replay window of `instructions`, assuming
    /// the observed bytes/instruction rate. Used to report paper-scale
    /// numbers from scaled-down runs.
    pub fn extrapolate_fll_to(&self, instructions: u64) -> ByteSize {
        ByteSize::from_bytes(
            (self.fll_bytes_per_instruction() * instructions as f64).round() as u64,
        )
    }

    /// Combined FLL + MRL size.
    pub fn total_size(&self) -> ByteSize {
        self.fll_size + self.mrl_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fll::TerminationCause;
    use crate::recorder::ThreadRecorder;
    use bugnet_cpu::ArchState;
    use bugnet_types::{Addr, BugNetConfig, ProcessId, ThreadId, Timestamp, Word};

    fn sample_logs(loads: u64, hits: bool) -> CheckpointLogs {
        let mut r = ThreadRecorder::new(
            BugNetConfig::default().with_checkpoint_interval(1_000_000),
            ProcessId(1),
            ThreadId(0),
        );
        r.begin_interval(ArchState::default(), Timestamp(0));
        for i in 0..loads {
            let value = if hits {
                Word::new(7)
            } else {
                Word::new(i as u32)
            };
            r.record_load(Addr::new(0x1000 + i * 4), value, true);
            r.record_committed_instruction();
        }
        r.end_interval(TerminationCause::IntervalFull, &ArchState::default())
            .unwrap()
    }

    #[test]
    fn report_sums_intervals() {
        let a = sample_logs(10, false);
        let b = sample_logs(20, false);
        let report = LogSizeReport::from_logs([&a, &b]);
        assert_eq!(report.intervals, 2);
        assert_eq!(report.instructions, 30);
        assert_eq!(report.loads_logged, 30);
        assert_eq!(report.total_size(), report.fll_size + report.mrl_size);
        assert!(report.fll_bytes_per_instruction() > 0.0);
    }

    #[test]
    fn hit_rate_reflects_value_locality() {
        let repeated = LogSizeReport::from_logs([&sample_logs(50, true)]);
        let unique = LogSizeReport::from_logs([&sample_logs(50, false)]);
        assert!(repeated.dictionary_hit_rate() > 0.9);
        assert!(unique.dictionary_hit_rate() < 0.2);
        assert!(repeated.compression_ratio() > unique.compression_ratio());
    }

    #[test]
    fn merge_is_associative() {
        let a = LogSizeReport::from_logs([&sample_logs(3, false)]);
        let b = LogSizeReport::from_logs([&sample_logs(5, true)]);
        let c = LogSizeReport::from_logs([&sample_logs(7, false)]);
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn default_is_the_merge_identity() {
        let a = LogSizeReport::from_logs([&sample_logs(9, true)]);
        let mut left = LogSizeReport::default();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a;
        right.merge(&LogSizeReport::default());
        assert_eq!(right, a);
    }

    #[test]
    fn merge_accumulates() {
        let mut total = LogSizeReport::from_logs([&sample_logs(5, false)]);
        let other = LogSizeReport::from_logs([&sample_logs(7, false)]);
        total.merge(&other);
        assert_eq!(total.intervals, 2);
        assert_eq!(total.loads_logged, 12);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let report = LogSizeReport::from_logs([&sample_logs(100, false)]);
        let at_1k = report.extrapolate_fll_to(1000);
        let at_2k = report.extrapolate_fll_to(2000);
        assert!(at_2k.bytes() >= at_1k.bytes() * 2 - 2);
        assert!(at_2k.bytes() <= at_1k.bytes() * 2 + 2);
    }

    #[test]
    fn empty_report_is_safe() {
        let report = LogSizeReport::default();
        assert_eq!(report.logged_load_fraction(), 0.0);
        assert_eq!(report.dictionary_hit_rate(), 0.0);
        assert_eq!(report.fll_bytes_per_instruction(), 0.0);
    }
}
