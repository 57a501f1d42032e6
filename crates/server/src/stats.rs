//! Service counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time view of the service counters (see [`crate::StlServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Distance queries served through [`crate::StlServer::query`] plus any
    /// reader-reported counts ([`crate::StlServer::record_queries`]).
    pub queries_served: u64,
    /// Batches applied and published (equals the latest generation).
    pub batches_applied: u64,
    /// Batches rejected by validation instead of applied — by the writer
    /// (`StlServer::submit` of an invalid batch) or by the adaptive batcher
    /// pre-check in front of it. A rejected batch consumes no generation and
    /// leaves graph and labels untouched.
    pub batches_rejected: u64,
    /// Individual edge updates contained in those batches, pre-normalisation.
    pub updates_submitted: u64,
    /// Nanoseconds spent publishing snapshots (COW clone + pointer swap),
    /// summed over publishes.
    pub publish_ns_total: u64,
    /// Publish latency of the most recent epoch, in nanoseconds.
    pub publish_ns_last: u64,
    /// Nanoseconds the writer spent inside `apply_batch`, summed.
    pub apply_ns_total: u64,
    /// Bytes physically copied by copy-on-write chunk promotions, summed
    /// over all epochs. Untouched chunks are shared with prior snapshots and
    /// cost nothing — contrast with a full clone's `O(n + m + Σ|L(v)|)`.
    pub publish_bytes_copied: u64,
    /// Chunks copied while applying the most recent epoch's batch.
    pub chunks_copied_last: u64,
    /// Repair shards (stable trees + spine) that did work for the most
    /// recent batch — both families report this: Label Search shards by
    /// per-ancestor ownership, Pareto Search by clamped validity intervals.
    pub repair_shards_last: u64,
    /// Wall time of the slowest shard of the most recent batch, in
    /// nanoseconds — how much of the repair one shard owns.
    pub repair_shard_ns_max_last: u64,
    /// Summed per-shard wall time of the most recent batch, in nanoseconds
    /// — the repair's wall time, shards running one after another.
    pub repair_shard_ns_sum_last: u64,
    /// Stable trees that received repair work, summed over all batches.
    pub trees_touched_total: u64,
    /// Stable trees skipped by batch pre-grouping before any search
    /// started, summed over all batches.
    pub trees_skipped_total: u64,
    /// Always 0: epoch compaction is gone. Stays only because the frozen
    /// benchmark harness reads it — delete with the next `[benchmark]`
    /// issue.
    #[doc(hidden)]
    pub compactions_total: u64,
    /// Always 0, like `compactions_total` — delete with the next
    /// `[benchmark]` issue.
    #[doc(hidden)]
    pub bytes_flattened_total: u64,
    /// Write-ahead-log records appended this process lifetime (durable
    /// servers only; one per accepted batch, written before the apply).
    pub wal_records_appended: u64,
    /// Times the WAL was fsynced — equals `wal_records_appended` under
    /// `fsync=always`, amortised under `every:N`, 0 under `never`.
    pub wal_fsyncs: u64,
    /// WAL records replayed through the repair path at boot (records the
    /// checkpoint already covered are skipped and not counted here).
    pub wal_records_replayed: u64,
    /// Whether boot-time recovery found — and truncated — a torn or
    /// corrupt WAL tail (0 or 1; a torn tail is expected crash debris, not
    /// an error).
    pub wal_torn_tail: u64,
    /// Checkpoints written (after each streak of quiet epochs, see
    /// [`crate::durable::CHECKPOINT_QUIET_EPOCHS`], and the final one at
    /// clean shutdown), each atomically resetting the WAL.
    pub checkpoints_written: u64,
    /// Times the supervisor respawned a dead writer thread from the last
    /// published state.
    pub writer_restarts: u64,
    /// Idempotent-update lookups that hit the dedup window — each one a
    /// retry acknowledged without re-applying.
    pub dedup_hits: u64,
    /// Rejection reasons evicted from the bounded window
    /// ([`crate::ServerConfig::rejection_window`]); while this is 0, every
    /// ticket resolves its exact outcome.
    pub rejection_reasons_evicted: u64,
}

impl ServerStats {
    /// Mean publish latency in nanoseconds (0 before the first publish).
    pub fn publish_ns_mean(&self) -> u64 {
        self.publish_ns_total.checked_div(self.batches_applied).unwrap_or(0)
    }

    /// Mean bytes copied per published epoch (0 before the first publish).
    pub fn publish_bytes_mean(&self) -> u64 {
        self.publish_bytes_copied.checked_div(self.batches_applied).unwrap_or(0)
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation {} | {} queries | {} updates in {} batches ({} rejected) | \
             publish mean {:.1} us (last {:.1} us) | cow copied {:.1} KiB/epoch \
             (last epoch {} chunks) | apply total {:.1} ms | last repair: \
             {} shards (slowest {:.1} us of {:.1} us total) | \
             trees touched/skipped {}/{} | \
             wal {} appended / {} fsyncs / {} replayed{} | \
             {} checkpoints | {} writer restarts | {} dedup hits | \
             {} reasons evicted",
            self.batches_applied,
            self.queries_served,
            self.updates_submitted,
            self.batches_applied,
            self.batches_rejected,
            self.publish_ns_mean() as f64 / 1e3,
            self.publish_ns_last as f64 / 1e3,
            self.publish_bytes_mean() as f64 / 1024.0,
            self.chunks_copied_last,
            self.apply_ns_total as f64 / 1e6,
            self.repair_shards_last,
            self.repair_shard_ns_max_last as f64 / 1e3,
            self.repair_shard_ns_sum_last as f64 / 1e3,
            self.trees_touched_total,
            self.trees_skipped_total,
            self.wal_records_appended,
            self.wal_fsyncs,
            self.wal_records_replayed,
            if self.wal_torn_tail != 0 { " (torn tail truncated)" } else { "" },
            self.checkpoints_written,
            self.writer_restarts,
            self.dedup_hits,
            self.rejection_reasons_evicted,
        )
    }
}

/// Shared atomic counters behind [`ServerStats`].
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub queries_served: AtomicU64,
    pub batches_applied: AtomicU64,
    pub batches_rejected: AtomicU64,
    pub updates_submitted: AtomicU64,
    pub publish_ns_total: AtomicU64,
    pub publish_ns_last: AtomicU64,
    pub apply_ns_total: AtomicU64,
    pub publish_bytes_copied: AtomicU64,
    pub chunks_copied_last: AtomicU64,
    pub repair_shards_last: AtomicU64,
    pub repair_shard_ns_max_last: AtomicU64,
    pub repair_shard_ns_sum_last: AtomicU64,
    pub trees_touched_total: AtomicU64,
    pub trees_skipped_total: AtomicU64,
    pub wal_records_appended: AtomicU64,
    pub wal_fsyncs: AtomicU64,
    pub wal_records_replayed: AtomicU64,
    /// 0 or 1; set once at boot from the recovery report.
    pub wal_torn_tail: AtomicU64,
    pub checkpoints_written: AtomicU64,
    pub writer_restarts: AtomicU64,
    pub dedup_hits: AtomicU64,
    pub rejection_reasons_evicted: AtomicU64,
}

impl StatsCells {
    pub fn load(&self) -> ServerStats {
        ServerStats {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            batches_applied: self.batches_applied.load(Ordering::Relaxed),
            batches_rejected: self.batches_rejected.load(Ordering::Relaxed),
            updates_submitted: self.updates_submitted.load(Ordering::Relaxed),
            publish_ns_total: self.publish_ns_total.load(Ordering::Relaxed),
            publish_ns_last: self.publish_ns_last.load(Ordering::Relaxed),
            apply_ns_total: self.apply_ns_total.load(Ordering::Relaxed),
            publish_bytes_copied: self.publish_bytes_copied.load(Ordering::Relaxed),
            chunks_copied_last: self.chunks_copied_last.load(Ordering::Relaxed),
            repair_shards_last: self.repair_shards_last.load(Ordering::Relaxed),
            repair_shard_ns_max_last: self.repair_shard_ns_max_last.load(Ordering::Relaxed),
            repair_shard_ns_sum_last: self.repair_shard_ns_sum_last.load(Ordering::Relaxed),
            trees_touched_total: self.trees_touched_total.load(Ordering::Relaxed),
            trees_skipped_total: self.trees_skipped_total.load(Ordering::Relaxed),
            compactions_total: 0,
            bytes_flattened_total: 0,
            wal_records_appended: self.wal_records_appended.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_records_replayed: self.wal_records_replayed.load(Ordering::Relaxed),
            wal_torn_tail: self.wal_torn_tail.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            writer_restarts: self.writer_restarts.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            rejection_reasons_evicted: self.rejection_reasons_evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_zero_batches() {
        assert_eq!(ServerStats::default().publish_ns_mean(), 0);
        assert_eq!(ServerStats::default().publish_bytes_mean(), 0);
    }

    #[test]
    fn display_mentions_generation_and_cow() {
        let s = ServerStats {
            batches_applied: 7,
            publish_bytes_copied: 7 * 2048,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("generation 7"));
        assert!(text.contains("cow copied 2.0 KiB/epoch"));
    }

    #[test]
    fn display_mentions_durability_counters() {
        let s = ServerStats {
            wal_records_appended: 9,
            wal_fsyncs: 3,
            wal_records_replayed: 4,
            wal_torn_tail: 1,
            checkpoints_written: 2,
            writer_restarts: 1,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("wal 9 appended / 3 fsyncs / 4 replayed (torn tail truncated)"));
        assert!(text.contains("2 checkpoints"));
        assert!(text.contains("1 writer restarts"));
    }

    #[test]
    fn bytes_mean_is_per_epoch() {
        let s =
            ServerStats { batches_applied: 4, publish_bytes_copied: 4096, ..Default::default() };
        assert_eq!(s.publish_bytes_mean(), 1024);
    }
}
