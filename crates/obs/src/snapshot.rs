//! Point-in-time snapshots of the metric tree, with stable names and a
//! text rendering. The fields are public, so a consumer that wants
//! another format (the bench's JSON artifacts) serializes them itself.

use crate::MetricsRegistry;

/// Frozen copy of one [`Histogram`](crate::Histogram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Non-empty buckets as `(exclusive_upper_bound, count)`, ascending.
    /// The open-ended last bucket reports `u64::MAX` as its bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of every instrument in a registry.
///
/// Scalar names are `<layer>.<metric>` (`buffer.hits`, `ts.stamps.read`);
/// histograms live under their own name (`wal.fsync_ns`) and flatten to
/// `.count` / `.sum` / `.max` / `.mean` scalars in [`entries`].
///
/// [`entries`]: MetricsSnapshot::entries
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub scalars: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Build a snapshot from a live registry. Reads are relaxed, so a
/// snapshot taken concurrently with updates is per-instrument atomic
/// but not a consistent cut across instruments.
pub fn take(reg: &MetricsRegistry) -> MetricsSnapshot {
    let m: &crate::Metrics = reg;
    let scalars = vec![
        ("buffer.fetches".into(), m.buffer.fetches.get()),
        ("buffer.hits".into(), m.buffer.hits.get()),
        ("buffer.misses".into(), m.buffer.misses.get()),
        ("buffer.misses_cached".into(), m.buffer.misses_cached.get()),
        ("buffer.evictions".into(), m.buffer.evictions.get()),
        (
            "buffer.history_evictions".into(),
            m.buffer.history_evictions.get(),
        ),
        ("buffer.flushes".into(), m.buffer.flushes.get()),
        ("buffer.flush_errors".into(), m.buffer.flush_errors.get()),
        (
            "buffer.shard_conflicts".into(),
            m.buffer.shard_conflicts.get(),
        ),
        (
            "buffer.singleflight_waits".into(),
            m.buffer.singleflight_waits.get(),
        ),
        (
            "latch.optimistic_reads".into(),
            m.latch.optimistic_reads.get(),
        ),
        (
            "latch.optimistic_retries".into(),
            m.latch.optimistic_retries.get(),
        ),
        (
            "latch.pessimistic_fallbacks".into(),
            m.latch.pessimistic_fallbacks.get(),
        ),
        ("disk.reads".into(), m.disk.reads.get()),
        ("disk.writes".into(), m.disk.writes.get()),
        ("wal.appends".into(), m.wal.appends.get()),
        ("wal.bytes".into(), m.wal.bytes.get()),
        ("wal.fsyncs".into(), m.wal.fsyncs.get()),
        ("wal.extensions".into(), m.wal.extensions.get()),
        ("wal.group_commits".into(), m.wal.group_commits.get()),
        ("wal.end_lsn".into(), m.wal.end_lsn.get()),
        ("wal.durable_lsn".into(), m.wal.durable_lsn.get()),
        ("recovery.analyze_us".into(), m.recovery.analyze_us.get()),
        ("recovery.redo_us".into(), m.recovery.redo_us.get()),
        ("recovery.undo_us".into(), m.recovery.undo_us.get()),
        (
            "recovery.records_replayed".into(),
            m.recovery.records_replayed.get(),
        ),
        (
            "recovery.losers_rolled_back".into(),
            m.recovery.losers_rolled_back.get(),
        ),
        ("recovery.checkpoints".into(), m.recovery.checkpoints.get()),
        (
            "recovery.crash_recoveries".into(),
            m.recovery.crash_recoveries.get(),
        ),
        (
            "recovery.versions_restamped".into(),
            m.recovery.versions_restamped.get(),
        ),
        (
            "recovery.torn_pages_repaired".into(),
            m.recovery.torn_pages_repaired.get(),
        ),
        ("locks.acquired.is".into(), m.locks.acquired_is.get()),
        ("locks.acquired.ix".into(), m.locks.acquired_ix.get()),
        ("locks.acquired.s".into(), m.locks.acquired_s.get()),
        ("locks.acquired.x".into(), m.locks.acquired_x.get()),
        ("locks.waits".into(), m.locks.waits.get()),
        ("locks.deadlocks".into(), m.locks.deadlocks.get()),
        ("locks.timeouts".into(), m.locks.timeouts.get()),
        (
            "locks.shard_conflicts".into(),
            m.locks.shard_conflicts.get(),
        ),
        ("ts.vtt_hits".into(), m.ts.vtt_hits.get()),
        ("ts.vtt_misses".into(), m.ts.vtt_misses.get()),
        ("ts.ptt_lookups".into(), m.ts.ptt_lookups.get()),
        ("ts.ptt_inserts".into(), m.ts.ptt_inserts.get()),
        ("ts.ptt_gc_deleted".into(), m.ts.ptt_gc_deleted.get()),
        ("ts.visibility_waits".into(), m.ts.visibility_waits.get()),
        ("ts.stamps.read".into(), m.ts.stamps_read.get()),
        ("ts.stamps.update".into(), m.ts.stamps_update.get()),
        ("ts.stamps.flush".into(), m.ts.stamps_flush.get()),
        ("ts.stamps.time_split".into(), m.ts.stamps_time_split.get()),
        ("ts.stamps.vacuum".into(), m.ts.stamps_vacuum.get()),
        ("ts.stamps.eager".into(), m.ts.stamps_eager.get()),
        ("ts.stamps.total".into(), m.ts.stamps_total()),
        ("tree.time_splits".into(), m.tree.time_splits.get()),
        ("tree.key_splits".into(), m.tree.key_splits.get()),
        (
            "tree.index_key_splits".into(),
            m.tree.index_key_splits.get(),
        ),
        ("tree.asof_hops".into(), m.tree.asof_hops.get()),
        (
            "tree.chain_dir_builds".into(),
            m.tree.chain_dir_builds.get(),
        ),
        ("version.delta_folds".into(), m.version.delta_folds.get()),
        (
            "version.deltas_written".into(),
            m.version.deltas_written.get(),
        ),
        (
            "version.anchors_written".into(),
            m.version.anchors_written.get(),
        ),
        (
            "version.bytes_per_version".into(),
            m.version.bytes_per_version.get(),
        ),
        ("compaction.runs".into(), m.compaction.runs.get()),
        (
            "compaction.pages_rewritten".into(),
            m.compaction.pages_rewritten.get(),
        ),
        (
            "compaction.pages_freed".into(),
            m.compaction.pages_freed.get(),
        ),
        (
            "compaction.bytes_reclaimed".into(),
            m.compaction.bytes_reclaimed.get(),
        ),
        ("faults.torn_writes".into(), m.faults.torn_writes.get()),
        ("faults.fsync_errors".into(), m.faults.fsync_errors.get()),
        ("faults.read_errors".into(), m.faults.read_errors.get()),
        ("faults.crashes".into(), m.faults.crashes.get()),
        (
            "server.connections.accepted".into(),
            m.server.connections_accepted.get(),
        ),
        (
            "server.connections.closed".into(),
            m.server.connections_closed.get(),
        ),
        (
            "server.shed_connections".into(),
            m.server.shed_connections.get(),
        ),
        ("server.shed_requests".into(), m.server.shed_requests.get()),
        (
            "server.open_connections".into(),
            m.server.open_connections.get(),
        ),
        (
            "server.active_sessions".into(),
            m.server.active_sessions.get(),
        ),
        (
            "server.ready_queue_depth".into(),
            m.server.ready_queue_depth.get(),
        ),
        ("server.requests".into(), m.server.requests.get()),
        (
            "server.requests_inline".into(),
            m.server.requests_inline.get(),
        ),
        (
            "server.loop_handoffs".into(),
            m.server.loop_handoffs_wait.get()
                + m.server.loop_handoffs_long.get()
                + m.server.loop_handoffs_batch.get(),
        ),
        (
            "server.loop_handoffs_wait".into(),
            m.server.loop_handoffs_wait.get(),
        ),
        (
            "server.loop_handoffs_long".into(),
            m.server.loop_handoffs_long.get(),
        ),
        (
            "server.loop_handoffs_batch".into(),
            m.server.loop_handoffs_batch.get(),
        ),
        ("server.row_chunks".into(), m.server.row_chunks.get()),
        ("server.rows_streamed".into(), m.server.rows_streamed.get()),
        ("server.stream_stalls".into(), m.server.stream_stalls.get()),
        ("server.errors".into(), m.server.errors.get()),
        (
            "server.idle_rollbacks".into(),
            m.server.idle_rollbacks.get(),
        ),
        ("repl.batches_shipped".into(), m.repl.batches_shipped.get()),
        ("repl.bytes_shipped".into(), m.repl.bytes_shipped.get()),
        ("repl.batches_applied".into(), m.repl.batches_applied.get()),
        ("repl.records_applied".into(), m.repl.records_applied.get()),
        ("repl.reconnects".into(), m.repl.reconnects.get()),
        ("repl.horizon_ms".into(), m.repl.horizon_ms.get()),
        ("repl.applied_lsn".into(), m.repl.applied_lsn.get()),
        (
            "temporal.versions_returned".into(),
            m.temporal.versions_returned.get(),
        ),
        ("temporal.diff_rows".into(), m.temporal.diff_rows.get()),
        (
            "temporal.pushdown_point".into(),
            m.temporal.pushdown_point.get(),
        ),
        (
            "temporal.pushdown_range".into(),
            m.temporal.pushdown_range.get(),
        ),
        (
            "temporal.pushdown_none".into(),
            m.temporal.pushdown_none.get(),
        ),
        ("catalog.snapshots".into(), m.temporal.snapshots.get()),
        ("sql.rows_decoded".into(), m.sql.rows_decoded.get()),
        ("check.events".into(), m.check.events.get()),
        ("check.dropped".into(), m.check.dropped_gauge.get()),
        (
            "check.reads_checked".into(),
            m.check.reads_checked_gauge.get(),
        ),
        (
            "check.commits_checked".into(),
            m.check.commits_checked_gauge.get(),
        ),
        ("check.violations".into(), m.check.violations_gauge.get()),
        (
            "check.unverifiable".into(),
            m.check.unverifiable_gauge.get(),
        ),
        ("check.backlog".into(), m.check.backlog.get()),
    ];
    let histograms = vec![
        ("wal.fsync_ns".into(), m.wal.fsync_ns.snapshot()),
        ("wal.batch_size".into(), m.wal.batch_size.snapshot()),
        (
            "wal.leader_waits_ns".into(),
            m.wal.leader_waits_ns.snapshot(),
        ),
        ("locks.wait_ns".into(), m.locks.wait_ns.snapshot()),
        (
            "tree.version_chain_len".into(),
            m.tree.version_chain_len.snapshot(),
        ),
        ("server.request_ns".into(), m.server.request_ns.snapshot()),
        ("server.commit_ns".into(), m.server.commit_ns.snapshot()),
    ];
    MetricsSnapshot {
        scalars,
        histograms,
    }
}

impl MetricsSnapshot {
    /// Look up a scalar by its stable name. Histogram aggregates are
    /// addressable as `<name>.count` / `.sum` / `.max`.
    pub fn get(&self, name: &str) -> Option<u64> {
        if let Some(v) = self
            .scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
        {
            return Some(v);
        }
        for (hname, h) in &self.histograms {
            if let Some(rest) = name.strip_prefix(hname.as_str()) {
                match rest {
                    ".count" => return Some(h.count),
                    ".sum" => return Some(h.sum),
                    ".max" => return Some(h.max),
                    _ => {}
                }
            }
        }
        None
    }

    /// Buffer hit rate in `[0, 1]`; 0 when no fetches happened.
    pub fn buffer_hit_rate(&self) -> f64 {
        let fetches = self.get("buffer.fetches").unwrap_or(0);
        if fetches == 0 {
            0.0
        } else {
            self.get("buffer.hits").unwrap_or(0) as f64 / fetches as f64
        }
    }

    /// All metrics flattened to `(name, value)` rows — what `SHOW STATS`
    /// returns. Histograms contribute `.count`/`.sum`/`.max`/`.mean_ns`
    /// rows; the derived `buffer.hit_rate_pct` is scaled to an integer
    /// percentage so every row stays `u64`.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut rows = self.scalars.clone();
        rows.push((
            "buffer.hit_rate_pct".into(),
            (self.buffer_hit_rate() * 100.0).round() as u64,
        ));
        for (name, h) in &self.histograms {
            rows.push((format!("{name}.count"), h.count));
            rows.push((format!("{name}.sum"), h.sum));
            rows.push((format!("{name}.max"), h.max));
            rows.push((format!("{name}.mean"), h.mean().round() as u64));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Aligned `name value` lines, sorted by name.
    pub fn to_text(&self) -> String {
        let rows = self.entries();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn snapshot_names_and_lookup() {
        let r = MetricsRegistry::new();
        r.buffer.fetches.add(10);
        r.buffer.hits.add(9);
        r.buffer.misses.inc();
        r.wal.fsync_ns.observe(1000);
        r.faults.torn_writes.inc();
        r.recovery.versions_restamped.add(3);
        r.server.connections_accepted.add(2);
        r.server.request_ns.observe(500);
        r.tree.index_key_splits.add(3);
        let s = r.snapshot();
        assert_eq!(s.get("buffer.fetches"), Some(10));
        assert_eq!(s.get("faults.torn_writes"), Some(1));
        assert_eq!(s.get("server.connections.accepted"), Some(2));
        assert_eq!(s.get("server.loop_handoffs"), Some(0));
        assert_eq!(s.get("server.row_chunks"), Some(0));
        assert_eq!(s.get("server.request_ns.count"), Some(1));
        assert_eq!(s.get("recovery.versions_restamped"), Some(3));
        assert_eq!(s.get("recovery.crash_recoveries"), Some(0));
        assert_eq!(s.get("buffer.flush_errors"), Some(0));
        assert_eq!(s.get("wal.fsync_ns.count"), Some(1));
        assert_eq!(s.get("wal.fsync_ns.sum"), Some(1000));
        assert_eq!(s.get("tree.index_key_splits"), Some(3));
        assert_eq!(s.get("no.such.metric"), None);
        assert!((s.buffer_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn wal_and_repl_gauges_have_stable_names() {
        let r = MetricsRegistry::new();
        r.wal.end_lsn.set(4096);
        r.wal.durable_lsn.set(2048);
        r.repl.batches_shipped.add(3);
        r.repl.horizon_ms.set(12_345);
        r.repl.applied_lsn.set(512);
        let s = r.snapshot();
        assert_eq!(s.get("wal.end_lsn"), Some(4096));
        assert_eq!(s.get("wal.durable_lsn"), Some(2048));
        assert_eq!(s.get("repl.batches_shipped"), Some(3));
        assert_eq!(s.get("repl.bytes_shipped"), Some(0));
        assert_eq!(s.get("repl.horizon_ms"), Some(12_345));
        assert_eq!(s.get("repl.applied_lsn"), Some(512));
        assert_eq!(s.get("repl.reconnects"), Some(0));
    }

    #[test]
    fn temporal_metrics_have_stable_names() {
        let r = MetricsRegistry::new();
        r.temporal.versions_returned.add(40);
        r.temporal.diff_rows.add(7);
        r.temporal.snapshots.set(2);
        r.temporal.pushdown_point.add(3);
        r.temporal.pushdown_range.add(2);
        r.temporal.pushdown_none.inc();
        r.sql.rows_decoded.add(5);
        let s = r.snapshot();
        assert_eq!(s.get("sql.rows_decoded"), Some(5));
        assert_eq!(s.get("temporal.pushdown_point"), Some(3));
        assert_eq!(s.get("temporal.pushdown_range"), Some(2));
        assert_eq!(s.get("temporal.pushdown_none"), Some(1));
        assert_eq!(s.get("temporal.versions_returned"), Some(40));
        assert_eq!(s.get("temporal.diff_rows"), Some(7));
        assert_eq!(s.get("catalog.snapshots"), Some(2));
    }

    #[test]
    fn version_and_compaction_metrics_have_stable_names() {
        let r = MetricsRegistry::new();
        r.version.delta_folds.add(15);
        r.version.deltas_written.add(9);
        r.version.anchors_written.add(3);
        r.version.bytes_per_version.set(2750);
        r.compaction.runs.inc();
        r.compaction.pages_rewritten.add(6);
        r.compaction.pages_freed.add(2);
        r.compaction.bytes_reclaimed.add(4096);
        r.locks.shard_conflicts.add(5);
        let s = r.snapshot();
        assert_eq!(s.get("version.delta_folds"), Some(15));
        assert_eq!(s.get("version.deltas_written"), Some(9));
        assert_eq!(s.get("version.anchors_written"), Some(3));
        assert_eq!(s.get("version.bytes_per_version"), Some(2750));
        assert_eq!(s.get("compaction.runs"), Some(1));
        assert_eq!(s.get("compaction.pages_rewritten"), Some(6));
        assert_eq!(s.get("compaction.pages_freed"), Some(2));
        assert_eq!(s.get("compaction.bytes_reclaimed"), Some(4096));
        assert_eq!(s.get("locks.shard_conflicts"), Some(5));
    }

    #[test]
    fn latch_and_disk_metrics_have_stable_names() {
        let r = MetricsRegistry::new();
        r.buffer.misses_cached.add(6);
        r.buffer.shard_conflicts.add(4);
        r.buffer.singleflight_waits.add(3);
        r.latch.optimistic_reads.add(100);
        r.latch.optimistic_retries.add(5);
        r.latch.pessimistic_fallbacks.inc();
        r.disk.reads.add(8);
        r.disk.writes.add(2);
        let s = r.snapshot();
        assert_eq!(s.get("buffer.misses_cached"), Some(6));
        assert_eq!(s.get("buffer.shard_conflicts"), Some(4));
        assert_eq!(s.get("buffer.singleflight_waits"), Some(3));
        assert_eq!(s.get("latch.optimistic_reads"), Some(100));
        assert_eq!(s.get("latch.optimistic_retries"), Some(5));
        assert_eq!(s.get("latch.pessimistic_fallbacks"), Some(1));
        assert_eq!(s.get("disk.reads"), Some(8));
        assert_eq!(s.get("disk.writes"), Some(2));
    }

    #[test]
    fn check_and_shed_metrics_have_stable_names() {
        let r = MetricsRegistry::new();
        r.server.shed_connections.add(4);
        r.server.shed_requests.add(9);
        r.server.open_connections.set(128);
        r.check.events.add(1000);
        r.check.violations_gauge.set(1);
        r.check.reads_checked_gauge.set(800);
        r.check.commits_checked_gauge.set(150);
        r.check.unverifiable_gauge.set(3);
        r.check.dropped_gauge.set(2);
        r.check.backlog.set(17);
        let s = r.snapshot();
        assert_eq!(s.get("server.shed_connections"), Some(4));
        assert_eq!(s.get("server.shed_requests"), Some(9));
        assert_eq!(s.get("server.open_connections"), Some(128));
        assert_eq!(s.get("check.events"), Some(1000));
        assert_eq!(s.get("check.violations"), Some(1));
        assert_eq!(s.get("check.reads_checked"), Some(800));
        assert_eq!(s.get("check.commits_checked"), Some(150));
        assert_eq!(s.get("check.unverifiable"), Some(3));
        assert_eq!(s.get("check.dropped"), Some(2));
        assert_eq!(s.get("check.backlog"), Some(17));
    }

    #[test]
    fn text_renders() {
        let r = MetricsRegistry::new();
        r.locks.acquired_x.add(3);
        r.locks.wait_ns.observe(5);
        let s = r.snapshot();
        let text = s.to_text();
        assert!(text.contains("locks.acquired.x"));
    }
}
