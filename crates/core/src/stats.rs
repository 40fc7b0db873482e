//! Detector statistics — the raw numbers behind Figures 1, 6, 7 and 8.

use std::time::Duration;
use stint_ivtree::OpStats;

/// Per-kind (read/write) access statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sided {
    /// Top-level instrumentation hook calls delivered to the detector.
    pub hooks: u64,
    /// Bytes covered by those hook calls (with multiplicity).
    pub hook_bytes: u64,
    /// 4-byte words processed at word granularity (with multiplicity) —
    /// Figure 1/6's "acc." columns.
    pub words: u64,
    /// Intervals that made it into the access history — Figure 1/6's "int."
    /// columns. For the `compiler` variant this counts top-level calls into
    /// the access history (each hook is one interval).
    pub intervals: u64,
    /// Bytes covered by those intervals — Figure 6's "sum" column.
    pub interval_bytes: u64,
}

impl Sided {
    /// Average interval size in bytes — Figure 6's "avg" column.
    pub fn avg_interval_bytes(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.interval_bytes as f64 / self.intervals as f64
        }
    }

    pub(crate) fn merge(&mut self, other: &Sided) {
        self.hooks += other.hooks;
        self.hook_bytes += other.hook_bytes;
        self.words += other.words;
        self.intervals += other.intervals;
        self.interval_bytes += other.interval_bytes;
    }
}

/// Statistics collected by a detector run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorStats {
    pub read: Sided,
    pub write: Sided,
    /// Time spent querying/updating the access history only (Figure 7's
    /// `hashmap`/`treap` columns, Figure 8's `oh` columns). Only the batching
    /// variants (`comp+rts`, `STINT`) measure this — they do access-history
    /// work in per-strand bursts that are cheap to time.
    pub ah_time: Duration,
    /// Word-granularity shadow operations (Figure 8's `hash ops`).
    pub hash_ops: u64,
    /// Interval-store operations and their per-op node/overlap counts
    /// (Figure 8's `treap ops`, `# nodes`, `# overlaps`).
    pub treap: OpStats,
    /// Strands whose accesses were flushed (non-empty strands).
    pub strands_flushed: u64,
    /// Reachability queries answered by the strand-local cache.
    pub reach_hits: u64,
    /// Reachability queries that walked the order-maintenance lists.
    pub reach_misses: u64,
    /// Strand-boundary invalidations of the reachability cache.
    pub reach_flushes: u64,
    /// Instrumentation hooks elided by the redundant-`set_range` filter:
    /// the hook's word range was already fully set in the bit table this
    /// strand, so the table (and its page lookup) was skipped entirely.
    pub hook_filter_hits: u64,
    /// Single-page runs processed by the batched shadow-replay path.
    pub page_batches: u64,
    /// Words covered by those runs (`page_batch_words / page_batches` is the
    /// mean number of words served per page-table resolution).
    pub page_batch_words: u64,
    /// Heap bytes held by the access history at the end of the run — shadow
    /// pages for the hash variants, interval-store arenas for STINT. The
    /// paper's space-overhead comparison divides the hash variants' value by
    /// STINT's.
    pub ah_bytes: u64,
    /// Heap bytes of the runtime-coalescing bit tables (zero for variants
    /// without runtime coalescing).
    pub coalesce_bytes: u64,
    /// Interval-store insert operations (Lemma 4.1's `m`, summed over the
    /// read and write trees).
    pub treap_inserts: u64,
    /// Peak intervals stored at once, summed over the read and write trees
    /// (per Lemma 4.1, `treap_len_hw <= 2*treap_inserts + 2`).
    pub treap_len_hw: u64,
}

impl DetectorStats {
    pub fn total_words(&self) -> u64 {
        self.read.words + self.write.words
    }
    pub fn total_intervals(&self) -> u64 {
        self.read.intervals + self.write.intervals
    }
    /// Fraction of reachability queries served by the cache (0 if uncached).
    pub fn reach_hit_rate(&self) -> f64 {
        let total = self.reach_hits + self.reach_misses;
        if total == 0 {
            0.0
        } else {
            self.reach_hits as f64 / total as f64
        }
    }
    /// Mean words handled per page-table resolution on the batched path.
    pub fn avg_page_batch_words(&self) -> f64 {
        if self.page_batches == 0 {
            0.0
        } else {
            self.page_batch_words as f64 / self.page_batches as f64
        }
    }

    /// Fold another run's statistics into this one. Used by the batch
    /// detector to aggregate per-shard stats: counters and times sum;
    /// `treap_len_hw` sums the per-shard peaks, an upper bound on the true
    /// simultaneous peak (shards need not peak at the same moment).
    pub fn merge(&mut self, other: &DetectorStats) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.ah_time += other.ah_time;
        self.hash_ops += other.hash_ops;
        self.treap.merge(&other.treap);
        self.strands_flushed += other.strands_flushed;
        self.reach_hits += other.reach_hits;
        self.reach_misses += other.reach_misses;
        self.reach_flushes += other.reach_flushes;
        self.hook_filter_hits += other.hook_filter_hits;
        self.page_batches += other.page_batches;
        self.page_batch_words += other.page_batch_words;
        self.ah_bytes += other.ah_bytes;
        self.coalesce_bytes += other.coalesce_bytes;
        self.treap_inserts += other.treap_inserts;
        self.treap_len_hw += other.treap_len_hw;
    }

    /// Every integer field as a named `("detector.…", value)` pair. This is
    /// the single source the JSON exporters and the observability registry
    /// both consume, so the figure tables and the metrics stream can never
    /// disagree on a statistic. `ah_time` is a `Duration`, published as
    /// nanoseconds by [`publish`](Self::publish).
    pub fn fields(&self) -> [(&'static str, u64); 25] {
        [
            ("detector.read_hooks", self.read.hooks),
            ("detector.read_hook_bytes", self.read.hook_bytes),
            ("detector.read_words", self.read.words),
            ("detector.read_intervals", self.read.intervals),
            ("detector.read_interval_bytes", self.read.interval_bytes),
            ("detector.write_hooks", self.write.hooks),
            ("detector.write_hook_bytes", self.write.hook_bytes),
            ("detector.write_words", self.write.words),
            ("detector.write_intervals", self.write.intervals),
            ("detector.write_interval_bytes", self.write.interval_bytes),
            ("detector.hash_ops", self.hash_ops),
            ("detector.treap_ops", self.treap.ops),
            ("detector.treap_visited", self.treap.visited),
            ("detector.treap_overlaps", self.treap.overlaps),
            ("detector.strands_flushed", self.strands_flushed),
            ("detector.reach_hits", self.reach_hits),
            ("detector.reach_misses", self.reach_misses),
            ("detector.reach_flushes", self.reach_flushes),
            ("detector.hook_filter_hits", self.hook_filter_hits),
            ("detector.page_batches", self.page_batches),
            ("detector.page_batch_words", self.page_batch_words),
            ("detector.ah_bytes", self.ah_bytes),
            ("detector.coalesce_bytes", self.coalesce_bytes),
            ("detector.treap_inserts", self.treap_inserts),
            ("detector.treap_len_hw", self.treap_len_hw),
        ]
    }

    /// Publish a finished run into the observability registry: every
    /// [`fields`](Self::fields) pair plus `detector.{ah_time_ns, wall_ns,
    /// strands, races}`. Every tier calls it once per run, so the registry's
    /// `detector.*` values are sums of the records runs return. One relaxed
    /// load while obs is disabled.
    pub fn publish(&self, wall: Duration, strands: usize, races: u64) {
        if !stint_obs::is_enabled() {
            return;
        }
        for (name, v) in self.fields() {
            stint_obs::add(name, v);
        }
        stint_obs::add("detector.ah_time_ns", self.ah_time.as_nanos() as u64);
        stint_obs::add("detector.wall_ns", wall.as_nanos() as u64);
        stint_obs::add("detector.strands", strands as u64);
        stint_obs::add("detector.races", races);
    }
}
