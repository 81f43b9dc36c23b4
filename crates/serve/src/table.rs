//! A queryable in-memory table over persisted campaign outcomes.
//!
//! The table is a deliberately small relational surface — filter,
//! project, aggregate — over [`CampaignOutcome`] rows, either
//! snapshotted live from a [`crate::CampaignService`] or loaded from a
//! [`ResultStore`] directory. Rows are kept in key order so every
//! query result is deterministic regardless of how many workers
//! produced the rows.

use crate::campaign::CampaignOutcome;
use crate::error::ServeError;
use crate::store::ResultStore;

/// A numeric column of the campaign table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// Completion time, seconds.
    TimeS,
    /// Delivered GFLOPS.
    Gflops,
    /// Healthy (fault-free) completion time, seconds.
    HealthyTimeS,
    /// Healthy (fault-free) GFLOPS.
    HealthyGflops,
    /// Scheduled fault events.
    Events,
    /// Coprocessors lost.
    CardsLost,
    /// Host ranks lost.
    HostsLost,
    /// Blocks redistributed by host recovery.
    BlocksMoved,
    /// Checkpoint time paid, seconds.
    CheckpointS,
    /// Recovery time paid, seconds.
    RecoveryS,
    /// Fractional slowdown vs healthy (derived).
    Overhead,
}

impl Column {
    /// The column's value in one row (counts widen to `f64`).
    fn value(self, row: &CampaignOutcome) -> f64 {
        match self {
            Column::TimeS => row.time_s,
            Column::Gflops => row.gflops,
            Column::HealthyTimeS => row.healthy_time_s,
            Column::HealthyGflops => row.healthy_gflops,
            Column::Events => row.events as f64,
            Column::CardsLost => row.cards_lost as f64,
            Column::HostsLost => row.hosts_lost as f64,
            Column::BlocksMoved => row.blocks_moved as f64,
            Column::CheckpointS => row.checkpoint_s,
            Column::RecoveryS => row.recovery_s,
            Column::Overhead => row.overhead(),
        }
    }
}

/// Comparison operator of a [`Filter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterOp {
    /// `column < value`
    Lt,
    /// `column <= value`
    Le,
    /// `column == value` (exact; meant for count columns)
    Eq,
    /// `column != value`
    Ne,
    /// `column >= value`
    Ge,
    /// `column > value`
    Gt,
}

/// One predicate over a column.
#[derive(Clone, Copy, Debug)]
pub struct Filter {
    /// Column the predicate reads.
    pub column: Column,
    /// Comparison to apply.
    pub op: FilterOp,
    /// Right-hand value.
    pub value: f64,
}

impl Filter {
    /// Builds a predicate.
    pub fn new(column: Column, op: FilterOp, value: f64) -> Self {
        Filter { column, op, value }
    }

    /// Whether `row` satisfies the predicate.
    fn matches(&self, row: &CampaignOutcome) -> bool {
        let v = self.column.value(row);
        match self.op {
            FilterOp::Lt => v < self.value,
            FilterOp::Le => v <= self.value,
            FilterOp::Eq => v == self.value,
            FilterOp::Ne => v != self.value,
            FilterOp::Ge => v >= self.value,
            FilterOp::Gt => v > self.value,
        }
    }
}

/// Aggregate function over a projected column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Row count (ignores the column's values).
    Count,
    /// Sum of the column.
    Sum,
    /// Arithmetic mean; `None` over an empty table.
    Mean,
    /// Minimum; `None` over an empty table.
    Min,
    /// Maximum; `None` over an empty table.
    Max,
}

/// An immutable, key-ordered set of campaign rows.
#[derive(Clone, Debug, Default)]
pub struct ResultTable {
    rows: Vec<CampaignOutcome>,
}

impl ResultTable {
    /// Builds a table from rows, sorting by key and dropping duplicate
    /// keys (last write wins) so the contents are canonical.
    pub(crate) fn new(mut rows: Vec<CampaignOutcome>) -> Self {
        rows.sort_by_key(|r| r.key);
        rows.dedup_by_key(|r| r.key);
        ResultTable { rows }
    }

    /// Loads every persisted campaign record in a store directory.
    /// Corrupt records are skipped (they will be recomputed on their
    /// next request); hard I/O errors surface as [`ServeError::Store`].
    pub fn load(store: &ResultStore) -> Result<Self, ServeError> {
        let mut rows = Vec::new();
        for key in store.keys::<CampaignOutcome>()? {
            if let Some(row) = store.load::<CampaignOutcome>(key)? {
                rows.push(row);
            }
        }
        Ok(ResultTable::new(rows))
    }

    /// Rows satisfying every predicate (conjunction), as a new table.
    pub fn filter(&self, predicates: &[Filter]) -> ResultTable {
        ResultTable {
            rows: self
                .rows
                .iter()
                .filter(|r| predicates.iter().all(|p| p.matches(r)))
                .cloned()
                .collect(),
        }
    }

    /// One column across every row, in key order.
    fn project(&self, column: Column) -> Vec<f64> {
        self.rows.iter().map(|r| column.value(r)).collect()
    }

    /// Aggregates a column. `Count` is `Some` even when empty; the
    /// value-dependent aggregates are `None` over an empty table.
    pub fn aggregate(&self, column: Column, agg: Agg) -> Option<f64> {
        let values = self.project(column);
        match agg {
            Agg::Count => Some(values.len() as f64),
            Agg::Sum => Some(values.iter().fold(0.0, |a, v| a + v)),
            Agg::Mean => {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().fold(0.0, |a, v| a + v) / values.len() as f64)
                }
            }
            Agg::Min => values.iter().copied().reduce(f64::min),
            Agg::Max => values.iter().copied().reduce(f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-written fixture rows with easily summed values.
    fn fixture() -> ResultTable {
        let base = CampaignOutcome {
            key: 0,
            time_s: 0.0,
            gflops: 0.0,
            healthy_time_s: 100.0,
            healthy_gflops: 500.0,
            events: 0,
            cards_lost: 0,
            hosts_lost: 0,
            blocks_moved: 0,
            checkpoint_s: 0.0,
            recovery_s: 0.0,
            fingerprint: 0,
        };
        ResultTable::new(vec![
            CampaignOutcome {
                key: 3,
                time_s: 110.0,
                gflops: 400.0,
                events: 2,
                hosts_lost: 1,
                ..base.clone()
            },
            CampaignOutcome {
                key: 1,
                time_s: 100.0,
                gflops: 500.0,
                ..base.clone()
            },
            CampaignOutcome {
                key: 2,
                time_s: 150.0,
                gflops: 300.0,
                events: 4,
                cards_lost: 2,
                ..base.clone()
            },
        ])
    }

    #[test]
    fn rows_are_key_ordered_and_deduped() {
        let t = fixture();
        let keys: Vec<u64> = t.rows.iter().map(|r| r.key).collect();
        assert_eq!(keys, [1, 2, 3]);
        let dup = ResultTable::new([t.rows.clone(), t.rows.clone()].concat());
        assert_eq!(dup.rows.len(), 3, "duplicate keys collapse");
    }

    #[test]
    fn aggregates_match_hand_computed_values() {
        let t = fixture();
        assert_eq!(t.aggregate(Column::TimeS, Agg::Count), Some(3.0));
        assert_eq!(t.aggregate(Column::TimeS, Agg::Sum), Some(360.0));
        assert_eq!(t.aggregate(Column::TimeS, Agg::Mean), Some(120.0));
        assert_eq!(t.aggregate(Column::TimeS, Agg::Min), Some(100.0));
        assert_eq!(t.aggregate(Column::TimeS, Agg::Max), Some(150.0));
        assert_eq!(t.aggregate(Column::Gflops, Agg::Mean), Some(400.0));
        assert_eq!(t.aggregate(Column::Events, Agg::Sum), Some(6.0));
        // Overhead is derived: (110/100 - 1) etc., mean of {0.1, 0, 0.5}.
        let mean = t.aggregate(Column::Overhead, Agg::Mean).unwrap();
        assert!((mean - 0.2).abs() < 1e-12, "{mean}");
        // Value-dependent aggregates over an empty table are None.
        let empty = ResultTable::default();
        assert_eq!(empty.aggregate(Column::TimeS, Agg::Count), Some(0.0));
        assert_eq!(empty.aggregate(Column::TimeS, Agg::Mean), None);
        assert_eq!(empty.aggregate(Column::TimeS, Agg::Min), None);
    }

    #[test]
    fn filter_is_a_conjunction_and_projection_keeps_key_order() {
        let t = fixture();
        let faulty = t.filter(&[Filter::new(Column::Events, FilterOp::Gt, 0.0)]);
        assert_eq!(faulty.rows.len(), 2);
        let slow_and_faulty = t.filter(&[
            Filter::new(Column::Events, FilterOp::Gt, 0.0),
            Filter::new(Column::TimeS, FilterOp::Ge, 150.0),
        ]);
        assert_eq!(slow_and_faulty.rows.len(), 1);
        assert_eq!(slow_and_faulty.rows[0].key, 2);
        assert_eq!(t.project(Column::TimeS), vec![100.0, 150.0, 110.0]);
        let none = t.filter(&[Filter::new(Column::HostsLost, FilterOp::Eq, 9.0)]);
        assert!(none.rows.is_empty());
    }

    #[test]
    fn store_round_trip_reloads_the_same_table() {
        let dir = std::env::temp_dir().join(format!("phi-serve-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let t = fixture();
        for r in &t.rows {
            store.put(r.key, r).unwrap();
        }
        let back = ResultTable::load(&store).unwrap();
        assert_eq!(back.rows, t.rows);
        // A corrupt record is skipped, not fatal.
        std::fs::write(store.record_path::<CampaignOutcome>(2), "junk\n").unwrap();
        let partial = ResultTable::load(&store).unwrap();
        assert_eq!(partial.rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
