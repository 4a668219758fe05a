//! Scaling between the paper's dataset sizes and bench-machine sizes.

use messi_core::IndexConfig;
use messi_series::gen::DatasetKind;

/// The paper's operating point: 100 M series under a 2^16-way root gives
/// ~1526 series per root subtree. Figures keep that occupancy when
/// scaling the dataset down (otherwise every tree is a flat forest of
/// 15-entry leaves and no algorithm behaves as published).
pub const PAPER_SUBTREE_OCCUPANCY: usize = 1500;

/// Maps "paper gigabytes" to local series counts and fixes the query
/// workload size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Series standing in for the paper's 100 GB (100 M series) default.
    pub series_per_100gb: usize,
    /// Queries per measured point (paper: 100).
    pub queries: usize,
    /// Warmup queries before measurement.
    pub warmup: usize,
}

impl Scale {
    /// Reads the scale from the environment:
    /// `MESSI_BENCH_SERIES` (default 250 000), `MESSI_BENCH_QUERIES`
    /// (default 10), `MESSI_BENCH_WARMUP` (default 2).
    pub fn from_env() -> Self {
        let get = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            series_per_100gb: get("MESSI_BENCH_SERIES", 250_000),
            queries: get("MESSI_BENCH_QUERIES", 10),
            warmup: get("MESSI_BENCH_WARMUP", 2),
        }
    }

    /// A tiny scale for the harness's own tests.
    pub fn for_tests() -> Self {
        Self {
            series_per_100gb: 2_000,
            queries: 2,
            warmup: 0,
        }
    }

    /// Local series count standing in for `gb` paper-gigabytes of the
    /// given dataset family (SALD series are half as long, so the paper
    /// packs twice as many per GB).
    pub fn series_for_gb(&self, kind: DatasetKind, gb: f64) -> usize {
        let base = match kind {
            DatasetKind::Sald => self.series_per_100gb * 2,
            _ => self.series_per_100gb,
        };
        ((gb / 100.0) * base as f64).round().max(1.0) as usize
    }

    /// The default ("100 GB") dataset size for a family.
    pub fn default_series(&self, kind: DatasetKind) -> usize {
        self.series_for_gb(kind, 100.0)
    }

    /// Segment count that keeps the paper's root-subtree occupancy
    /// (~[`PAPER_SUBTREE_OCCUPANCY`] series per subtree) at dataset size
    /// `count`. The paper's 100 M-series default maps to its fixed w=16.
    pub fn segments_for(count: usize) -> usize {
        let mut w = 4usize;
        while w < 16 && (count >> w) > PAPER_SUBTREE_OCCUPANCY {
            w += 1;
        }
        w
    }

    /// The `IndexConfig` a figure should build with at dataset size
    /// `count`: paper defaults with occupancy-preserving segments.
    pub fn index_config(&self, count: usize) -> IndexConfig {
        IndexConfig {
            segments: Self::segments_for(count),
            ..IndexConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_mapping_is_linear_and_family_aware() {
        let s = Scale {
            series_per_100gb: 1000,
            queries: 1,
            warmup: 0,
        };
        assert_eq!(s.series_for_gb(DatasetKind::RandomWalk, 100.0), 1000);
        assert_eq!(s.series_for_gb(DatasetKind::RandomWalk, 50.0), 500);
        assert_eq!(s.series_for_gb(DatasetKind::RandomWalk, 200.0), 2000);
        // SALD: length 128 ⇒ twice the series per GB.
        assert_eq!(s.series_for_gb(DatasetKind::Sald, 100.0), 2000);
        assert_eq!(s.default_series(DatasetKind::Seismic), 1000);
    }

    #[test]
    fn env_defaults() {
        let s = Scale::from_env();
        assert!(s.series_per_100gb > 0);
        assert!(s.queries > 0);
    }

    #[test]
    fn segments_preserve_paper_occupancy() {
        // The paper's own scale maps back to its fixed w = 16.
        assert_eq!(Scale::segments_for(100_000_000), 16);
        // Scaled-down defaults keep ~750..1500 series per subtree.
        for count in [10_000usize, 100_000, 1_000_000, 4_000_000] {
            let w = Scale::segments_for(count);
            let occupancy = count >> w;
            assert!(occupancy <= 1500, "count={count}: {occupancy}");
            assert!((4..=16).contains(&w));
        }
        // Tiny datasets floor at w = 4.
        assert_eq!(Scale::segments_for(100), 4);
    }
}
