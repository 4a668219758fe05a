//! The benchmark's own input generator: seeded random walks, z-normalised.
//!
//! Deliberately independent of `messi::series::gen`, so a change to the
//! library's generator can never change a workload. Every series draws
//! from its own stream derived from `(seed, stream tag, series index)`,
//! which makes generation order-independent: the same seed gives the
//! same bytes whether one thread or many fill the buffer.

use std::sync::Arc;

use messi::series::Dataset;

/// Points per series in every workload (the paper's default).
pub const SERIES_LEN: usize = 256;

/// Which collection of a workload a series belongs to; keeps the
/// streams of data, queries and ingest batches disjoint under one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Data = 1,
    Queries = 2,
    Ingest = 3,
    Noise = 4,
}

/// xoshiro256++ seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        Self([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    /// The stream of series `index` of `stream` under `seed`.
    pub fn for_series(seed: u64, stream: Stream, index: u64) -> Self {
        let mut s = seed ^ (stream as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let a = splitmix64(&mut s);
        Self::new(a ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Approximately standard normal: the sum of four 16-bit uniforms of
    /// one draw (Irwin–Hall, n = 4), centred and scaled to unit variance.
    /// Integer arithmetic up to the final scale, so it repeats bit for
    /// bit on every platform, and it costs one draw per step.
    pub fn gauss(&mut self) -> f32 {
        let x = self.next_u64();
        let sum = (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48);
        // Each uniform on 0..65536 has variance 65536²/12; four of them
        // 65536²/3, so σ = 65536/√3.
        const INV_SIGMA: f32 = 1.732_050_8 / 65_536.0;
        (sum as f32 - 131_070.0) * INV_SIGMA
    }
}

/// z-normalises `series` in place (mean 0, population σ 1), accumulating
/// in f64. A constant series becomes all zeros.
pub fn znormalize(series: &mut [f32]) {
    let n = series.len() as f64;
    let mean = series.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let var = series
        .iter()
        .map(|&v| (f64::from(v) - mean).powi(2))
        .sum::<f64>()
        / n;
    let inv = if var > 0.0 { 1.0 / var.sqrt() } else { 0.0 };
    for v in series.iter_mut() {
        *v = ((f64::from(*v) - mean) * inv) as f32;
    }
}

/// Writes series `index` of `stream`: a random walk of Gaussian steps,
/// z-normalised.
pub fn fill_random_walk(out: &mut [f32], seed: u64, stream: Stream, index: u64) {
    let mut rng = Rng::for_series(seed, stream, index);
    let mut level = 0.0f32;
    for v in out.iter_mut() {
        level += rng.gauss();
        *v = level;
    }
    znormalize(out);
}

/// `count` random-walk series of `stream` starting at series index
/// `first`, as one flat buffer, filled by `threads` threads.
pub fn random_walk_flat(
    seed: u64,
    stream: Stream,
    first: u64,
    count: usize,
    threads: usize,
) -> Vec<f32> {
    let mut flat = vec![0.0f32; count * SERIES_LEN];
    let per = count.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (t, chunk) in flat.chunks_mut(per * SERIES_LEN).enumerate() {
            s.spawn(move || {
                for (i, series) in chunk.chunks_mut(SERIES_LEN).enumerate() {
                    fill_random_walk(series, seed, stream, first + (t * per + i) as u64);
                }
            });
        }
    });
    flat
}

/// Wraps a flat buffer as a library `Dataset`.
pub fn dataset(flat: Vec<f32>) -> Arc<Dataset> {
    Arc::new(Dataset::from_flat(flat, SERIES_LEN).expect("whole series of SERIES_LEN points"))
}

/// `count` queries that are noisy copies of dataset members: member
/// chosen uniformly, Gaussian noise of `sigma` added per point, then
/// z-normalised again. Returns the flat queries and the chosen members.
pub fn noisy_members(seed: u64, data: &Dataset, count: usize, sigma: f32) -> (Vec<f32>, Vec<u64>) {
    let mut flat = Vec::with_capacity(count * SERIES_LEN);
    let mut members = Vec::with_capacity(count);
    for q in 0..count {
        let mut rng = Rng::for_series(seed, Stream::Noise, q as u64);
        let member = rng.below(data.len() as u64);
        let start = flat.len();
        flat.extend(
            data.series(member as usize)
                .iter()
                .map(|&v| v + sigma * rng.gauss()),
        );
        znormalize(&mut flat[start..]);
        members.push(member);
    }
    (flat, members)
}

/// FNV-1a over the little-endian bytes of `values`: the fingerprint the
/// determinism tests and the output stamp use.
pub fn fingerprint(values: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_bytes_on_any_thread_count() {
        let one = random_walk_flat(7, Stream::Data, 0, 300, 1);
        let many = random_walk_flat(7, Stream::Data, 0, 300, 5);
        assert_eq!(
            one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            many.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let queries = random_walk_flat(7, Stream::Queries, 0, 40, 2);
        let again = random_walk_flat(7, Stream::Queries, 0, 40, 3);
        assert_eq!(fingerprint(&queries), fingerprint(&again));
    }

    #[test]
    fn different_seed_or_stream_gives_different_bytes() {
        let a = random_walk_flat(7, Stream::Data, 0, 50, 2);
        let b = random_walk_flat(8, Stream::Data, 0, 50, 2);
        let c = random_walk_flat(7, Stream::Queries, 0, 50, 2);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn a_later_window_continues_the_same_collection() {
        let whole = random_walk_flat(3, Stream::Ingest, 0, 20, 2);
        let tail = random_walk_flat(3, Stream::Ingest, 12, 8, 3);
        assert_eq!(&whole[12 * SERIES_LEN..], &tail[..]);
    }

    #[test]
    fn series_are_znormalised_and_finite() {
        let flat = random_walk_flat(11, Stream::Data, 0, 64, 2);
        for s in flat.chunks(SERIES_LEN) {
            let mean: f64 = s.iter().map(|&v| f64::from(v)).sum::<f64>() / SERIES_LEN as f64;
            let var: f64 = s.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / SERIES_LEN as f64;
            assert!(
                mean.abs() < 1e-4 && (var - 1.0).abs() < 1e-3,
                "{mean} {var}"
            );
            assert!(s.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn gauss_has_unit_variance() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = f64::from(rng.gauss());
            s += g;
            s2 += g * g;
        }
        let mean = s / f64::from(n);
        let var = s2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "{mean}");
        assert!((var - 1.0).abs() < 0.02, "{var}");
    }

    #[test]
    fn noisy_members_stay_nearest_to_their_member() {
        let data = dataset(random_walk_flat(9, Stream::Data, 0, 200, 2));
        let (flat, members) = noisy_members(9, &data, 10, 0.1);
        let again = noisy_members(9, &data, 10, 0.1);
        assert_eq!(fingerprint(&flat), fingerprint(&again.0));
        for (q, &m) in flat.chunks(SERIES_LEN).zip(&members) {
            let (pos, _) = data.nearest_neighbor_brute_force(q);
            assert_eq!(pos as u64, m);
        }
    }
}
