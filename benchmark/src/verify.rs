//! The correctness gate: the harness's own distance code, its oracles,
//! and the tally of operations attempted and failed. Nothing here calls
//! a library kernel — the verifier must not share a bug with what it
//! checks.

use std::collections::BTreeMap;

use crate::gen::SERIES_LEN;

/// Sakoe–Chiba band radius of every DTW workload (10 % of the length,
/// what `DtwParams::paper_default` gives for 256 points).
pub const DTW_WINDOW: usize = SERIES_LEN / 10;

/// Relative slack between the harness's f64 distances and the library's
/// f32 ones (summation order and width differ; answers do not).
const REL_TOL: f64 = 2e-4;
/// Absolute slack, for distances near zero.
const ABS_TOL: f64 = 1e-4;

fn close_or_below(reported: f64, reference: f64) -> bool {
    reported <= reference * (1.0 + REL_TOL) + ABS_TOL
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()) + ABS_TOL
}

/// Squared Euclidean distance, accumulated in f64.
pub fn ed_sq(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// As [`ed_sq`] but gives up (returning a value `>= bound`) once the
/// running sum reaches `bound`; checked every 32 points.
pub fn ed_sq_bounded(a: &[f32], b: &[f32], bound: f64) -> f64 {
    let mut sum = 0.0f64;
    for (ca, cb) in a.chunks(32).zip(b.chunks(32)) {
        sum += ed_sq(ca, cb);
        if sum >= bound {
            return sum;
        }
    }
    sum
}

/// Banded DTW over squared point differences in f64, giving up (with a
/// value `>= bound`) once a whole row is at or above `bound`.
pub fn dtw_sq_bounded(a: &[f32], b: &[f32], window: usize, bound: f64) -> f64 {
    let n = a.len();
    assert!(n > 0 && n == b.len(), "DTW needs equal, non-zero lengths");
    let w = window.min(n - 1);
    let mut prev = vec![f64::INFINITY; n];
    let mut curr = vec![f64::INFINITY; n];
    for (i, &ai) in a.iter().enumerate() {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n - 1);
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = f64::from(ai) - f64::from(b[j]);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 { prev[j] } else { f64::INFINITY };
                let diag = if i > 0 && j > 0 {
                    prev[j - 1]
                } else {
                    f64::INFINITY
                };
                let left = if j > lo { curr[j - 1] } else { f64::INFINITY };
                up.min(diag).min(left)
            };
            curr[j] = best + d * d;
            row_min = row_min.min(curr[j]);
        }
        if row_min >= bound {
            return row_min;
        }
        std::mem::swap(&mut prev, &mut curr);
        // Row i-1 is now `curr`; clear it so no cell outside the next
        // band reads as a reachable predecessor.
        curr[lo.saturating_sub(1)..=hi].fill(f64::INFINITY);
    }
    prev[n - 1]
}

/// Which distance an answer claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    Euclidean,
    Dtw,
}

impl Dist {
    fn bounded(self, a: &[f32], b: &[f32], bound: f64) -> f64 {
        match self {
            Self::Euclidean => ed_sq_bounded(a, b, bound),
            Self::Dtw => dtw_sq_bounded(a, b, DTW_WINDOW, bound),
        }
    }
}

/// The smallest distance from `query` to any of `candidates`, scanning
/// with the best so far as the bound. The full brute-force oracle when
/// `candidates` is the whole collection, the sample oracle otherwise.
pub fn oracle_best<'a>(
    dist: Dist,
    query: &[f32],
    candidates: impl Iterator<Item = &'a [f32]>,
) -> f64 {
    let mut best = f64::INFINITY;
    for c in candidates {
        let d = dist.bounded(query, c, best);
        if d < best {
            best = d;
        }
    }
    best
}

/// One answer as the program returned it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub pos: u64,
    pub dist_sq: f32,
}

/// What an answer list must satisfy beyond being self-consistent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expect {
    /// Exact number of answers (1-NN: 1, k-NN: k).
    pub len: Option<usize>,
    /// No answer may lie beyond this squared distance (range search).
    pub within: Option<f64>,
    /// A distance some series is known to achieve: the first answer may
    /// not be worse.
    pub oracle: Option<f64>,
}

/// Operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Verifier {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<&'static str, u64>,
    /// The first few failures in full, for the log.
    examples: Vec<String>,
}

impl Verifier {
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn reasons(&self) -> &BTreeMap<&'static str, u64> {
        &self.reasons
    }

    pub fn examples(&self) -> &[String] {
        &self.examples
    }

    /// Counts operations that completed and need no further check
    /// (acknowledged batches, builds).
    pub fn pass(&mut self, operations: u64) {
        self.attempted += operations;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: &'static str, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason).or_insert(0) += 1;
        if self.examples.len() < 8 {
            self.examples.push(format!("{reason}: {}", detail()));
        }
    }

    /// Checks one nearest-neighbour answer — one operation. `series_at`
    /// resolves a global position in the collection the query ran over
    /// (`None` past its end). The distance is recomputed at the returned
    /// position and must agree with the reported one; `oracle`, when the
    /// query has one, must not beat it.
    pub fn check_answer<'a>(
        &mut self,
        dist: Dist,
        query: &[f32],
        answer: Option<Answer>,
        series_at: impl Fn(u64) -> Option<&'a [f32]>,
        oracle: Option<f64>,
    ) {
        let expect = Expect {
            len: Some(1),
            within: None,
            oracle,
        };
        self.check_answers(dist, query, answer.as_slice(), series_at, expect);
    }

    /// Checks an answer list (k-NN, range) — one operation: every
    /// distance recomputes, the list ascends without repeating a
    /// position, and it meets `expect`.
    pub fn check_answers<'a>(
        &mut self,
        dist: Dist,
        query: &[f32],
        answers: &[Answer],
        series_at: impl Fn(u64) -> Option<&'a [f32]>,
        expect: Expect,
    ) {
        if expect.len.is_some_and(|n| n != answers.len()) || answers.is_empty() {
            return self.fail("answer_count", || {
                format!("{} answers, expected {:?}", answers.len(), expect.len)
            });
        }
        let mut previous = f64::NEG_INFINITY;
        for (i, answer) in answers.iter().enumerate() {
            let Some(series) = series_at(answer.pos) else {
                return self.fail("position_out_of_range", || format!("pos {}", answer.pos));
            };
            let reported = f64::from(answer.dist_sq);
            let recomputed = dist.bounded(query, series, f64::INFINITY);
            if !close(reported, recomputed) {
                return self.fail("distance_mismatch", || {
                    format!(
                        "pos {} reported {reported} but recomputes to {recomputed}",
                        answer.pos
                    )
                });
            }
            if reported < previous || answers[..i].iter().any(|a| a.pos == answer.pos) {
                return self.fail("answer_order", || {
                    format!("answer {i} (pos {}) repeats or descends", answer.pos)
                });
            }
            previous = reported;
            if expect
                .within
                .is_some_and(|limit| !close_or_below(recomputed, limit))
            {
                return self.fail("outside_range", || {
                    format!(
                        "pos {} at {recomputed} exceeds {:?}",
                        answer.pos, expect.within
                    )
                });
            }
        }
        if let Some(best) = expect.oracle {
            let first = f64::from(answers[0].dist_sq);
            if !close_or_below(first, best) {
                return self.fail("beaten_by_oracle", || {
                    format!("pos {} at {first}, oracle found {best}", answers[0].pos)
                });
            }
        }
        self.attempted += 1;
    }

    /// Checks that querying an ingested series returned the series
    /// itself: its own global position at distance zero — one operation.
    pub fn check_read_your_write(&mut self, expected_pos: u64, answer: Option<Answer>) {
        match answer {
            Some(a) if a.pos == expected_pos && f64::from(a.dist_sq) <= ABS_TOL => {
                self.attempted += 1;
            }
            other => self.fail("ingested_series_lost", || {
                format!("expected pos {expected_pos} at distance 0, got {other:?}")
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_walk_flat, Stream};

    fn collection(n: usize) -> Vec<f32> {
        random_walk_flat(21, Stream::Data, 0, n, 2)
    }

    fn at<'a>(flat: &'a [f32]) -> impl Fn(u64) -> Option<&'a [f32]> + 'a {
        move |pos| {
            let start = usize::try_from(pos).ok()?.checked_mul(SERIES_LEN)?;
            flat.get(start..start + SERIES_LEN)
        }
    }

    fn brute_force(dist: Dist, query: &[f32], flat: &[f32]) -> (u64, f64) {
        let mut best = (0, f64::INFINITY);
        for (i, s) in flat.chunks(SERIES_LEN).enumerate() {
            let d = dist.bounded(query, s, f64::INFINITY);
            if d < best.1 {
                best = (i as u64, d);
            }
        }
        best
    }

    #[test]
    fn a_right_answer_passes() {
        let flat = collection(300);
        let query = random_walk_flat(21, Stream::Queries, 0, 1, 1);
        for dist in [Dist::Euclidean, Dist::Dtw] {
            let (pos, d) = brute_force(dist, &query, &flat);
            let oracle = oracle_best(dist, &query, flat.chunks(SERIES_LEN));
            assert_eq!(oracle, d, "bounded scan finds the brute-force minimum");
            let mut v = Verifier::default();
            let answer = Answer {
                pos,
                dist_sq: d as f32,
            };
            v.check_answer(dist, &query, Some(answer), at(&flat), Some(oracle));
            assert_eq!((v.attempted(), v.failed()), (1, 0), "{:?}", v.examples());
        }
    }

    #[test]
    fn a_planted_wrong_position_is_a_failure() {
        let flat = collection(300);
        let query = random_walk_flat(21, Stream::Queries, 0, 1, 1);
        let (pos, d) = brute_force(Dist::Euclidean, &query, &flat);
        let mut v = Verifier::default();
        // The right distance at the wrong position: recomputation there
        // disagrees.
        let wrong = Answer {
            pos: (pos + 1) % 300,
            dist_sq: d as f32,
        };
        v.check_answer(Dist::Euclidean, &query, Some(wrong), at(&flat), None);
        assert_eq!((v.attempted(), v.failed()), (1, 1));
        assert_eq!(v.reasons()["distance_mismatch"], 1);
        // A position past the collection.
        let outside = Answer {
            pos: 300,
            dist_sq: d as f32,
        };
        v.check_answer(Dist::Euclidean, &query, Some(outside), at(&flat), None);
        assert_eq!(v.reasons()["position_out_of_range"], 1);
        v.check_answer(Dist::Euclidean, &query, None, at(&flat), None);
        assert_eq!(v.reasons()["answer_count"], 1);
        assert_eq!((v.attempted(), v.failed()), (3, 3));
    }

    #[test]
    fn a_planted_worse_than_oracle_answer_is_a_failure() {
        let flat = collection(300);
        let query = random_walk_flat(21, Stream::Queries, 0, 1, 1);
        for dist in [Dist::Euclidean, Dist::Dtw] {
            let (best_pos, best) = brute_force(dist, &query, &flat);
            // A self-consistent answer (distance matches its position)
            // that is simply not the nearest.
            let other = (best_pos + 7) % 300;
            let d = dist.bounded(&query, at(&flat)(other).unwrap(), f64::INFINITY);
            assert!(d > best);
            let mut v = Verifier::default();
            let answer = Answer {
                pos: other,
                dist_sq: d as f32,
            };
            v.check_answer(dist, &query, Some(answer), at(&flat), Some(best));
            assert_eq!((v.attempted(), v.failed()), (1, 1));
            assert_eq!(v.reasons()["beaten_by_oracle"], 1);
        }
    }

    #[test]
    fn a_dropped_ingested_series_is_a_failure() {
        let mut v = Verifier::default();
        v.check_read_your_write(
            1000,
            Some(Answer {
                pos: 1000,
                dist_sq: 0.0,
            }),
        );
        assert_eq!((v.attempted(), v.failed()), (1, 0));
        // The series is gone: its query finds some other, distant series.
        v.check_read_your_write(
            1001,
            Some(Answer {
                pos: 17,
                dist_sq: 212.5,
            }),
        );
        // Right position, but not the bytes that were written.
        v.check_read_your_write(
            1002,
            Some(Answer {
                pos: 1002,
                dist_sq: 0.3,
            }),
        );
        v.check_read_your_write(1003, None);
        assert_eq!((v.attempted(), v.failed()), (4, 3));
        assert_eq!(v.reasons()["ingested_series_lost"], 3);
    }

    #[test]
    fn dtw_matches_a_full_matrix_reference_and_ed_at_window_zero() {
        let flat = collection(6);
        let (a, b) = (&flat[..SERIES_LEN], &flat[SERIES_LEN..2 * SERIES_LEN]);
        assert!(close(dtw_sq_bounded(a, b, 0, f64::INFINITY), ed_sq(a, b)));
        // Full-matrix reference on short prefixes.
        let (a, b) = (&a[..40], &b[..40]);
        for w in [1, 4, 39] {
            let n = a.len();
            let mut dp = vec![vec![f64::INFINITY; n]; n];
            for i in 0..n {
                for j in i.saturating_sub(w)..=(i + w).min(n - 1) {
                    let cost = (f64::from(a[i]) - f64::from(b[j])).powi(2);
                    let best = if i == 0 && j == 0 {
                        0.0
                    } else {
                        let up = if i > 0 { dp[i - 1][j] } else { f64::INFINITY };
                        let diag = if i > 0 && j > 0 {
                            dp[i - 1][j - 1]
                        } else {
                            f64::INFINITY
                        };
                        let left = if j > 0 { dp[i][j - 1] } else { f64::INFINITY };
                        up.min(diag).min(left)
                    };
                    dp[i][j] = best + cost;
                }
            }
            let got = dtw_sq_bounded(a, b, w, f64::INFINITY);
            assert!(
                close(got, dp[n - 1][n - 1]),
                "w={w}: {got} vs {}",
                dp[n - 1][n - 1]
            );
            assert!(
                got <= ed_sq(a, b) + 1e-9,
                "warping never costs more than ED"
            );
        }
        assert!(
            dtw_sq_bounded(a, b, 4, 1e-6) >= 1e-6,
            "gives up at the bound"
        );
    }
}
