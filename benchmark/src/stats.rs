//! Sample statistics: the percentile picker, the quiet-chunk estimator, and
//! the quartile spread the acceptance rule is written in.
//!
//! The reference box is a small guest of a shared host. A neighbour in the
//! shared caches slows single-threaded, cache-resident code by 20–40 % for
//! seconds at a time, in plateaus; the
//! program's own cost is the floor those plateaus sit on. A median over the
//! run therefore reports how busy the host was. Every gated timing goes
//! through [`quiet_stat`] instead: the run's samples, in the order taken,
//! are cut into equal consecutive chunks (every leg runs in every round of
//! the run, so the chunks of every metric span the whole run), the wanted
//! percentile is taken inside each chunk, and the **lowest chunk value** is
//! reported — the percentile as it reads in the quietest stretch of the
//! run. Measured on this box, ten runs of one binary: a median over chunks
//! spread 8–25 % on the wire metrics, the lowest chunk 2–7 %.
//!
//! Tail percentiles of the per-layer table come from [`tail_stat`] over the
//! whole sample: a tail is made of the disturbances the quiet chunk leaves
//! out, so it is reported, not gated.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// At most this many chunks per metric. The densest samples (a million
/// DIST blocks in a run) then give chunks of five to ten milliseconds, and
/// a busy host leaves gaps that short far more often than gaps of a
/// quarter of a second: with 60 chunks the L2-resident point query spread
/// 2.6 % between runs on a busy hour, with 1000 chunks 0.5 %.
pub const MAX_CHUNKS: usize = 1000;

/// How unlike each other the operations behind a sample are, which decides
/// how large a chunk must be. The lowest of many chunk values follows the
/// luckiest chunk, so a chunk must be large enough that luck — which
/// operations fell into it — is small against the host's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ops {
    /// Each sample is many operations (a block of 100 queries, a probe of
    /// 256 targets) or one whose cost hardly depends on its arguments (a
    /// wire round trip): a chunk holds 8 times the samples its percentile
    /// needs to be supported at all — 160 for a median.
    Alike,
    /// Each sample is one operation whose cost depends on its arguments: a
    /// single-edge batch costs 0.1 ms or 100 ms depending on the edge
    /// (standard deviation of the log ≈ 1.2 on all three graphs). A chunk
    /// holds 64 times what the percentile needs — 1280 for a median.
    /// Measured over ten seeds: the lowest of 160-sample chunks ranged over
    /// 0.29 / 0.12 / 0.19 of its median on the three in-process workloads,
    /// chunks this large (in effect the whole-run median) over 0.14 / 0.12
    /// / 0.12.
    Varied,
}

impl Ops {
    fn chunk_margin(self) -> usize {
        match self {
            Ops::Alike => 8,
            Ops::Varied => 64,
        }
    }
}

/// The percentiles the harness ever reports, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`]
/// samples beyond it (and, for the median, on each side).
pub fn supports(n: usize, p: f64) -> bool {
    let beyond = n as f64 * (1.0 - p / 100.0);
    beyond + 1e-9 >= MIN_BEYOND as f64
}

/// The highest percentile of the ladder that `n` samples support; the
/// median when even that is not supported (tiny samples still get a number,
/// flagged by [`Stat::pct`] differing from what was asked).
pub fn supported_tail(n: usize) -> f64 {
    LADDER.iter().rev().copied().find(|&p| supports(n, p)).unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Percentile of an unsorted sample (sorts a copy).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, p)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One reported timing: the value plus how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Lowest over `chunks` of the chunk-level `pct` percentile.
    pub value: f64,
    /// Samples that went in.
    pub n: usize,
    /// Chunks actually used (fewer than [`MAX_CHUNKS`] when the sample is
    /// too small for that many chunks of the required size; 1 = the whole
    /// sample).
    pub chunks: usize,
    /// Percentile actually used (lower than asked when even the whole
    /// sample does not support the asked one).
    pub pct: f64,
}

/// How many samples percentile `p` needs to be supported.
fn needed(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p / 100.0) - 1e-9).ceil() as usize
}

/// The `want` percentile in the quietest stretch of the run: the lowest
/// chunk-level percentile over up to [`MAX_CHUNKS`] equal consecutive
/// chunks, each as large as `ops` asks for. Samples must be in the order
/// they were taken. Small samples get fewer chunks, down to one (the plain
/// percentile), at the highest percentile the whole sample supports.
pub fn quiet_stat(samples: &[f64], want: f64, ops: Ops) -> Stat {
    let n = samples.len();
    assert!(n > 0, "no samples for a reported timing");
    let pct = if supports(n, want) { want } else { supported_tail(n).min(want) };
    let chunks = (n / (ops.chunk_margin() * needed(pct))).clamp(1, MAX_CHUNKS);
    let per = n / chunks;
    let value = (0..chunks)
        .map(|i| percentile(&samples[i * per..(i + 1) * per], pct))
        .fold(f64::INFINITY, f64::min);
    Stat { value, n, chunks, pct }
}

/// The `want` percentile of the whole sample, or the highest one the sample
/// supports when that is lower.
pub fn tail_stat(samples: &[f64], want: f64) -> Stat {
    let n = samples.len();
    assert!(n > 0, "no samples for a reported timing");
    let pct = if supports(n, want) { want } else { supported_tail(n).min(want) };
    Stat { value: percentile(samples, pct), n, chunks: 1, pct }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the acceptance rule's definition.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(250), 95.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(5), 50.0);
    }

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quiet_stat_reports_the_undisturbed_chunks() {
        // 12 000 samples; all but 600 in the middle run 1.4 times slower (a
        // busy neighbour for most of the run).
        let samples: Vec<f64> = (0..12_000)
            .map(|i| {
                let base = 100.0 + (i % 7) as f64;
                if (3400..4000).contains(&i) {
                    base
                } else {
                    base * 1.4
                }
            })
            .collect();
        // A median needs 20 samples, a chunk eight times that: 75 chunks of
        // 160, three of them wholly inside the quiet stretch.
        let p50 = quiet_stat(&samples, 50.0, Ops::Alike);
        assert_eq!((p50.chunks, p50.pct, p50.n), (75, 50.0, 12_000));
        assert_eq!(p50.value, 103.0);
        // p75 needs 40 samples: 37 chunks of 324, one of them quiet.
        let p75 = quiet_stat(&samples, 75.0, Ops::Alike);
        assert_eq!((p75.chunks, p75.pct), (37, 75.0));
        assert_eq!(p75.value, 105.0);
        // The median of the whole run reports the neighbour.
        assert!(percentile(&samples, 50.0) > 140.0);
        // However many samples, never more than MAX_CHUNKS chunks.
        let many: Vec<f64> = (0..400_000).map(|i| (i % 11) as f64).collect();
        assert_eq!(quiet_stat(&many, 50.0, Ops::Alike).chunks, MAX_CHUNKS);
        // Operations of varying cost get chunks eight times as large.
        assert_eq!(quiet_stat(&samples, 50.0, Ops::Varied).chunks, 9);
    }

    #[test]
    fn chunk_count_and_percentile_degrade_with_sample_size() {
        let s: Vec<f64> = (0..2400).map(f64::from).collect();
        // A median needs 20 samples, a chunk eight times that: 2400 make 15.
        let st = quiet_stat(&s, 50.0, Ops::Alike);
        assert_eq!((st.chunks, st.pct, st.value), (15, 50.0, 79.0));
        // 300 samples are one chunk of a median.
        let st = quiet_stat(&s[..300], 50.0, Ops::Alike);
        assert_eq!((st.chunks, st.pct, st.value), (1, 50.0, 149.0));
        // 30 samples cannot support p75 at all: one chunk at the median.
        let st = quiet_stat(&s[..30], 75.0, Ops::Alike);
        assert_eq!((st.chunks, st.pct), (1, 50.0));
        // Tails are taken over the whole sample, at what it supports.
        assert_eq!(tail_stat(&s, 99.0).pct, 99.0);
        let st = tail_stat(&s[..150], 95.0);
        assert_eq!((st.chunks, st.pct, st.value), (1, 90.0, 134.0));
        assert_eq!(needed(50.0), 20);
        assert_eq!(needed(75.0), 40);
        assert_eq!(needed(95.0), 200);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
