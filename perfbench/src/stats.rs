//! Order statistics of measured samples.

/// The percentiles `op_tail_ms` may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile among `n` samples,
/// in exact integer arithmetic (`p` has at most one decimal).
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The `p`-th percentile (`0..=100`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or
/// below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// position (the samples "beyond" it).
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The percentile `op_tail_ms` reports for each workload. On `plan`
/// (about 800 ops in 30 s on a 2-core box) and `serve` (about 6,000) it
/// is the highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. On `whatif` (about 1,600 ops) it is p95, not p99:
/// the two dense enterprise candidates are 1.4% of its ops, so p99
/// would sit on the step between them. It is fixed so that every run of
/// a workload reports the same percentile; a run too short for it falls
/// back to [`tail_percentile`].
pub fn workload_tail(workload: &str) -> f64 {
    match workload {
        "serve" => 99.0,
        _ => 95.0,
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Latency summary of one class of operations, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported, per [`tail_percentile`].
    pub tail_percentile: f64,
    /// Value at `tail_percentile`.
    pub tail: f64,
}

/// Summarises latencies with the tail at `tail_p`, or lower when fewer
/// than [`TAIL_MIN_BEYOND`] samples lie beyond it; `None` when even the
/// median has fewer.
pub fn summarize(samples_ms: &[f64], tail_p: f64) -> Option<Latency> {
    let p = tail_percentile(samples_ms.len())?.min(tail_p);
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Latency {
        count: sorted.len(),
        p50: median(&sorted),
        tail_percentile: p,
        tail: percentile(&sorted, p),
    })
}
