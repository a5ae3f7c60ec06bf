//! Order statistics, and the seeded streams the workloads draw from.

pub use lio_testkit::Rng;

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation between the
/// closest ranks (the definition NumPy uses by default). `NaN` when
/// `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q` quantile within each batch of `batch` consecutive samples,
/// then the median over the batches (the whole stream stands in for one
/// batch when it holds less than one).
///
/// Load from outside the process slows whole stretches of a run; the
/// median over batches holds as long as under half of them were slowed,
/// while anything the program does in most batches moves it.
pub fn batched_quantile(xs: &[f64], batch: usize, q: f64) -> f64 {
    let batch = batch.max(1);
    if xs.len() < batch {
        return quantile(xs, q);
    }
    let per: Vec<f64> = xs.chunks_exact(batch).map(|c| quantile(c, q)).collect();
    median(&per)
}

/// Throughput in MB/s (10^6 bytes): per batch of `batch` consecutive
/// ops, the bytes moved over the batch's summed op time, so that every
/// slow op in it counts; then the median over batches.
pub fn batched_mbps(op_ns: &[u64], bytes_per_op: u64, batch: usize) -> f64 {
    let batch = batch.clamp(1, op_ns.len().max(1));
    let rates: Vec<f64> = op_ns
        .chunks_exact(batch)
        .map(|c| {
            let ns: u64 = c.iter().sum();
            (bytes_per_op * c.len() as u64) as f64 / (ns as f64 / 1e9) / 1e6
        })
        .collect();
    median(&rates)
}

/// The generator for stream `stream` of `seed`: distinct streams of one
/// seed are decorrelated by a splitmix64 step before seeding.
pub fn rng(seed: u64, stream: u64) -> Rng {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Rng::new(z ^ (z >> 31))
}

/// Fill `buf` with the generator's output.
pub fn fill(rng: &mut Rng, buf: &mut [u8]) {
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = rng.next_u64().to_le_bytes();
    let n = tail.len();
    tail.copy_from_slice(&last[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn batched_mbps_counts_every_slow_op() {
        let mut ns = vec![1_000_000u64; 400];
        // one op in 50 takes 11 ms: every 100-op batch holds two of them
        for i in (25..400).step_by(50) {
            ns[i] = 11_000_000;
        }
        // 1 MB per op: 100 MB in 120 ms per batch
        let want = 100.0 / 0.12;
        assert!((batched_mbps(&ns, 1_000_000, 100) - want).abs() < 1e-9);
    }

    #[test]
    fn batched_quantile_takes_the_median_batch() {
        let mut xs: Vec<f64> = (0..500).map(|i| (i % 10) as f64).collect();
        // a slowed stretch of one batch in five leaves the median alone
        for x in &mut xs[..100] {
            *x += 50.0;
        }
        assert_eq!(batched_quantile(&xs, 100, 0.5), 4.5);
        // a slowdown in most batches moves it
        for x in &mut xs[..300] {
            *x += 50.0;
        }
        assert_eq!(batched_quantile(&xs, 100, 0.5), 54.5);
        assert_eq!(
            batched_quantile(&xs[..10], 100, 0.5),
            quantile(&xs[..10], 0.5)
        );
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| rng(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(rng(7, 1).next_u64(), rng(7, 2).next_u64());
        assert_ne!(rng(7, 1).next_u64(), rng(8, 1).next_u64());
    }
}
