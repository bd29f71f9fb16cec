//! Small statistics helpers and the result line.

use server::json::ObjBuilder;

/// The `q`-quantile (`0..=1`) of `v` by nearest rank; `v` need not be
/// sorted. `NaN` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median by interpolation between the two middle values.
pub fn median(v: &[f64]) -> f64 {
    let q = quartiles(v);
    q[1]
}

/// `[q1, median, q3]` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them; needs two or more values.
/// A single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, o) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *o = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Throughput and latency of one stretch of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Cuts a timed phase into segments: the samples, ordered by completion,
/// in `min(16, n / 1000)` runs of equal count, so every segment's p99 has
/// at least ten samples beyond it. `samples` are `(completion time since
/// the phase started in s, latency in ms)`, kept as `f32` so the sample
/// buffer adds little to the measured process's peak RSS.
pub fn segments(samples: &mut [(f32, f32)]) -> Vec<Timed> {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = samples.len();
    let k = (n / 1000).clamp(1, 16);
    let mut prev_end = 0.0;
    (0..k)
        .map(|i| {
            let seg = &samples[i * n / k..(i + 1) * n / k];
            let end = seg.last().map_or(prev_end, |s| f64::from(s.0));
            let per_s = seg.len() as f64 / (end - prev_end).max(1e-9);
            prev_end = end;
            let lat: Vec<f64> = seg.iter().map(|s| f64::from(s.1)).collect();
            Timed { per_s, p50_ms: quantile(&lat, 0.50), p99_ms: quantile(&lat, 0.99) }
        })
        .collect()
}

/// A run's figures from its segments. Other tenants of a small host only
/// ever slow the program down, for seconds at a time, so each figure is
/// the decile on the fast side: the 90th percentile of the segments' rates
/// and the 10th percentile of their p50s and p99s — what the program does
/// in the stretches the host leaves it alone.
pub fn fast_decile(segs: &[Timed]) -> Timed {
    let of = |f: fn(&Timed) -> f64, q| quantile(&segs.iter().map(f).collect::<Vec<_>>(), q);
    Timed {
        per_s: of(|t| t.per_s, 0.9),
        p50_ms: of(|t| t.p50_ms, 0.1),
        p99_ms: of(|t| t.p99_ms, 0.1),
    }
}

/// One run's metrics, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn render(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut m = ObjBuilder::new();
        for (name, value, unit) in &self.entries {
            m = m.raw(name, ObjBuilder::new().raw("value", num(*value)).str("unit", unit).build());
        }
        ObjBuilder::new()
            .bool("correct", correct)
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", m.build())
            .build()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (not representable in JSON) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
    }
}
