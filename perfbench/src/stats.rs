//! Order statistics, timing and memory probes shared by every workload.

use std::time::Instant;

/// Seconds elapsed since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// How long each of a run's two bursts of set-up repetitions takes, at
/// least: a single set-up can last 0.1 ms, and a median over that many
/// short timings is steadier than a few of them. One burst runs before
/// the timed region and one after it, so the median spans the whole run
/// rather than one moment of a host whose speed drifts.
pub(crate) const SETUP_MIN_S: f64 = 0.5;

/// Run set-up `f` at least three times and until [`SETUP_MIN_S`] has
/// passed; returns each repetition's duration and the last result.
pub(crate) fn repeat_setup<R>(mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let r = f();
        times.push(secs(t));
        if times.len() >= 3 && secs(t0) >= SETUP_MIN_S {
            return (times, r);
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks; `NaN` for an empty sample.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
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

/// The median of `xs`.
pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The geometric mean of positive `xs`; `NaN` for an empty sample.
pub(crate) fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` does not report it.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset the peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what ran after this call. A no-op where
/// the kernel refuses.
pub(crate) fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// SplitMix64 of `seed` and `salt`: the storm's per-exec seed derivation,
/// also used for every input the benchmark draws itself (instance seeds,
/// edge picks).
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
