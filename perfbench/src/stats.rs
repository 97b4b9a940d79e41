//! Order statistics over repeats, and process memory.

/// Median and quartiles of a set of samples, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Dist {
    /// Quartiles by the "exclusive" method (what Python's
    /// `statistics.quantiles(values, n=4)` computes); for fewer than two
    /// samples every quartile is the one value.
    pub fn of(values: &[f64]) -> Dist {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Dist {
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n,
            },
            1 => Dist {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            },
            _ => {
                let q = |p: f64| {
                    let pos = p * (n as f64 + 1.0);
                    let j = (pos.floor() as usize).clamp(1, n - 1);
                    let delta = pos - j as f64;
                    v[j - 1] + (v[j] - v[j - 1]) * delta
                };
                Dist {
                    median: q(0.5),
                    q1: q(0.25),
                    q3: q(0.75),
                    n,
                }
            }
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!((d.q1, d.median, d.q3, d.n), (2.75, 5.5, 8.25, 10));
        let d = Dist::of(&[3.0, 1.0, 2.0]);
        assert_eq!((d.q1, d.median, d.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 90.0), 7.0);
    }
}
