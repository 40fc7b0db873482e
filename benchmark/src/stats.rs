//! Timing statistics. Every gated timing is `best3`: the arithmetic mean of
//! the three fastest passes. The reference box has multi-second interference
//! bursts that inflate a whole window's median by ~1.6x while its fastest
//! passes stay put (see README.md), so the median is reported beside `best3`
//! but never gated.

/// Distribution of one timing over the passes of a run, in the unit of the
/// samples. `best3` is the gated statistic; the rest makes a disturbed run
/// visible.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub best3: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// # Panics
    /// Panics on an empty sample set or a non-finite sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let k = v.len().min(3);
        Summary {
            n: v.len(),
            best3: v[..k].iter().sum::<f64>() / k as f64,
            min: v[0],
            p25: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            p75: quantile(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// `median / best3`: ~1 on a quiet run, well above it on a disturbed one.
    pub fn noise_x(&self) -> f64 {
        self.median / self.best3
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"best3\": {}, \"min\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}, \"max\": {}}}",
            self.n, self.best3, self.min, self.p25, self.median, self.p75, self.max
        )
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Translation-invariant digest of a sorted racy-word set: its size and the
/// FNV of the words relative to the smallest one. Suite kernels run on real
/// heap buffers, so absolute words differ from run to run while the offsets
/// inside the one racy buffer do not.
pub fn racy_digest(sorted_words: &[u64]) -> (u64, u64) {
    let base = sorted_words.first().copied().unwrap_or(0);
    let bytes: Vec<u8> = sorted_words
        .iter()
        .flat_map(|w| (w - base).to_le_bytes())
        .collect();
    (sorted_words.len() as u64, stint::ctrace::fnv1a(&bytes))
}
