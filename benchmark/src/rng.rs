//! Seeded input generation. The program under test never sees the
//! seed: it receives only the streams drawn here, and every stream is
//! a pure function of (`--seed`, workload, stream index).

/// splitmix64: small, fast, and good enough to draw request streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for stream `index` of workload `tag`
    /// under run seed `seed` (slices and workers each get their own).
    pub fn for_stream(seed: u64, tag: &str, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x7c3a_5eed_b41c_0de5);
        for b in tag.bytes() {
            r.0 = r.next_u64() ^ b as u64;
        }
        r.0 = r.next_u64() ^ index;
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `k` distinct values of `0..n`, ascending (`k <= n`).
    pub fn subset(&mut self, n: u32, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((all.len() - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` is drawn with
/// weight `1 / (r + 1)^s`. Inverse-CDF over a precomputed table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|c| *c <= u) as u32).min(self.cdf.len() as u32 - 1)
    }

    /// `len` draws.
    pub fn stream(&self, rng: &mut Rng, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let z = Zipf::new(40, 1.1);
        let a = z.stream(&mut Rng::for_stream(7, "serve_hot", 3), 4096);
        let b = z.stream(&mut Rng::for_stream(7, "serve_hot", 3), 4096);
        assert_eq!(a, b, "same seed, same stream");
        let other_seed = z.stream(&mut Rng::for_stream(8, "serve_hot", 3), 4096);
        let other_index = z.stream(&mut Rng::for_stream(7, "serve_hot", 4), 4096);
        let other_tag = z.stream(&mut Rng::for_stream(7, "serve_churn", 3), 4096);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_index);
        assert_ne!(a, other_tag);
        assert!(a.iter().all(|r| *r < 40));
    }

    #[test]
    fn zipf_is_skewed_and_flat_exponent_is_near_uniform() {
        let mut rng = Rng::for_stream(1, "test", 0);
        let hot = Zipf::new(40, 1.1).stream(&mut rng, 40_000);
        let first = hot.iter().filter(|r| **r == 0).count();
        assert!(first > 3 * 40_000 / 40, "rank 0 far above a uniform share");
        let flat = Zipf::new(320, 0.0).stream(&mut rng, 64_000);
        let first = flat.iter().filter(|r| **r == 0).count();
        assert!((100..300).contains(&first), "s = 0 is uniform: {first}");
    }

    #[test]
    fn subset_is_distinct_sorted_and_seeded() {
        let a = Rng::for_stream(5, "warm_restart", 0).subset(320, 64);
        let b = Rng::for_stream(5, "warm_restart", 0).subset(320, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|c| *c < 320));
        assert_ne!(a, Rng::for_stream(6, "warm_restart", 0).subset(320, 64));
    }
}
