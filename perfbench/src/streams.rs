//! Seeded request streams. The benchmark derives every input from the
//! `--seed` argument through these generators, so one seed always gives
//! the same requests in the same order.

/// One request as a client sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A point prediction `(user, item)`.
    Predict { user: u32, item: u32 },
    /// A top-[`TOP_N`] recommendation over the whole item space.
    TopN { user: u32 },
}

/// List length of every recommendation request.
pub const TOP_N: u32 = 10;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two streams
    /// cut from one seed do not repeat each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf-distributed ids: rank `r` (1-based) is drawn with weight
/// `r^-s`, and ranks map to ids through a seeded permutation so the
/// popular ids are scattered over the id space.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    /// A Zipf law with exponent `s` over `n` ids.
    pub fn new(n: u32, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += f64::from(r).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut ids: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut ids);
        Self { cdf, ids }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1);
        self.ids[rank]
    }
}

/// Exponent of the user and item popularity laws (the synthetic data
/// generator's own item-popularity exponent).
pub const ZIPF_S: f64 = 0.8;

/// How a workload mixes its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf users and items; every `topn_every`-th request is a top-N
    /// (`0` = predictions only).
    Point { topn_every: usize },
    /// Top-N only, for uniformly drawn users.
    UniformTopN,
}

/// The request stream of one client: `len` requests over a
/// `users × items` model, determined by `(seed, stream)`.
pub fn stream(seed: u64, stream: u64, users: u32, items: u32, mix: Mix, len: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, stream);
    match mix {
        Mix::Point { topn_every } => {
            let user_law = Zipf::new(users, ZIPF_S, &mut rng);
            let item_law = Zipf::new(items, ZIPF_S, &mut rng);
            (0..len)
                .map(|k| {
                    let user = user_law.sample(&mut rng);
                    if topn_every > 0 && k % topn_every == topn_every - 1 {
                        Req::TopN { user }
                    } else {
                        Req::Predict {
                            user,
                            item: item_law.sample(&mut rng),
                        }
                    }
                })
                .collect()
        }
        Mix::UniformTopN => (0..len)
            .map(|_| Req::TopN {
                user: rng.below(users),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let mix = Mix::Point { topn_every: 64 };
        let a = stream(7, 1, 500, 1000, mix, 4096);
        assert_eq!(a, stream(7, 1, 500, 1000, mix, 4096));
        assert_ne!(a, stream(8, 1, 500, 1000, mix, 4096));
        assert_ne!(a, stream(7, 2, 500, 1000, mix, 4096));
        let t = stream(7, 1, 6000, 3000, Mix::UniformTopN, 512);
        assert_eq!(t, stream(7, 1, 6000, 3000, Mix::UniformTopN, 512));
        assert_ne!(t, stream(9, 1, 6000, 3000, Mix::UniformTopN, 512));
    }

    #[test]
    fn point_mix_has_one_top_n_in_sixty_four_and_stays_in_range() {
        let s = stream(3, 0, 500, 1000, Mix::Point { topn_every: 64 }, 64 * 100);
        let topn = s.iter().filter(|r| matches!(r, Req::TopN { .. })).count();
        assert_eq!(topn, 100);
        for r in &s {
            match *r {
                Req::Predict { user, item } => assert!(user < 500 && item < 1000),
                Req::TopN { user } => assert!(user < 500),
            }
        }
    }

    #[test]
    fn zipf_skews_toward_few_ids() {
        let mut rng = Rng::new(11, 0);
        let law = Zipf::new(500, ZIPF_S, &mut rng);
        let mut hits = vec![0u32; 500];
        for _ in 0..50_000 {
            hits[law.sample(&mut rng) as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top_tenth: u32 = hits[..50].iter().sum();
        // Uniform would give 10%; s = 0.8 over 500 ids gives about 40%.
        assert!(top_tenth > 15_000, "top 10% of ids drew {top_tenth}");
        assert!(hits.iter().all(|&h| h < 50_000));
    }

    #[test]
    fn uniform_draws_cover_the_range() {
        let mut rng = Rng::new(5, 0);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            seen[rng.below(100) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
