//! Reference computations written apart from the program under test:
//! a seeded RNG, skew-normal / LVF² / Gaussian samplers, the skew-normal
//! log-density, the Gaussian log-likelihood floor, Monte-Carlo circuit
//! propagation, σ-bin counting and the percentile/quartile helpers.
//!
//! Nothing here calls into the `lvf2` crates' statistics, so a fault in
//! the program cannot also hide in its own reference.

use std::f64::consts::{LN_2, PI, SQRT_2};

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    spare: Option<f64>,
}

/// One SplitMix64 mixing step of `x` (also used to derive sub-seeds).
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed of `seed` for the stream named by `parts`.
pub fn derive(seed: u64, parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(mix64(seed ^ 0x5EED), |h, &p| mix64(h ^ mix64(p)))
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed,
            spare: None,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state.wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform in the open interval (0, 1).
    pub fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box–Muller, both values used).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let r = (-2.0 * self.uniform().ln()).sqrt();
        let (s, c) = (2.0 * PI * self.uniform()).sin_cos();
        self.spare = Some(r * s);
        r * c
    }
}

/// A skew-normal SN(ξ, ω, α) in its direct parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sn {
    /// Location ξ.
    pub xi: f64,
    /// Scale ω > 0.
    pub omega: f64,
    /// Shape α.
    pub alpha: f64,
}

impl Sn {
    fn delta(&self) -> f64 {
        self.alpha / (1.0 + self.alpha * self.alpha).sqrt()
    }

    /// Draws one value (Azzalini's stochastic representation).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let d = self.delta();
        let (u0, u1) = (rng.normal(), rng.normal());
        self.xi + self.omega * (d * u0.abs() + (1.0 - d * d).sqrt() * u1)
    }

    /// Closed-form (mean, variance, third central moment).
    #[cfg(test)]
    pub fn moments(&self) -> (f64, f64, f64) {
        let b = self.delta() * std::f64::consts::FRAC_2_PI.sqrt();
        let mean = self.xi + self.omega * b;
        let var = self.omega * self.omega * (1.0 - b * b);
        let m3 = (4.0 - PI) / 2.0 * (self.omega * b).powi(3);
        (mean, var, m3)
    }

    /// Log-density.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.xi) / self.omega;
        LN_2 - 0.5 * (2.0 * PI).ln() - self.omega.ln() - 0.5 * z * z + ln_norm_cdf(self.alpha * z)
    }
}

/// An edge-delay distribution the reference samplers draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefDist {
    /// N(μ, σ).
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// The LVF² mixture `(1 − λ)·SN₁ + λ·SN₂`.
    Lvf2 {
        /// Weight of the second component.
        lambda: f64,
        /// First component.
        a: Sn,
        /// Second component.
        b: Sn,
    },
}

impl RefDist {
    /// Draws one value.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            RefDist::Normal { mu, sd } => mu + sd * rng.normal(),
            RefDist::Lvf2 { lambda, a, b } => {
                if rng.uniform() < *lambda {
                    b.sample(rng)
                } else {
                    a.sample(rng)
                }
            }
        }
    }

    /// Closed-form (mean, variance, third central moment).
    #[cfg(test)]
    pub fn moments(&self) -> (f64, f64, f64) {
        match self {
            RefDist::Normal { mu, sd } => (*mu, sd * sd, 0.0),
            RefDist::Lvf2 { lambda, a, b } => {
                let parts = [(1.0 - lambda, a.moments()), (*lambda, b.moments())];
                let mean: f64 = parts.iter().map(|(w, m)| w * m.0).sum();
                let (mut var, mut m3) = (0.0, 0.0);
                for (w, (m, v, t)) in parts {
                    let d = m - mean;
                    var += w * (v + d * d);
                    m3 += w * (t + 3.0 * d * v + d * d * d);
                }
                (mean, var, m3)
            }
        }
    }

    /// Total log-likelihood of `xs` under this distribution.
    pub fn log_likelihood(&self, xs: &[f64]) -> f64 {
        match self {
            RefDist::Normal { mu, sd } => xs
                .iter()
                .map(|x| {
                    let z = (x - mu) / sd;
                    -0.5 * (2.0 * PI).ln() - sd.ln() - 0.5 * z * z
                })
                .sum(),
            RefDist::Lvf2 { lambda, a, b } => xs
                .iter()
                .map(|&x| {
                    let la = (1.0 - lambda).ln() + a.ln_pdf(x);
                    if *lambda <= 0.0 {
                        return la;
                    }
                    let lb = lambda.ln() + b.ln_pdf(x);
                    let hi = la.max(lb);
                    hi + ((la - hi).exp() + (lb - hi).exp()).ln()
                })
                .sum(),
        }
    }
}

/// Complementary error function (Numerical Recipes `erfcc`): fractional
/// error below 1.2e-7 everywhere, including far tails.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Standard normal CDF Φ(x).
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// ln Φ(x), accurate deep into the lower tail (asymptotic series below
/// x = −30, where Φ underflows in the direct form).
pub fn ln_norm_cdf(x: f64) -> f64 {
    if x > -30.0 {
        norm_cdf(x).ln()
    } else {
        ln_norm_cdf_tail(x)
    }
}

/// The lower-tail asymptotic series of ln Φ(x), for x ≪ 0.
fn ln_norm_cdf_tail(x: f64) -> f64 {
    let x2 = x * x;
    -0.5 * x2 - (-x).ln() - 0.5 * (2.0 * PI).ln() + (1.0 - 1.0 / x2 + 3.0 / (x2 * x2)).ln()
}

/// Standard normal density φ(x).
#[cfg(test)]
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Log-likelihood of `xs` under the moment-matched (maximum-likelihood)
/// Gaussian: `−n/2 · (ln 2πσ̂² + 1)` with `σ̂² = Σ(x − x̄)²/n`. The
/// Gaussian is an LVF² (λ = 0, α = 0), so an LVF² maximum-likelihood fit
/// must not score below it.
pub fn gaussian_floor_ll(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    -0.5 * n * ((2.0 * PI * var).ln() + 1.0)
}

/// Mean and (population) standard deviation.
pub fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The paper's seven σ-bin boundaries μ + kσ, k = −3..=3.
pub fn sigma_boundaries(mean: f64, sd: f64) -> [f64; 7] {
    let mut b = [0.0; 7];
    for (k, v) in b.iter_mut().enumerate() {
        *v = mean + (k as f64 - 3.0) * sd;
    }
    b
}

/// Empirical probabilities of the eight bins cut by `bounds` (a value equal
/// to a boundary falls in the bin above it).
pub fn bin_counts(xs: &[f64], bounds: &[f64; 7]) -> [f64; 8] {
    let mut c = [0.0; 8];
    for &x in xs {
        c[bounds.iter().filter(|&&b| b <= x).count()] += 1.0;
    }
    let n = xs.len() as f64;
    c.map(|v| v / n)
}

/// Bin probabilities of a model from its CDF at the boundaries.
pub fn bin_probs_from_cdf(cdf: impl Fn(f64) -> f64, bounds: &[f64; 7]) -> [f64; 8] {
    let mut p = [0.0; 8];
    let mut prev = 0.0;
    for (k, &b) in bounds.iter().enumerate() {
        let c = cdf(b);
        p[k] = c - prev;
        prev = c;
    }
    p[7] = 1.0 - prev;
    p
}

/// Accuracy of a model against a reference sample: mean absolute error of
/// the eight σ-bin probabilities (bins cut at the reference's μ ± kσ) and
/// the absolute error of `P(delay ≤ μ + 3σ)`.
pub fn accuracy(model_cdf: impl Fn(f64) -> f64, reference: &[f64]) -> (f64, f64) {
    let (mean, sd) = mean_sd(reference);
    let bounds = sigma_boundaries(mean, sd);
    let pr = bin_counts(reference, &bounds);
    let pm = bin_probs_from_cdf(&model_cdf, &bounds);
    let bin_err = pr.iter().zip(&pm).map(|(a, b)| (a - b).abs()).sum::<f64>() / 8.0;
    let t3 = mean + 3.0 * sd;
    let f_ref = reference.iter().filter(|&&x| x <= t3).count() as f64 / reference.len() as f64;
    (bin_err, (model_cdf(t3) - f_ref).abs())
}

/// A gate-level circuit for Monte-Carlo propagation: primary inputs hang
/// off a virtual source through `source[i]`; gate `g` drives node
/// `n_inputs + g` from its `(fan-in node, pin delay)` list.
#[derive(Debug, Clone)]
pub struct RefCircuit {
    /// Delay from the virtual source to each primary input.
    pub source: Vec<RefDist>,
    /// Per gate, in topological order: `(fan-in node, delay)` per pin.
    pub gates: Vec<Vec<(u32, RefDist)>>,
    /// Timing endpoints.
    pub outputs: Vec<u32>,
}

impl RefCircuit {
    /// `n` Monte-Carlo samples of the circuit delay: every edge drawn
    /// independently, `+` along edges, `max` at every merge and over the
    /// endpoints.
    pub fn sample_delays(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        let pis = self.source.len();
        let mut arr = vec![0.0; pis + self.gates.len()];
        (0..n)
            .map(|_| {
                for (a, d) in arr.iter_mut().zip(&self.source) {
                    *a = d.sample(&mut rng);
                }
                for (g, pins) in self.gates.iter().enumerate() {
                    let mut t = f64::NEG_INFINITY;
                    for (src, d) in pins {
                        t = t.max(arr[*src as usize] + d.sample(&mut rng));
                    }
                    arr[pis + g] = t;
                }
                self.outputs
                    .iter()
                    .map(|&o| arr[o as usize])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }
}

/// Nearest-rank percentile `q` of `values`, under the ten-beyond rule: at
/// least ten values must lie above the returned rank, so a single outlier
/// cannot move it.
///
/// # Errors
///
/// When fewer than ten values lie beyond the rank.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return Err(format!(
            "p{:.0} of {n} values leaves {} beyond it; need 10",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, o) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *o = (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_moments(xs: &[f64]) -> (f64, f64, f64) {
        let (m, sd) = mean_sd(xs);
        let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / xs.len() as f64;
        (m, sd, m3 / sd.powi(3))
    }

    #[test]
    fn skew_normal_sampler_matches_closed_form() {
        let sn = Sn {
            xi: 0.1,
            omega: 0.02,
            alpha: 4.0,
        };
        let (m, v, t) = sn.moments();
        let mut rng = Rng::new(7);
        let xs: Vec<f64> = (0..400_000).map(|_| sn.sample(&mut rng)).collect();
        let (sm, ssd, sskew) = sample_moments(&xs);
        let sd = v.sqrt();
        assert!((sm - m).abs() < 0.01 * sd, "mean {sm} vs {m}");
        assert!((ssd / sd - 1.0).abs() < 0.01, "sd {ssd} vs {sd}");
        let skew = t / sd.powi(3);
        assert!((sskew - skew).abs() < 0.03, "skew {sskew} vs {skew}");
        // The closed form itself: α = 4 gives skewness ≈ 0.784.
        assert!((skew - 0.7844).abs() < 1e-3, "closed-form skew {skew}");
    }

    #[test]
    fn lvf2_sampler_matches_mixture_moments() {
        let d = RefDist::Lvf2 {
            lambda: 0.35,
            a: Sn {
                xi: 1.0,
                omega: 0.05,
                alpha: 2.0,
            },
            b: Sn {
                xi: 1.3,
                omega: 0.08,
                alpha: -3.0,
            },
        };
        let (m, v, t) = d.moments();
        let mut rng = Rng::new(11);
        let xs: Vec<f64> = (0..400_000).map(|_| d.sample(&mut rng)).collect();
        let (sm, ssd, sskew) = sample_moments(&xs);
        let sd = v.sqrt();
        assert!((sm - m).abs() < 0.01 * sd);
        assert!((ssd / sd - 1.0).abs() < 0.01);
        assert!((sskew - t / sd.powi(3)).abs() < 0.03);
    }

    #[test]
    fn propagation_sums_a_gaussian_chain_exactly() {
        // source → PI → g0 → g1 → g2: the delay is the sum of four
        // independent Gaussians.
        let d = |mu: f64, sd: f64| RefDist::Normal { mu, sd };
        let c = RefCircuit {
            source: vec![d(0.5, 0.03)],
            gates: vec![
                vec![(0, d(1.0, 0.1))],
                vec![(1, d(2.0, 0.2))],
                vec![(2, d(0.5, 0.05))],
            ],
            outputs: vec![3],
        };
        let xs = c.sample_delays(200_000, 3);
        let (m, sd) = mean_sd(&xs);
        let exact_sd = (0.03f64.powi(2) + 0.01 + 0.04 + 0.0025).sqrt();
        assert!((m - 4.0).abs() < 0.005 * exact_sd * 4.0);
        assert!((sd / exact_sd - 1.0).abs() < 0.01);
    }

    #[test]
    fn propagation_max_matches_clark_exact_moments() {
        let (m1, s1, m2, s2) = (1.0, 0.2, 1.1, 0.1);
        let d = |mu: f64, sd: f64| RefDist::Normal { mu, sd };
        // Two PIs, one 2-input gate with zero-ish pin delays: max(X, Y).
        let c = RefCircuit {
            source: vec![d(m1, s1), d(m2, s2)],
            gates: vec![vec![(0, d(0.0, 1e-12)), (1, d(0.0, 1e-12))]],
            outputs: vec![2],
        };
        let xs = c.sample_delays(400_000, 5);
        let theta = (s1 * s1 + s2 * s2).sqrt();
        let beta = (m1 - m2) / theta;
        let e1 = m1 * norm_cdf(beta) + m2 * norm_cdf(-beta) + theta * norm_pdf(beta);
        let e2 = (m1 * m1 + s1 * s1) * norm_cdf(beta)
            + (m2 * m2 + s2 * s2) * norm_cdf(-beta)
            + (m1 + m2) * theta * norm_pdf(beta);
        let sd = (e2 - e1 * e1).sqrt();
        let (sm, ssd) = mean_sd(&xs);
        assert!((sm - e1).abs() < 0.005 * sd, "mean {sm} vs Clark {e1}");
        assert!((ssd / sd - 1.0).abs() < 0.01, "sd {ssd} vs Clark {sd}");
    }

    #[test]
    fn gaussian_floor_is_the_mle_gaussian_log_likelihood() {
        let mut rng = Rng::new(1);
        let xs: Vec<f64> = (0..5000).map(|_| 0.2 + 0.01 * rng.normal()).collect();
        let (m, sd) = mean_sd(&xs);
        let direct = RefDist::Normal { mu: m, sd }.log_likelihood(&xs);
        let floor = gaussian_floor_ll(&xs);
        assert!((direct - floor).abs() < 1e-9 * floor.abs());
        // The same Gaussian as an LVF² (λ = 0, α = 0) scores the same.
        let as_lvf2 = RefDist::Lvf2 {
            lambda: 0.0,
            a: Sn {
                xi: m,
                omega: sd,
                alpha: 0.0,
            },
            b: Sn {
                xi: m,
                omega: sd,
                alpha: 0.0,
            },
        };
        assert!((as_lvf2.log_likelihood(&xs) - floor).abs() < 1e-6 * floor.abs());
        // Any other Gaussian scores lower.
        let off = RefDist::Normal {
            mu: m + 0.2 * sd,
            sd,
        };
        assert!(off.log_likelihood(&xs) < floor);
    }

    #[test]
    fn log_cdf_is_continuous_into_the_far_tail() {
        // Where both forms are valid they agree, so the switch at −30 is
        // seamless.
        for x in [-12.0, -20.0, -29.0] {
            let (direct, tail) = (norm_cdf(x).ln(), ln_norm_cdf_tail(x));
            assert!((direct - tail).abs() < 1e-5, "{x}: {direct} vs {tail}");
        }
        assert!((norm_cdf(1.959_964) - 0.975).abs() < 1e-6);
        assert!(ln_norm_cdf(-2000.0).is_finite());
    }

    #[test]
    fn percentile_follows_the_ten_beyond_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert!(
            percentile(&v[..99], 0.9).is_err(),
            "99 values leave 9 beyond p90"
        );
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bins_count_each_sample_once() {
        let xs: Vec<f64> = (0..1000).map(|i| f64::from(i) / 1000.0).collect();
        let p = bin_counts(&xs, &sigma_boundaries(0.5, 0.1));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] - 0.2).abs() < 1e-12 && (p[7] - 0.2).abs() < 1e-12);
    }
}
