//! Spearman's rank correlation coefficient ρ with a t-approximation
//! p-value.


/// Result of a Spearman correlation test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpearmanResult {
    /// The rank correlation coefficient, in [-1, 1].
    pub rho: f64,
    /// Two-sided p-value under the t-distribution approximation.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

/// Mid-ranks of a sample (ties share the average of their positions, the
/// standard treatment for Spearman with tied data such as view counts).
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut result = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j share the mid-rank.
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for &index in &order[i..=j] {
            result[index] = mid;
        }
        i = j + 1;
    }
    result
}

/// Pearson correlation of two equally long samples.
fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Spearman's ρ: Pearson correlation of the mid-ranks, with the two-sided
/// p-value from `t = ρ·sqrt((n−2)/(1−ρ²))` against Student's t with n−2
/// degrees of freedom.
///
/// Returns `None` for samples shorter than 3 or of unequal length.
pub fn spearman(x: &[f64], y: &[f64]) -> Option<SpearmanResult> {
    static CALLS: telemetry::Counter = telemetry::Counter::new("stats.spearman.calls");
    CALLS.incr();
    if x.len() != y.len() || x.len() < 3 {
        return None;
    }
    let rho = pearson(&ranks(x), &ranks(y));
    let n = x.len();
    let p_value = if rho.abs() >= 1.0 {
        0.0
    } else {
        let df = (n - 2) as f64;
        let t = rho * (df / (1.0 - rho * rho)).sqrt();
        2.0 * student_t_sf(t.abs(), df)
    };
    Some(SpearmanResult { rho, p_value, n })
}

/// Survival function of Student's t-distribution, via the regularized
/// incomplete beta function: `P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2`.
fn student_t_sf(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    0.5 * incomplete_beta(df / 2.0, 0.5, x)
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction expansion (Numerical Recipes' `betacf`).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_beta = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let front = (ln_beta + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of ln Γ(x).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 7] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
        2.5066282746310005,
    ];
    let mut ser = 1.000000000190015;
    let mut y = x;
    for (i, g) in G.iter().take(6).enumerate() {
        y += 1.0;
        ser += g / y;
        let _ = i;
    }
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    -tmp + (G[6] * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_with_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn perfect_monotonic_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0]; // nonlinear but monotone
        let r = spearman(&x, &y).unwrap();
        assert!((r.rho - 1.0).abs() < 1e-12);
        assert!(r.p_value < 0.05);
    }

    #[test]
    fn perfect_inverse_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        let r = spearman(&x, &y).unwrap();
        assert!((r.rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_data_has_small_rho_and_large_p() {
        // Deterministic pseudo-random but uncorrelated sequences.
        let x: Vec<f64> = (0..200).map(|i| ((i * 73 + 11) % 199) as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 151 + 7) % 211) as f64).collect();
        let r = spearman(&x, &y).unwrap();
        assert!(r.rho.abs() < 0.2, "rho = {}", r.rho);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn known_value_against_scipy() {
        // scipy.stats.spearmanr([1,2,3,4,5], [5,6,7,8,7]) = (0.8207826816681233, 0.08858700531354381)
        let r = spearman(&[1.0, 2.0, 3.0, 4.0, 5.0], &[5.0, 6.0, 7.0, 8.0, 7.0]).unwrap();
        assert!((r.rho - 0.8207826816681233).abs() < 1e-9, "rho = {}", r.rho);
        assert!((r.p_value - 0.08858700531354381).abs() < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(spearman(&[1.0, 2.0], &[1.0, 2.0]).is_none());
        assert!(spearman(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn constant_series_yields_zero() {
        let r = spearman(&[1.0, 1.0, 1.0, 1.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(r.rho, 0.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(5) = 24 → ln = 3.178...
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }
}

/// Permutation-test p-value for Spearman's ρ: the fraction of `rounds`
/// random reshuffles of `y` whose |ρ| meets or exceeds the observed |ρ|.
/// Used as a distribution-free cross-check of the t-approximation.
pub fn spearman_permutation_p(
    x: &[f64],
    y: &[f64],
    rounds: usize,
    seed: u64,
) -> Option<f64> {
    let observed = spearman(x, y)?.rho.abs();
    // Deterministic xorshift permutation source (no rand dependency here).
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut shuffled = y.to_vec();
    let mut hits = 0usize;
    for _ in 0..rounds {
        // Fisher-Yates with the xorshift stream.
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        if let Some(result) = spearman(x, &shuffled) {
            if result.rho.abs() >= observed - 1e-12 {
                hits += 1;
            }
        }
    }
    Some((hits as f64 + 1.0) / (rounds as f64 + 1.0))
}

#[cfg(test)]
mod permutation_tests {
    use super::*;

    #[test]
    fn permutation_p_agrees_with_t_approximation() {
        // A clearly correlated sample: both p-values must be small.
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + ((v * 7.0) % 13.0)).collect();
        let t_p = spearman(&x, &y).unwrap().p_value;
        let perm_p = spearman_permutation_p(&x, &y, 400, 42).unwrap();
        assert!(t_p < 0.01, "t-approx p = {t_p}");
        assert!(perm_p < 0.02, "permutation p = {perm_p}");
    }

    #[test]
    fn permutation_p_is_large_for_noise() {
        let x: Vec<f64> = (0..80).map(|i| ((i * 73 + 11) % 199) as f64).collect();
        let y: Vec<f64> = (0..80).map(|i| ((i * 151 + 7) % 211) as f64).collect();
        let perm_p = spearman_permutation_p(&x, &y, 300, 7).unwrap();
        assert!(perm_p > 0.05, "permutation p = {perm_p}");
    }

    #[test]
    fn permutation_is_deterministic() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0];
        let a = spearman_permutation_p(&x, &y, 200, 9).unwrap();
        let b = spearman_permutation_p(&x, &y, 200, 9).unwrap();
        assert_eq!(a, b);
    }
}
