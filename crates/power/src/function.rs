//! The combined power-down / speed-scaling link power function (paper Eq. 1).

use std::fmt;

/// Errors raised when constructing a [`PowerFunction`] with invalid
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerFunctionError {
    /// `alpha` must be strictly greater than one (the function must be
    /// superadditive for the paper's results to hold).
    NonSuperadditiveAlpha(f64),
    /// `mu` must be strictly positive.
    NonPositiveMu(f64),
    /// `sigma` must be non-negative.
    NegativeSigma(f64),
    /// `capacity` must be strictly positive and finite.
    InvalidCapacity(f64),
}

impl fmt::Display for PowerFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerFunctionError::NonSuperadditiveAlpha(a) => {
                write!(
                    f,
                    "alpha must be > 1 for a superadditive power function, got {a}"
                )
            }
            PowerFunctionError::NonPositiveMu(m) => write!(f, "mu must be > 0, got {m}"),
            PowerFunctionError::NegativeSigma(s) => write!(f, "sigma must be >= 0, got {s}"),
            PowerFunctionError::InvalidCapacity(c) => {
                write!(f, "capacity must be positive and finite, got {c}")
            }
        }
    }
}

impl std::error::Error for PowerFunctionError {}

/// The per-link power function `f(x) = sigma + mu * x^alpha` for `0 < x <= C`
/// and `f(0) = 0`, as defined in Eq. (1) of the paper.
///
/// All links in a data center are assumed identical, so a single
/// `PowerFunction` value is shared by every link of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFunction {
    sigma: f64,
    mu: f64,
    alpha: f64,
    capacity: f64,
}

impl PowerFunction {
    /// Creates a power function with idle power `sigma`, speed-scaling
    /// coefficient `mu`, exponent `alpha` and link capacity `capacity`.
    ///
    /// # Errors
    ///
    /// Returns an error when `alpha <= 1`, `mu <= 0`, `sigma < 0` or the
    /// capacity is not positive and finite.
    pub fn new(sigma: f64, mu: f64, alpha: f64, capacity: f64) -> Result<Self, PowerFunctionError> {
        if alpha <= 1.0 || alpha.is_nan() {
            return Err(PowerFunctionError::NonSuperadditiveAlpha(alpha));
        }
        if mu <= 0.0 || mu.is_nan() {
            return Err(PowerFunctionError::NonPositiveMu(mu));
        }
        if sigma < 0.0 || sigma.is_nan() {
            return Err(PowerFunctionError::NegativeSigma(sigma));
        }
        if capacity <= 0.0 || !capacity.is_finite() {
            return Err(PowerFunctionError::InvalidCapacity(capacity));
        }
        Ok(Self {
            sigma,
            mu,
            alpha,
            capacity,
        })
    }

    /// A pure speed-scaling function `g(x) = mu * x^alpha` (no idle power),
    /// as used by the DCFS analysis once inactive links have been discarded,
    /// and by the paper's Fig. 2 setup (`x^2` and `x^4`).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`PowerFunction::new`]).
    pub fn speed_scaling_only(mu: f64, alpha: f64, capacity: f64) -> Self {
        Self::new(0.0, mu, alpha, capacity).expect("invalid speed-scaling parameters")
    }

    /// The idle power `sigma`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The speed-scaling exponent `alpha` (> 1).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The maximum transmission rate `C` of a link.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Power drawn at transmission rate `rate` (Eq. 1): `0` when the rate is
    /// zero, `sigma + mu * rate^alpha` otherwise.
    ///
    /// Rates above capacity are physically impossible; for robustness the
    /// function still evaluates them (the schedulers reject such schedules
    /// separately).
    pub fn power(&self, rate: f64) -> f64 {
        debug_assert!(rate >= 0.0, "negative rate {rate}");
        if rate <= 0.0 {
            0.0
        } else {
            self.sigma + self.dynamic_power(rate)
        }
    }

    /// Only the rate-dependent term `mu * rate^alpha` (zero at rate zero).
    pub fn dynamic_power(&self, rate: f64) -> f64 {
        if rate <= 0.0 {
            0.0
        } else {
            self.mu * pow_fast(rate, self.alpha)
        }
    }

    /// The *power rate* of Definition 3: energy spent per unit of traffic,
    /// `f(x) / x`, for `x > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn power_rate(&self, rate: f64) -> f64 {
        assert!(rate > 0.0, "power rate is undefined at rate {rate}");
        self.power(rate) / rate
    }

    /// The optimal operating rate `R_opt = (sigma / (mu (alpha - 1)))^(1/alpha)`
    /// of Lemma 3: the rate that minimises the power rate `f(x)/x`, ignoring
    /// the capacity constraint.
    ///
    /// With `sigma = 0` this is `0` (slower is always more efficient, the
    /// pure speed-scaling regime).
    pub fn optimal_rate(&self) -> f64 {
        (self.sigma / (self.mu * (self.alpha - 1.0))).powf(1.0 / self.alpha)
    }

    /// Marginal power `d f / d x = mu * alpha * x^(alpha - 1)` for `x > 0`.
    ///
    /// This is the link derivative used by the Frank–Wolfe solver when
    /// routing commodities on marginal-cost shortest paths. The idle power
    /// `sigma` is a fixed cost and does not appear in the derivative.
    pub fn marginal_power(&self, rate: f64) -> f64 {
        if rate <= 0.0 {
            // Right derivative at 0+ of the dynamic term.
            if self.alpha > 1.0 {
                0.0
            } else {
                self.mu
            }
        } else {
            self.mu * self.alpha * pow_fast(rate, self.alpha - 1.0)
        }
    }

    /// Energy needed to ship `volume` units of data at a constant rate over a
    /// window of length `duration` (i.e. at rate `volume / duration`), the
    /// quantity minimised in Lemma 2: `mu * volume * (volume/duration)^(alpha-1)`
    /// plus idle energy `sigma * duration` if the volume is positive.
    ///
    /// # Panics
    ///
    /// Panics if `duration <= 0` while `volume > 0`.
    pub fn energy_for_volume(&self, volume: f64, duration: f64) -> f64 {
        if volume <= 0.0 {
            return 0.0;
        }
        assert!(
            duration > 0.0,
            "cannot ship {volume} units in a non-positive duration"
        );
        self.power(volume / duration) * duration
    }
}

/// `x^a` with multiply-only fast paths for the small integer exponents the
/// paper's experiments use (`alpha` in `{2, 3, 4}`, and `alpha - 1` in
/// `{1, 2, 3}`). The Frank–Wolfe line search evaluates the link cost tens
/// of thousands of times per interval, where a libm `powf` call dominates
/// the whole solve.
#[inline]
fn pow_fast(x: f64, a: f64) -> f64 {
    if a == 1.0 {
        x
    } else if a == 2.0 {
        x * x
    } else if a == 3.0 {
        x * x * x
    } else if a == 4.0 {
        let s = x * x;
        s * s
    } else {
        x.powf(a)
    }
}

impl fmt::Display for PowerFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f(x) = {} + {}·x^{} (C = {})",
            self.sigma, self.mu, self.alpha, self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn pow_fast_agrees_with_powf() {
        // The multiply-only fast paths for integer exponents may differ
        // from libm `powf` by an ulp; pin them to within 1e-15 relative
        // error (and exactly at the exercised identities).
        for &a in &[1.0, 2.0, 3.0, 4.0, 2.5, 3.7] {
            for i in 0..200 {
                let x = 0.01 + (i as f64) * 0.173;
                let fast = pow_fast(x, a);
                let exact = x.powf(a);
                assert!(
                    (fast - exact).abs() <= 1e-15 * exact.abs(),
                    "pow_fast({x}, {a}) = {fast} vs powf {exact}"
                );
            }
        }
        assert_eq!(pow_fast(7.25, 1.0), 7.25);
        assert_eq!(pow_fast(3.0, 2.0), 9.0);
        assert_eq!(pow_fast(2.0, 3.0), 8.0);
        assert_eq!(pow_fast(2.0, 4.0), 16.0);
    }

    #[test]
    fn basic_evaluation() {
        let f = PowerFunction::new(2.0, 3.0, 2.0, 10.0).unwrap();
        assert_eq!(f.power(0.0), 0.0);
        assert!(close(f.power(2.0), 2.0 + 3.0 * 4.0));
        assert!(close(f.dynamic_power(2.0), 12.0));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            PowerFunction::new(1.0, 1.0, 1.0, 10.0),
            Err(PowerFunctionError::NonSuperadditiveAlpha(_))
        ));
        assert!(matches!(
            PowerFunction::new(1.0, 0.0, 2.0, 10.0),
            Err(PowerFunctionError::NonPositiveMu(_))
        ));
        assert!(matches!(
            PowerFunction::new(-1.0, 1.0, 2.0, 10.0),
            Err(PowerFunctionError::NegativeSigma(_))
        ));
        assert!(matches!(
            PowerFunction::new(1.0, 1.0, 2.0, 0.0),
            Err(PowerFunctionError::InvalidCapacity(_))
        ));
        assert!(matches!(
            PowerFunction::new(1.0, 1.0, 2.0, f64::INFINITY),
            Err(PowerFunctionError::InvalidCapacity(_))
        ));
    }

    #[test]
    fn lemma3_optimal_rate() {
        // sigma = mu (alpha-1) B^alpha  =>  R_opt = B (the reduction in Thm 2).
        let b = 3.0_f64;
        let alpha = 2.5_f64;
        let mu = 1.7_f64;
        let sigma = mu * (alpha - 1.0) * b.powf(alpha);
        let f = PowerFunction::new(sigma, mu, alpha, 100.0).unwrap();
        assert!(close(f.optimal_rate(), b));
    }

    #[test]
    fn optimal_rate_minimises_power_rate() {
        let f = PowerFunction::new(5.0, 2.0, 3.0, 100.0).unwrap();
        let r = f.optimal_rate();
        let best = f.power_rate(r);
        for x in [0.1, 0.5, r * 0.9, r * 1.1, 2.0 * r, 10.0 * r] {
            assert!(
                f.power_rate(x) >= best - 1e-9,
                "power rate at {x} beats the optimum"
            );
        }
    }

    #[test]
    fn speed_scaling_only_has_zero_optimal_rate() {
        let f = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        assert_eq!(f.optimal_rate(), 0.0);
        assert_eq!(f.sigma(), 0.0);
    }

    #[test]
    fn marginal_power_matches_finite_difference() {
        let f = PowerFunction::new(4.0, 2.0, 3.0, 10.0).unwrap();
        let x = 1.7;
        let h = 1e-6;
        let fd = (f.dynamic_power(x + h) - f.dynamic_power(x - h)) / (2.0 * h);
        assert!((f.marginal_power(x) - fd).abs() < 1e-4);
    }

    #[test]
    fn energy_for_volume_matches_lemma2_formula() {
        // Phi_g = mu * w * s^(alpha-1) with s = w / duration (sigma = 0).
        let f = PowerFunction::speed_scaling_only(2.0, 3.0, 100.0);
        let w = 6.0;
        let d = 2.0;
        let s: f64 = w / d;
        assert!(close(f.energy_for_volume(w, d), 2.0 * w * s.powf(2.0)));
        assert_eq!(f.energy_for_volume(0.0, 5.0), 0.0);
    }

    #[test]
    fn energy_for_volume_is_convex_in_rate() {
        // Slower transmission (longer duration) must never cost more energy
        // when sigma = 0 (Lemma 2).
        let f = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
        let w = 10.0;
        let e_fast = f.energy_for_volume(w, 1.0);
        let e_slow = f.energy_for_volume(w, 4.0);
        assert!(e_slow < e_fast);
    }

    #[test]
    fn superadditivity_of_power() {
        // f(x1 + x2) >= f(x1) + f(x2) - sigma (dynamic part superadditive).
        let f = PowerFunction::new(1.0, 2.0, 2.0, 100.0).unwrap();
        let (x1, x2) = (1.5, 2.5);
        assert!(f.dynamic_power(x1 + x2) >= f.dynamic_power(x1) + f.dynamic_power(x2));
    }

    #[test]
    fn display_mentions_all_parameters() {
        let f = PowerFunction::new(1.0, 2.0, 3.0, 4.0).unwrap();
        let s = f.to_string();
        for token in ["1", "2", "3", "4"] {
            assert!(s.contains(token), "{s} should mention {token}");
        }
    }
}
