//! Algorithm parameters: ε, β, levels, the α policy, and the solver
//! configuration.
//!
//! Paper mapping (§3.1):
//!
//! * `ε ∈ (0, 1]` — approximation slack; the output is an `(f + ε)`-
//!   approximation.
//! * `β = ε / (f + ε)` — a vertex is *β-tight* when `Σ_{e∋v} δ(e) ≥
//!   (1−β)·w(v)`; β-tight vertices join the cover.
//! * `z = ⌈log₂(1/β)⌉` — the number of levels; no vertex ever reaches level
//!   `z` (Claim 4).
//! * `α ≥ 2` — the bid growth factor; Theorem 9 picks it from `Δ`, `f`, `ε`
//!   to obtain the optimal `O(log Δ / log log Δ)` bound.

use dcover_congest::{BitBudget, PartitionPolicy};

use crate::error::SolveError;

/// Computes `β = ε / (f + ε)` (paper §3.1).
///
/// # Panics
///
/// Panics if `f == 0` or `eps` is not in `(0, 1]`. User-facing entry
/// points never reach the panic: every solve path first runs
/// [`MwhvcConfig::validate`], which turns the same conditions into typed
/// [`SolveError`]s ([`try_beta`] is the checked form).
#[must_use]
pub fn beta(f: u32, eps: f64) -> f64 {
    assert!(f > 0, "rank must be positive");
    assert!(eps > 0.0 && eps <= 1.0, "epsilon must be in (0, 1]");
    eps / (f as f64 + eps)
}

/// Checked [`beta`]: rejects a bad ε as a typed error instead of
/// panicking (`f` is derived from the instance, never user input, and is
/// still asserted).
///
/// # Errors
///
/// Returns [`SolveError::InvalidEpsilon`] unless `0 < eps ≤ 1`.
pub fn try_beta(f: u32, eps: f64) -> Result<f64, SolveError> {
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(SolveError::InvalidEpsilon { value: eps });
    }
    Ok(beta(f, eps))
}

/// Computes `z = ⌈log₂(1/β)⌉`, the level bound (paper §4.2). Note
/// `z = O(log(f/ε))`.
///
/// # Panics
///
/// Panics if `f == 0` or `eps` is not in `(0, 1]` (see [`beta`] on why
/// solve paths cannot reach this; [`try_z_levels`] is the checked form).
#[must_use]
pub fn z_levels(f: u32, eps: f64) -> u32 {
    let b = beta(f, eps);
    (1.0 / b).log2().ceil() as u32
}

/// Checked [`z_levels`].
///
/// # Errors
///
/// Returns [`SolveError::InvalidEpsilon`] unless `0 < eps ≤ 1`.
pub fn try_z_levels(f: u32, eps: f64) -> Result<u32, SolveError> {
    try_beta(f, eps)?;
    Ok(z_levels(f, eps))
}

/// How the bid multiplier `α` is chosen.
///
/// Correctness holds for any `α ≥ 2` (Theorem 8 bounds the iterations by
/// `O(log_α Δ + f·log(f/ε)·α)` for every such α); the policy only affects
/// round complexity. We restrict α to integers — rounding Theorem 9's real-
/// valued choice changes constants only.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AlphaPolicy {
    /// A fixed global `α ≥ 2`.
    Fixed(u32),
    /// Theorem 9's choice computed from the *global* maximum degree `Δ`:
    /// `α = max(2, log Δ / (f·log(f/ε)·log log Δ))` when that quantity is at
    /// least `(log Δ)^{γ/2}`, else `α = 2`.
    Theorem9 {
        /// The constant `γ > 0` of Theorem 9 (the paper suggests 0.001).
        gamma: f64,
    },
    /// Theorem 9's choice computed per hyperedge from the *local* maximum
    /// degree `Δ(e) = max_{u∈e} |E(u)|` (Appendix B item 5) — removes the
    /// assumption that all nodes know `Δ`.
    LocalTheorem9 {
        /// The constant `γ > 0` of Theorem 9.
        gamma: f64,
    },
}

impl AlphaPolicy {
    /// The default policy: Theorem 9 with `γ = 0.001` on the global degree.
    #[must_use]
    pub fn theorem9() -> Self {
        AlphaPolicy::Theorem9 { gamma: 0.001 }
    }

    /// Validates the user-suppliable parameters of the policy, turning
    /// what [`resolve`](Self::resolve) would panic on into typed errors.
    /// Every solve entry point calls this (via [`MwhvcConfig::validate`])
    /// before any α is resolved, so a bad fixed α or γ from a config,
    /// CLI flag, or service submission surfaces as a [`SolveError`], never
    /// a panic on a service worker.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidAlpha`] for a fixed `α < 2` and
    /// [`SolveError::InvalidGamma`] for `γ ≤ 0`, NaN, or infinite γ.
    pub fn validate(&self) -> Result<(), SolveError> {
        match *self {
            AlphaPolicy::Fixed(a) => {
                if a < 2 {
                    return Err(SolveError::InvalidAlpha { alpha: a });
                }
            }
            AlphaPolicy::Theorem9 { gamma } | AlphaPolicy::LocalTheorem9 { gamma } => {
                if !(gamma > 0.0 && gamma.is_finite()) {
                    return Err(SolveError::InvalidGamma { gamma });
                }
            }
        }
        Ok(())
    }

    /// Resolves the multiplier for a hyperedge.
    ///
    /// `local_delta` is `Δ(e)` (local max degree over the edge's members);
    /// `global_delta` is the instance-wide `Δ`. Policies ignore whichever
    /// they don't use.
    ///
    /// # Panics
    ///
    /// Panics if a fixed α is `< 2`, if `γ ≤ 0`, if `f == 0`, or if `eps` is
    /// outside `(0, 1]`.
    #[must_use]
    pub fn resolve(&self, f: u32, eps: f64, local_delta: u32, global_delta: u32) -> u32 {
        match *self {
            AlphaPolicy::Fixed(a) => {
                assert!(a >= 2, "fixed alpha must be at least 2");
                a
            }
            AlphaPolicy::Theorem9 { gamma } => theorem9_alpha(f, eps, global_delta, gamma),
            AlphaPolicy::LocalTheorem9 { gamma } => theorem9_alpha(f, eps, local_delta, gamma),
        }
    }
}

impl Default for AlphaPolicy {
    fn default() -> Self {
        Self::theorem9()
    }
}

/// Checked [`theorem9_alpha`].
///
/// # Errors
///
/// Returns [`SolveError::InvalidGamma`] for `γ ≤ 0`, NaN, or infinite γ,
/// and [`SolveError::InvalidEpsilon`] for ε outside `(0, 1]`.
pub fn try_theorem9_alpha(f: u32, eps: f64, delta: u32, gamma: f64) -> Result<u32, SolveError> {
    AlphaPolicy::Theorem9 { gamma }.validate()?;
    try_beta(f, eps)?;
    Ok(theorem9_alpha(f, eps, delta, gamma))
}

/// The α of Theorem 9 for maximum degree `delta`, rank `f`, slack `eps`,
/// constant `gamma`, rounded to an integer ≥ 2.
///
/// # Panics
///
/// Panics if `gamma <= 0.0`, `f == 0`, or `eps` is outside `(0, 1]` (see
/// [`beta`] on why solve paths cannot reach this;
/// [`try_theorem9_alpha`] is the checked form).
#[must_use]
pub fn theorem9_alpha(f: u32, eps: f64, delta: u32, gamma: f64) -> u32 {
    assert!(gamma > 0.0, "gamma must be positive");
    assert!(f > 0, "rank must be positive");
    assert!(eps > 0.0 && eps <= 1.0, "epsilon must be in (0, 1]");
    // The paper assumes Δ ≥ 3 so log log Δ > 0; clamp smaller degrees.
    let delta = delta.max(3);
    let log_d = f64::from(delta).log2();
    let loglog_d = log_d.log2().max(f64::MIN_POSITIVE);
    let fz = (f as f64) * (f as f64 / eps).log2().max(1.0);
    let x = log_d / (fz * loglog_d);
    if x >= log_d.powf(gamma / 2.0) {
        (x.round() as u32).max(2)
    } else {
        2
    }
}

/// Which flavour of the dual update runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Variant {
    /// §3.2 Algorithm MWHVC: `δ(e) ← δ(e) + bid(e)`; a vertex may climb
    /// several levels in one iteration.
    #[default]
    Standard,
    /// Appendix C: `δ(e) ← δ(e) + bid(e)/2`; each vertex's level increases
    /// by at most one per iteration (Corollary 21), at the cost of at most
    /// twice as many stuck iterations (Lemma 22).
    HalfBid,
}

/// Configuration for [`MwhvcSolver`](crate::MwhvcSolver) and
/// [`solve_reference`](crate::solve_reference).
///
/// # Examples
///
/// ```
/// use dcover_core::{AlphaPolicy, MwhvcConfig, Variant};
///
/// let cfg = MwhvcConfig::new(0.25)?
///     .with_alpha(AlphaPolicy::Fixed(4))
///     .with_variant(Variant::HalfBid);
/// assert_eq!(cfg.epsilon(), 0.25);
/// # Ok::<(), dcover_core::SolveError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MwhvcConfig {
    epsilon: f64,
    alpha: AlphaPolicy,
    variant: Variant,
    budget: Option<BitBudget>,
    trace: bool,
    max_rounds: Option<u64>,
    partition: PartitionPolicy,
}

impl MwhvcConfig {
    /// Creates a configuration with the given ε and defaults elsewhere
    /// (Theorem 9 α, standard variant, automatic CONGEST budget, automatic
    /// round limit from Theorem 8's explicit constants).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidEpsilon`] unless `0 < epsilon ≤ 1`.
    pub fn new(epsilon: f64) -> Result<Self, SolveError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(SolveError::InvalidEpsilon { value: epsilon });
        }
        Ok(Self {
            epsilon,
            alpha: AlphaPolicy::default(),
            variant: Variant::default(),
            budget: None,
            trace: false,
            max_rounds: None,
            partition: PartitionPolicy::default(),
        })
    }

    /// Configuration for the *f-approximation* mode of Corollary 10:
    /// `ε = 1/(n·W)` makes `(f+ε)·OPT < f·OPT + 1`, and integral weights
    /// then give a true f-approximation, in `O(f log n)` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidEpsilon`] for degenerate `n`/`W` (e.g.
    /// zero).
    pub fn f_approximation(n: usize, max_weight: u64) -> Result<Self, SolveError> {
        let denom = (n as f64) * (max_weight as f64);
        if !(denom.is_finite() && denom >= 1.0) {
            return Err(SolveError::InvalidEpsilon { value: f64::NAN });
        }
        Self::new((1.0 / denom).min(1.0))
    }

    /// Replaces the ε while keeping every other setting (α policy,
    /// variant, budget, trace, round limit) — how a serving layer derives
    /// a per-request configuration from its base configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidEpsilon`] unless `0 < epsilon ≤ 1`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Result<Self, SolveError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(SolveError::InvalidEpsilon { value: epsilon });
        }
        self.epsilon = epsilon;
        Ok(self)
    }

    /// Sets the α policy.
    #[must_use]
    pub fn with_alpha(mut self, alpha: AlphaPolicy) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the dual-update variant.
    #[must_use]
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Overrides the per-link per-round bit budget (default: `32·⌈log₂ N⌉`
    /// for the `N`-node communication network).
    #[must_use]
    pub fn with_budget(mut self, budget: BitBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Enables per-round metric tracing in the returned report.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Sets the chunk partition policy for parallel solves:
    /// [`PartitionPolicy::Locality`] assigns connected nodes to the same
    /// worker chunk so most messages stay on their worker, and balances
    /// the vertex side and the hyperedge side across the chunks
    /// separately, so every worker has work in every round. Results
    /// are bit-identical either way (and identical to sequential solves);
    /// the policy only affects scheduling and the
    /// intra/cross-chunk message split reported in the
    /// [`SimReport`](dcover_congest::SimReport). Sequential solves ignore
    /// it (one chunk).
    #[must_use]
    pub fn with_partition(mut self, partition: PartitionPolicy) -> Self {
        self.partition = partition;
        self
    }

    /// Overrides the round limit (default: the explicit Theorem 8 bound
    /// computed by [`analysis::round_bound`](crate::analysis::round_bound)
    /// with a safety factor; hitting it is reported as an error because it
    /// would falsify the paper's bound).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Re-validates every user-suppliable parameter as typed errors: ε in
    /// `(0, 1]` (defensive — the constructors already enforce it) and the
    /// α policy's fixed α / γ, which the builder setters deliberately do
    /// **not** check so configs stay infallible to assemble. Every solve
    /// entry point calls this before touching the instance, so no
    /// user-supplied ε, α, or γ can panic a solve — it errors instead.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidEpsilon`], [`SolveError::InvalidAlpha`], or
    /// [`SolveError::InvalidGamma`].
    pub fn validate(&self) -> Result<(), SolveError> {
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(SolveError::InvalidEpsilon {
                value: self.epsilon,
            });
        }
        self.alpha.validate()
    }

    /// The approximation slack ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The α policy.
    #[must_use]
    pub fn alpha(&self) -> AlphaPolicy {
        self.alpha
    }

    /// The dual-update variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The configured budget override, if any.
    #[must_use]
    pub fn budget(&self) -> Option<BitBudget> {
        self.budget
    }

    /// Whether per-round tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// The configured round-limit override, if any.
    #[must_use]
    pub fn max_rounds(&self) -> Option<u64> {
        self.max_rounds
    }

    /// The chunk partition policy used by parallel solves.
    #[must_use]
    pub fn partition(&self) -> PartitionPolicy {
        self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_matches_definition() {
        assert!((beta(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((beta(3, 0.5) - 0.5 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn z_is_log_of_inverse_beta() {
        // f = 2, eps = 1 -> beta = 1/3 -> z = ceil(log2 3) = 2
        assert_eq!(z_levels(2, 1.0), 2);
        // f = 2, eps = 0.1 -> beta = 0.1/2.1 -> 1/beta = 21 -> z = 5
        assert_eq!(z_levels(2, 0.1), 5);
    }

    #[test]
    fn z_grows_like_log_f_over_eps() {
        let z1 = z_levels(2, 0.5);
        let z2 = z_levels(2, 0.5 / 1024.0);
        assert!(z2 >= z1 + 9, "halving eps 10 times should add ~10 levels");
    }

    #[test]
    fn fixed_alpha_resolves() {
        let p = AlphaPolicy::Fixed(5);
        assert_eq!(p.resolve(3, 0.5, 10, 1000), 5);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn fixed_alpha_below_two_panics() {
        let _ = AlphaPolicy::Fixed(1).resolve(2, 0.5, 4, 4);
    }

    #[test]
    fn theorem9_alpha_is_at_least_two() {
        for delta in [1u32, 3, 10, 100, 10_000, 1_000_000] {
            for f in [1u32, 2, 5] {
                for eps in [1.0, 0.5, 0.01] {
                    assert!(theorem9_alpha(f, eps, delta, 0.001) >= 2);
                }
            }
        }
    }

    #[test]
    fn theorem9_alpha_grows_with_delta_for_small_f() {
        // For f = 1, eps = 1 the fz term is 1, so alpha ~ log Δ / loglog Δ.
        let small = theorem9_alpha(1, 1.0, 16, 0.001);
        let big = theorem9_alpha(1, 1.0, 1 << 30, 0.001);
        assert!(big > small, "alpha should grow: {small} vs {big}");
    }

    #[test]
    fn local_policy_uses_local_delta() {
        let p = AlphaPolicy::LocalTheorem9 { gamma: 0.001 };
        let a_local = p.resolve(1, 1.0, 1 << 30, 4);
        let a_if_global = p.resolve(1, 1.0, 4, 4);
        assert!(a_local > a_if_global);
    }

    #[test]
    fn config_builder() {
        let cfg = MwhvcConfig::new(0.5)
            .unwrap()
            .with_alpha(AlphaPolicy::Fixed(2))
            .with_variant(Variant::HalfBid)
            .with_trace(true)
            .with_max_rounds(99)
            .with_partition(PartitionPolicy::Locality);
        assert_eq!(cfg.epsilon(), 0.5);
        assert_eq!(cfg.alpha(), AlphaPolicy::Fixed(2));
        assert_eq!(cfg.variant(), Variant::HalfBid);
        assert!(cfg.trace());
        assert_eq!(cfg.max_rounds(), Some(99));
        assert_eq!(cfg.partition(), PartitionPolicy::Locality);
        assert_eq!(
            MwhvcConfig::new(0.5).unwrap().partition(),
            PartitionPolicy::Contiguous
        );
    }

    #[test]
    fn invalid_epsilon_rejected() {
        assert!(MwhvcConfig::new(0.0).is_err());
        assert!(MwhvcConfig::new(-1.0).is_err());
        assert!(MwhvcConfig::new(1.5).is_err());
        assert!(MwhvcConfig::new(f64::NAN).is_err());
        assert!(MwhvcConfig::new(1.0).is_ok());
    }

    #[test]
    fn f_approximation_epsilon() {
        let cfg = MwhvcConfig::f_approximation(100, 10).unwrap();
        assert!((cfg.epsilon() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn checked_variants_return_typed_errors() {
        use crate::SolveError;
        assert!(matches!(
            try_beta(2, 0.0),
            Err(SolveError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            try_z_levels(2, f64::NAN),
            Err(SolveError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            try_theorem9_alpha(2, 0.5, 10, 0.0),
            Err(SolveError::InvalidGamma { .. })
        ));
        assert!(matches!(
            try_theorem9_alpha(2, 0.5, 10, f64::INFINITY),
            Err(SolveError::InvalidGamma { .. })
        ));
        assert_eq!(try_beta(2, 1.0).unwrap(), beta(2, 1.0));
        assert_eq!(try_z_levels(2, 0.1).unwrap(), z_levels(2, 0.1));
        assert_eq!(
            try_theorem9_alpha(1, 1.0, 1 << 20, 0.001).unwrap(),
            theorem9_alpha(1, 1.0, 1 << 20, 0.001)
        );
    }

    #[test]
    fn policy_and_config_validation() {
        use crate::SolveError;
        assert_eq!(
            AlphaPolicy::Fixed(1).validate(),
            Err(SolveError::InvalidAlpha { alpha: 1 })
        );
        assert!(AlphaPolicy::Fixed(2).validate().is_ok());
        assert!(matches!(
            (AlphaPolicy::LocalTheorem9 { gamma: -1.0 }).validate(),
            Err(SolveError::InvalidGamma { .. })
        ));
        assert!(AlphaPolicy::theorem9().validate().is_ok());
        let good = MwhvcConfig::new(0.5).unwrap();
        assert!(good.validate().is_ok());
        let bad = MwhvcConfig::new(0.5)
            .unwrap()
            .with_alpha(AlphaPolicy::Fixed(0));
        assert_eq!(bad.validate(), Err(SolveError::InvalidAlpha { alpha: 0 }));
    }
}
