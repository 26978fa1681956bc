//! The energy of a schedule over its horizon, split as the paper's
//! objective splits it.

/// The energy consumed by a schedule, split the way the paper's objective
/// (Eq. 5) splits it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Idle energy: `(T1 - T0) * |E_a| * sigma` — every link that is ever
    /// active pays the idle power for the whole horizon, because the paper
    /// only allows a link to be powered down if it carries no traffic during
    /// the entire period.
    pub idle: f64,
    /// Dynamic (speed-scaling) energy: `integral over time of
    /// sum_e mu * x_e(t)^alpha`.
    pub dynamic: f64,
    /// Number of active links `|E_a|`.
    pub active_links: usize,
}

impl EnergyBreakdown {
    /// Total energy `Phi_f = idle + dynamic`.
    pub fn total(&self) -> f64 {
        self.idle + self.dynamic
    }
}
