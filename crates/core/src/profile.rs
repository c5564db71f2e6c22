//! Per-phase latency and gas profiles of a protocol run.
//!
//! The paper's evaluation splits cost by protocol phase (token generation,
//! search, on-chain verification, settlement — Figs. 6–9 and Table II).
//! [`SearchProfile`] carries that breakdown on every
//! [`SearchOutcome`](crate::SearchOutcome): wall-time per phase measured by
//! the orchestrator, and gas attributed from the receipts'
//! [`GasBreakdown`]s so the phase gas totals reconcile *exactly* with
//! `request_gas + verify_gas`.

use slicer_chain::GasBreakdown;
use std::time::Duration;

/// Wall-time and gas of one protocol phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
    /// Gas consumed on chain during the phase (0 for off-chain phases).
    pub gas: u64,
}

impl PhaseStat {
    /// Accumulates another stat (for merging dual-instance runs).
    pub fn merge(&mut self, other: &PhaseStat) {
        self.wall += other.wall;
        self.gas += other.gas;
    }
}

/// Phase-by-phase profile of one verified search.
///
/// Gas attribution follows the transaction structure: the Token phase owns
/// the `RequestSearch` transaction, the Verify phase owns the
/// `SubmitResult` transaction minus its settlement transfer, and the
/// Settle phase owns that transfer. Search is off-chain and carries gas 0.
/// Hence `total_gas() == request_gas + verify_gas` always.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Token generation + on-chain request registration (Algorithm 3).
    pub token: PhaseStat,
    /// The cloud's index walk and witness generation (Algorithm 4),
    /// entirely off-chain.
    pub search: PhaseStat,
    /// On-chain result verification (Algorithm 5, minus settlement).
    pub verify: PhaseStat,
    /// Fee settlement (escrow transfer) + block sealing + user decryption.
    pub settle: PhaseStat,
    /// Combined per-category gas of the run's transactions.
    pub gas: GasBreakdown,
}

impl SearchProfile {
    /// Total gas across all phases; equals
    /// `SearchOutcome::request_gas + verify_gas`.
    pub fn total_gas(&self) -> u64 {
        self.token.gas + self.search.gas + self.verify.gas + self.settle.gas
    }

    /// Total wall time across all phases.
    pub fn total_wall(&self) -> Duration {
        self.token.wall + self.search.wall + self.verify.wall + self.settle.wall
    }

    /// The four search-time phases as `(name, stat)` pairs, in protocol
    /// order. (Setup and Build are per-deployment phases reported through
    /// the telemetry registry, not per-search.)
    pub fn phases(&self) -> [(&'static str, PhaseStat); 4] {
        [
            ("token", self.token),
            ("search", self.search),
            ("verify", self.verify),
            ("settle", self.settle),
        ]
    }

    /// Accumulates another profile (dual-instance searches run two
    /// verified searches and report their sum).
    pub fn merge(&mut self, other: &SearchProfile) {
        self.token.merge(&other.token);
        self.search.merge(&other.search);
        self.verify.merge(&other.verify);
        self.settle.merge(&other.settle);
        self.gas.merge(&other.gas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let mut p = SearchProfile {
            token: PhaseStat {
                wall: Duration::from_millis(2),
                gas: 30_000,
            },
            verify: PhaseStat {
                wall: Duration::from_millis(5),
                gas: 85_000,
            },
            ..Default::default()
        };
        p.settle.gas = 9_000;
        assert_eq!(p.total_gas(), 124_000);
        assert_eq!(p.total_wall(), Duration::from_millis(7));
        assert_eq!(p.phases()[0].0, "token");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchProfile::default();
        a.token.gas = 10;
        a.search.wall = Duration::from_micros(3);
        let mut b = SearchProfile::default();
        b.token.gas = 5;
        b.search.wall = Duration::from_micros(4);
        a.merge(&b);
        assert_eq!(a.token.gas, 15);
        assert_eq!(a.search.wall, Duration::from_micros(7));
    }
}
