//! Gas schedule and metering (EVM Yellow-Paper flavoured).

use crate::error::ContractError;

/// Gas cost constants. Values follow the Ethereum mainline schedule at the
/// time of the paper's Rinkeby evaluation (Istanbul/Berlin era), with
/// EIP-198 pricing for the MODEXP precompile — the combination that places
/// result verification near the paper's 94 531 gas.
#[derive(Debug, Clone)]
pub struct GasSchedule {
    /// Intrinsic cost of any transaction.
    pub tx_base: u64,
    /// Additional intrinsic cost of a contract-creating transaction.
    pub tx_create: u64,
    /// Per zero byte of calldata.
    pub calldata_zero: u64,
    /// Per nonzero byte of calldata.
    pub calldata_nonzero: u64,
    /// Per byte of deployed contract code.
    pub code_deposit: u64,
    /// Storage write: zero → nonzero slot.
    pub sstore_set: u64,
    /// Storage write: nonzero → nonzero slot.
    pub sstore_reset: u64,
    /// Storage read.
    pub sload: u64,
    /// Base cost of a hash invocation.
    pub hash_base: u64,
    /// Per 32-byte word hashed.
    pub hash_word: u64,
    /// Cost of deriving the one `H_prime` candidate an entry's hint names
    /// from the material digest: `+ 2k` and the width wrap.
    pub hprime_candidate: u64,
    /// Cost of a balance transfer performed by a contract.
    pub call_value_transfer: u64,
    /// Flat overhead of dispatching into a contract.
    pub call_base: u64,
    /// Whether MODEXP uses the EIP-2565 (Berlin) repricing instead of
    /// EIP-198.
    pub modexp_berlin: bool,
}

slicer_crypto::impl_codec!(GasSchedule {
    tx_base,
    tx_create,
    calldata_zero,
    calldata_nonzero,
    code_deposit,
    sstore_set,
    sstore_reset,
    sload,
    hash_base,
    hash_word,
    hprime_candidate,
    call_value_transfer,
    call_base,
    modexp_berlin,
});

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            tx_base: 21_000,
            tx_create: 32_000,
            calldata_zero: 4,
            calldata_nonzero: 16,
            code_deposit: 200,
            sstore_set: 20_000,
            sstore_reset: 5_000,
            sload: 800,
            hash_base: 30,
            hash_word: 6,
            hprime_candidate: 300,
            call_value_transfer: 9_000,
            call_base: 700,
            modexp_berlin: false,
        }
    }
}

impl GasSchedule {
    /// Intrinsic calldata cost of a payload.
    pub fn calldata_cost(&self, data: &[u8]) -> u64 {
        data.iter()
            .map(|&b| {
                if b == 0 {
                    self.calldata_zero
                } else {
                    self.calldata_nonzero
                }
            })
            .sum()
    }

    /// Hashing cost for `len` bytes of input.
    pub fn hash_cost(&self, len: usize) -> u64 {
        self.hash_base + self.hash_word * (len as u64).div_ceil(32)
    }
}

/// EIP-198 MODEXP precompile pricing: `floor(mult_complexity(x) * adj_exp / 20)`
/// where `x = max(base_len, mod_len)` in bytes and `adj_exp` approximates
/// the exponent bit length.
pub fn modexp_gas_eip198(base_len: usize, exp_bits: u64, mod_len: usize) -> u64 {
    let x = base_len.max(mod_len) as u64;
    let mult = if x <= 64 {
        x * x
    } else if x <= 1024 {
        x * x / 4 + 96 * x - 3_072
    } else {
        x * x / 16 + 480 * x - 199_680
    };
    let adj_exp = exp_bits.saturating_sub(1).max(1);
    (mult * adj_exp / 20).max(200)
}

/// EIP-2565 (Berlin repricing) MODEXP gas:
/// `max(200, mult_complexity * iteration_count / 3)` with
/// `mult_complexity = ceil(max(base_len, mod_len) / 8)^2`.
///
/// Dramatically cheaper than EIP-198 for the accumulator's operand sizes —
/// the gas-model ablation in `EXPERIMENTS.md` quantifies the gap. The
/// default schedule keeps EIP-198, which matches the paper's reported
/// verification cost.
pub fn modexp_gas_eip2565(base_len: usize, exp_bits: u64, mod_len: usize) -> u64 {
    let words = (base_len.max(mod_len) as u64).div_ceil(8);
    let mult = words * words;
    let iter = exp_bits.saturating_sub(1).max(1);
    (mult * iter / 3).max(200)
}

impl GasSchedule {
    /// A Berlin-era variant of the default schedule: EIP-2565 MODEXP
    /// pricing for the verification exponentiation.
    pub fn eip2565() -> Self {
        GasSchedule {
            modexp_berlin: true,
            ..GasSchedule::default()
        }
    }

    /// MODEXP pricing under the schedule's active rule set.
    pub fn modexp_cost(&self, base_len: usize, exp_bits: u64, mod_len: usize) -> u64 {
        if self.modexp_berlin {
            modexp_gas_eip2565(base_len, exp_bits, mod_len)
        } else {
            modexp_gas_eip198(base_len, exp_bits, mod_len)
        }
    }
}

/// Converts a gas amount to US dollars at a given gas price and ETH price
/// (the paper quotes ≈ $0.28 for 94 531 gas with ETH at $3 000, i.e. a
/// 1 gwei gas price).
///
/// ```
/// use slicer_chain::gas_to_usd;
/// let usd = gas_to_usd(94_531, 1.0, 3_000.0);
/// assert!((usd - 0.28).abs() < 0.01);
/// ```
pub fn gas_to_usd(gas: u64, gas_price_gwei: f64, eth_usd: f64) -> f64 {
    gas as f64 * gas_price_gwei * 1e-9 * eth_usd
}

/// Attribution category for a gas charge — the telemetry-facing view of
/// [`GasSchedule`]: each variant names the schedule field(s) whose charges
/// it accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasCategory {
    /// Transaction-intrinsic gas (`tx_base` + `tx_create` + calldata +
    /// `call_base`).
    Intrinsic,
    /// Deployment code deposit (`code_deposit` per byte).
    CodeDeposit,
    /// Storage reads (`sload`).
    Sload,
    /// Storage writes (`sstore_set` / `sstore_reset`).
    Sstore,
    /// Hash invocations (`hash_base` + `hash_word`).
    Hash,
    /// Wide-field multiplications of the multiset hash the paper binds
    /// results with. The contract binds them with an ordered SHA-256
    /// digest (charged as [`GasCategory::Hash`]), so nothing charges this
    /// category; `gas.field_mul` reads 0.
    FieldMul,
    /// The hinted `H_prime` candidate (`hprime_candidate`).
    HPrime,
    /// Miller–Rabin rounds. The contract checks the one candidate the
    /// cloud names and runs no primality test, so nothing charges this
    /// category; `gas.miller_rabin` reads 0.
    MillerRabin,
    /// The accumulator verification MODEXP (EIP-198 / EIP-2565).
    Modexp,
    /// Settlement balance transfers (`call_value_transfer`).
    Transfer,
    /// Event emission (LOG-flavoured pricing).
    Event,
    /// Charges with no finer attribution.
    Other,
}

/// Gas consumed by one transaction, attributed per [`GasCategory`].
///
/// Maintained by the chain runtime so that `total()` equals the receipt's
/// `gas_used` exactly — including out-of-gas aborts, where the failing
/// charge is recorded at its truncated (meter-saturating) amount.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GasBreakdown {
    /// Gas attributed to [`GasCategory::Intrinsic`].
    pub intrinsic: u64,
    /// Gas attributed to [`GasCategory::CodeDeposit`].
    pub code_deposit: u64,
    /// Gas attributed to [`GasCategory::Sload`].
    pub sload: u64,
    /// Gas attributed to [`GasCategory::Sstore`].
    pub sstore: u64,
    /// Gas attributed to [`GasCategory::Hash`].
    pub hash: u64,
    /// Gas attributed to [`GasCategory::FieldMul`].
    pub field_mul: u64,
    /// Gas attributed to [`GasCategory::HPrime`].
    pub hprime: u64,
    /// Gas attributed to [`GasCategory::MillerRabin`].
    pub miller_rabin: u64,
    /// Gas attributed to [`GasCategory::Modexp`].
    pub modexp: u64,
    /// Gas attributed to [`GasCategory::Transfer`].
    pub transfer: u64,
    /// Gas attributed to [`GasCategory::Event`].
    pub event: u64,
    /// Gas attributed to [`GasCategory::Other`].
    pub other: u64,
}

slicer_crypto::impl_codec!(GasBreakdown {
    intrinsic,
    code_deposit,
    sload,
    sstore,
    hash,
    field_mul,
    hprime,
    miller_rabin,
    modexp,
    transfer,
    event,
    other,
});

impl GasBreakdown {
    /// Adds `gas` to the bucket for `category`.
    pub fn add(&mut self, category: GasCategory, gas: u64) {
        *self.slot(category) += gas;
    }

    /// Gas recorded for `category`.
    pub fn get(&self, category: GasCategory) -> u64 {
        match category {
            GasCategory::Intrinsic => self.intrinsic,
            GasCategory::CodeDeposit => self.code_deposit,
            GasCategory::Sload => self.sload,
            GasCategory::Sstore => self.sstore,
            GasCategory::Hash => self.hash,
            GasCategory::FieldMul => self.field_mul,
            GasCategory::HPrime => self.hprime,
            GasCategory::MillerRabin => self.miller_rabin,
            GasCategory::Modexp => self.modexp,
            GasCategory::Transfer => self.transfer,
            GasCategory::Event => self.event,
            GasCategory::Other => self.other,
        }
    }

    fn slot(&mut self, category: GasCategory) -> &mut u64 {
        match category {
            GasCategory::Intrinsic => &mut self.intrinsic,
            GasCategory::CodeDeposit => &mut self.code_deposit,
            GasCategory::Sload => &mut self.sload,
            GasCategory::Sstore => &mut self.sstore,
            GasCategory::Hash => &mut self.hash,
            GasCategory::FieldMul => &mut self.field_mul,
            GasCategory::HPrime => &mut self.hprime,
            GasCategory::MillerRabin => &mut self.miller_rabin,
            GasCategory::Modexp => &mut self.modexp,
            GasCategory::Transfer => &mut self.transfer,
            GasCategory::Event => &mut self.event,
            GasCategory::Other => &mut self.other,
        }
    }

    /// Sum over every category; equals the receipt's `gas_used`.
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|(_, g)| g).sum()
    }

    /// Accumulates another breakdown into this one (for aggregating the
    /// several transactions of one protocol run).
    pub fn merge(&mut self, other: &GasBreakdown) {
        for (name, gas) in other.entries() {
            self.add(Self::category_by_name(name), gas);
        }
    }

    /// All `(category_name, gas)` pairs in declaration order, including
    /// zero entries.
    pub fn entries(&self) -> [(&'static str, u64); 12] {
        [
            ("intrinsic", self.intrinsic),
            ("code_deposit", self.code_deposit),
            ("sload", self.sload),
            ("sstore", self.sstore),
            ("hash", self.hash),
            ("field_mul", self.field_mul),
            ("hprime", self.hprime),
            ("miller_rabin", self.miller_rabin),
            ("modexp", self.modexp),
            ("transfer", self.transfer),
            ("event", self.event),
            ("other", self.other),
        ]
    }

    fn category_by_name(name: &str) -> GasCategory {
        match name {
            "intrinsic" => GasCategory::Intrinsic,
            "code_deposit" => GasCategory::CodeDeposit,
            "sload" => GasCategory::Sload,
            "sstore" => GasCategory::Sstore,
            "hash" => GasCategory::Hash,
            "field_mul" => GasCategory::FieldMul,
            "hprime" => GasCategory::HPrime,
            "miller_rabin" => GasCategory::MillerRabin,
            "modexp" => GasCategory::Modexp,
            "transfer" => GasCategory::Transfer,
            "event" => GasCategory::Event,
            _ => GasCategory::Other,
        }
    }
}

/// A per-call gas meter.
#[derive(Debug, Clone)]
pub struct GasMeter {
    limit: u64,
    used: u64,
}

impl GasMeter {
    /// Creates a meter with the given limit.
    pub fn new(limit: u64) -> Self {
        GasMeter { limit, used: 0 }
    }

    /// Charges `amount` gas.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::OutOfGas`] once the limit is exceeded; the
    /// meter stays saturated at the limit.
    pub fn charge(&mut self, amount: u64) -> Result<(), ContractError> {
        self.used = self.used.saturating_add(amount);
        if self.used > self.limit {
            self.used = self.limit;
            Err(ContractError::OutOfGas)
        } else {
            Ok(())
        }
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Remaining budget.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calldata_distinguishes_zero_bytes() {
        let s = GasSchedule::default();
        assert_eq!(s.calldata_cost(&[0, 0]), 8);
        assert_eq!(s.calldata_cost(&[1, 2]), 32);
    }

    #[test]
    fn modexp_pricing_matches_known_points() {
        // 64-byte base/mod, 127-bit exponent: 4096 * 126 / 20 = 25 804.
        assert_eq!(modexp_gas_eip198(64, 127, 64), 25_804);
        // Tiny operations floor at 200.
        assert_eq!(modexp_gas_eip198(1, 2, 1), 200);
    }

    #[test]
    fn berlin_repricing_is_cheaper_for_accumulator_ops() {
        // 64-byte operands, 127-bit exponent: 8^2 * 126 / 3 = 2 688.
        assert_eq!(modexp_gas_eip2565(64, 127, 64), 2_688);
        assert!(modexp_gas_eip2565(64, 127, 64) < modexp_gas_eip198(64, 127, 64));
        assert_eq!(modexp_gas_eip2565(1, 2, 1), 200);
    }

    #[test]
    fn schedule_dispatches_modexp_rule() {
        let legacy = GasSchedule::default();
        let berlin = GasSchedule::eip2565();
        assert_eq!(legacy.modexp_cost(64, 127, 64), 25_804);
        assert_eq!(berlin.modexp_cost(64, 127, 64), 2_688);
    }

    #[test]
    fn meter_enforces_limit() {
        let mut m = GasMeter::new(100);
        assert!(m.charge(60).is_ok());
        assert_eq!(m.remaining(), 40);
        assert!(matches!(m.charge(50), Err(ContractError::OutOfGas)));
        assert_eq!(m.used(), 100);
    }

    #[test]
    fn breakdown_totals_and_merges() {
        let mut a = GasBreakdown::default();
        a.add(GasCategory::Intrinsic, 21_000);
        a.add(GasCategory::Sstore, 20_000);
        a.add(GasCategory::Sstore, 5_000);
        assert_eq!(a.get(GasCategory::Sstore), 25_000);
        assert_eq!(a.total(), 46_000);

        let mut b = GasBreakdown::default();
        b.add(GasCategory::Modexp, 200);
        b.merge(&a);
        assert_eq!(b.total(), 46_200);
        assert_eq!(b.get(GasCategory::Intrinsic), 21_000);

        let names: Vec<&str> = a.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 12);
        assert!(names.contains(&"miller_rabin"));
    }

    #[test]
    fn hash_cost_rounds_words_up() {
        let s = GasSchedule::default();
        assert_eq!(s.hash_cost(33), 30 + 12);
        assert_eq!(s.hash_cost(0), 30);
    }
}
