//! The native-contract execution interface.

use crate::error::ContractError;
use crate::gas::{GasBreakdown, GasCategory, GasMeter, GasSchedule};
use crate::types::Address;
use std::collections::BTreeMap;

/// Per-contract persistent key/value storage. An ordered map so storage
/// iteration (state-root hashing, debugging dumps) is deterministic.
pub type ContractStorage = BTreeMap<Vec<u8>, Vec<u8>>;

/// Execution context handed to a contract call.
///
/// All storage access goes through the context so it can be gas-metered;
/// storage writes and value payouts are collected and applied by the
/// chain only if the call succeeds (reverts roll everything back).
#[derive(Debug)]
pub struct CallContext<'a> {
    /// Transaction sender.
    pub caller: Address,
    /// Value attached to the call (already escrowed at the contract).
    pub value: u128,
    /// Address of the executing contract.
    pub this: Address,
    /// The contract's committed storage, read-only during the call.
    pub(crate) storage: &'a ContractStorage,
    /// Slots this call wrote, shadowing `storage` until the call commits.
    pub(crate) writes: &'a mut ContractStorage,
    pub(crate) meter: &'a mut GasMeter,
    pub(crate) schedule: &'a GasSchedule,
    pub(crate) payouts: &'a mut Vec<(Address, u128)>,
    pub(crate) logs: &'a mut Vec<crate::tx::LogEvent>,
    pub(crate) breakdown: &'a mut GasBreakdown,
}

impl CallContext<'_> {
    /// Charges raw gas, attributed to [`GasCategory::Other`].
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn charge(&mut self, gas: u64) -> Result<(), ContractError> {
        self.charge_as(GasCategory::Other, gas)
    }

    /// Charges gas attributed to a category. The attribution records the
    /// meter's actual delta (not the requested amount), so on an
    /// out-of-gas abort the breakdown still sums exactly to `gas_used`.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn charge_as(&mut self, category: GasCategory, gas: u64) -> Result<(), ContractError> {
        let before = self.meter.used();
        let result = self.meter.charge(gas);
        self.breakdown.add(category, self.meter.used() - before);
        result
    }

    /// The active gas schedule.
    pub fn schedule(&self) -> &GasSchedule {
        self.schedule
    }

    /// Metered storage read; sees this call's own earlier writes.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn sload(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ContractError> {
        self.charge_as(GasCategory::Sload, self.schedule.sload)?;
        Ok(self
            .writes
            .get(key)
            .or_else(|| self.storage.get(key))
            .cloned())
    }

    /// Metered storage write. Charges the set cost for fresh slots and the
    /// reset cost for overwrites — per EVM semantics, updating the stored
    /// accumulator digest is the cheap path (Table II's 29 144-gas insert).
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn sstore(&mut self, key: &[u8], value: Vec<u8>) -> Result<(), ContractError> {
        let words = (value.len() as u64).div_ceil(32).max(1);
        let cost = if self.writes.contains_key(key) || self.storage.contains_key(key) {
            self.schedule.sstore_reset * words
        } else {
            self.schedule.sstore_set * words
        };
        self.charge_as(GasCategory::Sstore, cost)?;
        self.writes.insert(key.to_vec(), value);
        Ok(())
    }

    /// Queues a balance transfer from the contract to `to`, applied when
    /// the call commits.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn transfer(&mut self, to: Address, amount: u128) -> Result<(), ContractError> {
        self.charge_as(GasCategory::Transfer, self.schedule.call_value_transfer)?;
        self.payouts.push((to, amount));
        Ok(())
    }

    /// Emits an event (an EVM `LOG`-style record, visible in the receipt
    /// and discarded if the call reverts).
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    pub fn emit(&mut self, topic: &str, data: Vec<u8>) -> Result<(), ContractError> {
        // LOG1-flavoured pricing: 375 base + 375 per topic + 8 per byte.
        self.charge_as(
            GasCategory::Event,
            750 + 8 * (topic.len() + data.len()) as u64,
        )?;
        self.logs.push(crate::tx::LogEvent {
            address: self.this,
            topic: topic.to_string(),
            data,
        });
        Ok(())
    }
}

/// A native contract: Rust code executing under gas metering with
/// chain-persisted storage.
///
/// `code()` returns the pseudo-bytecode whose length determines the
/// deployment's code-deposit gas (we serialize the contract's verification
/// parameters, mirroring how a compiled Solidity artifact embeds them).
pub trait Contract: Send {
    /// The deployable code image (charged at `code_deposit` gas per byte).
    fn code(&self) -> Vec<u8>;

    /// Handles a call.
    ///
    /// # Errors
    ///
    /// Any [`ContractError`] reverts the transaction: storage changes and
    /// queued payouts are discarded and the attached value is refunded.
    fn execute(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError>;
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A minimal counter contract used by chain runtime tests.
    pub struct Counter;

    impl Contract for Counter {
        fn code(&self) -> Vec<u8> {
            vec![0xC0; 100]
        }

        fn execute(
            &self,
            ctx: &mut CallContext<'_>,
            input: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match input.first() {
                Some(0x01) => {
                    let cur = ctx
                        .sload(b"count")?
                        .map(|v| u64::from_be_bytes(v.try_into().unwrap_or([0u8; 8])))
                        .unwrap_or(0);
                    ctx.sstore(b"count", (cur + 1).to_be_bytes().to_vec())?;
                    Ok((cur + 1).to_be_bytes().to_vec())
                }
                Some(0x02) => {
                    // Writes, then reverts: the write must not land.
                    ctx.sstore(b"count", u64::MAX.to_be_bytes().to_vec())?;
                    Err(ContractError::Reverted("requested revert".into()))
                }
                Some(0x03) => {
                    // Writes one slot twice, then reads it back.
                    ctx.sstore(b"twice", 1u64.to_be_bytes().to_vec())?;
                    ctx.sstore(b"twice", 2u64.to_be_bytes().to_vec())?;
                    Ok(ctx.sload(b"twice")?.unwrap_or_default())
                }
                _ => Err(ContractError::BadCalldata("unknown selector".into())),
            }
        }
    }
}
