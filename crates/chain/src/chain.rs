//! The blockchain runtime: accounts, deployment, transaction execution and
//! proof-of-authority sealing.

use crate::block::Block;
use crate::contract::{Contract, ContractStorage};
use crate::error::ChainError;
use crate::gas::{GasBreakdown, GasCategory, GasMeter, GasSchedule};
use crate::tx::{Transaction, TxReceipt, TxStatus};
use crate::types::{Address, H256};
use crate::CallContext;
use slicer_telemetry::TelemetryHandle;
use std::collections::BTreeMap;

struct Account {
    balance: u128,
    nonce: u64,
}

struct Deployed {
    contract: Box<dyn Contract>,
    storage: ContractStorage,
}

/// An in-process, deterministic blockchain with a single PoA sealer.
///
/// Transactions execute immediately into a pending block; [`Blockchain::seal_block`]
/// closes the pending block and opens the next (auto-sealing on every
/// transaction is what Ganache-style dev chains do and what the Slicer
/// protocol wiring uses).
pub struct Blockchain {
    schedule: GasSchedule,
    // Ordered maps keep account/contract iteration deterministic across
    // runs (det.hash_collection invariant).
    accounts: BTreeMap<Address, Account>,
    contracts: BTreeMap<Address, Deployed>,
    blocks: Vec<Block>,
    pending: Vec<TxReceipt>,
    telemetry: TelemetryHandle,
}

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("accounts", &self.accounts.len())
            .field("contracts", &self.contracts.len())
            .finish()
    }
}

impl Blockchain {
    /// A fresh chain containing only the genesis block.
    pub fn new() -> Self {
        Self::with_schedule(GasSchedule::default())
    }

    /// A fresh chain with a custom gas schedule.
    pub fn with_schedule(schedule: GasSchedule) -> Self {
        Blockchain {
            schedule,
            accounts: BTreeMap::new(),
            contracts: BTreeMap::new(),
            blocks: vec![Block::genesis()],
            pending: Vec::new(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry context. Deployments, transactions and seals
    /// then record `chain.deploy`, `chain.tx` and `chain.seal` spans
    /// carrying their gas, hash and block attributes. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The active gas schedule.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Funds (or creates) an externally owned account.
    pub fn create_account(&mut self, addr: Address, balance: u128) {
        self.accounts
            .entry(addr)
            .or_insert(Account {
                balance: 0,
                nonce: 0,
            })
            .balance += balance;
    }

    /// Balance of an account (zero if unknown).
    pub fn balance(&self, addr: &Address) -> u128 {
        self.accounts.get(addr).map_or(0, |a| a.balance)
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.number)
    }

    /// All sealed blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Verifies the whole hash chain (integrity check used in tests and by
    /// auditors).
    pub fn verify_chain(&self) -> bool {
        self.blocks.windows(2).all(|w| match w {
            [parent, child] => child.verify_link(parent),
            _ => true,
        })
    }

    /// Reads a raw storage slot of a deployed contract (a public-state
    /// query, like `eth_getStorageAt`).
    #[cfg(test)]
    fn storage_at(&self, contract: &Address, key: &[u8]) -> Option<Vec<u8>> {
        self.contracts
            .get(contract)
            .and_then(|d| d.storage.get(key).cloned())
    }

    /// All events with the given topic across sealed blocks (an
    /// `eth_getLogs`-style filter) — how third parties audit settlement
    /// outcomes.
    pub fn logs_by_topic(&self, topic: &str) -> Vec<&crate::tx::LogEvent> {
        self.blocks
            .iter()
            .flat_map(|b| &b.receipts)
            .flat_map(|r| &r.logs)
            .filter(|l| l.topic == topic)
            .collect()
    }

    /// Deploys a native contract, charging deployment gas to `from`.
    ///
    /// # Errors
    ///
    /// Fails if the deployer is unknown or cannot cover `value`.
    pub fn deploy_contract(
        &mut self,
        from: Address,
        contract: Box<dyn Contract>,
        value: u128,
    ) -> Result<DeployOutcome, ChainError> {
        let mut span = self.telemetry.span("chain.deploy");
        let nonce = {
            let acct = self
                .accounts
                .get_mut(&from)
                .ok_or(ChainError::UnknownAccount(from))?;
            if acct.balance < value {
                return Err(ChainError::InsufficientBalance {
                    account: from,
                    have: acct.balance,
                    need: value,
                });
            }
            acct.balance -= value;
            let n = acct.nonce;
            acct.nonce += 1;
            n
        };
        let code = contract.code();
        let mut gas_breakdown = GasBreakdown::default();
        gas_breakdown.add(
            GasCategory::Intrinsic,
            self.schedule.tx_base + self.schedule.tx_create + self.schedule.calldata_cost(&code),
        );
        gas_breakdown.add(
            GasCategory::CodeDeposit,
            self.schedule.code_deposit * code.len() as u64,
        );
        let gas_used = gas_breakdown.total();
        let address = Address::for_contract(&from, nonce);
        self.contracts.insert(
            address,
            Deployed {
                contract,
                storage: ContractStorage::new(),
            },
        );
        // Contracts hold escrowed value in an account of their own.
        self.create_account(address, value);

        let tx_hash = H256::of(&[from.0.as_slice(), &nonce.to_be_bytes(), &code].concat());
        let receipt = TxReceipt {
            tx_hash,
            block_number: self.height() + 1,
            gas_used,
            status: TxStatus::Succeeded,
            output: address.0.to_vec(),
            logs: Vec::new(),
            gas_breakdown,
        };
        if span.is_recording() {
            span.attr("gas.used", gas_used);
            span.attr("tx.hash", tx_hash.to_string());
        }
        self.pending.push(receipt.clone());
        Ok(DeployOutcome {
            address,
            gas_used,
            receipt,
        })
    }

    /// Executes a transaction against a deployed contract.
    ///
    /// Contract storage is mutated only if the call succeeds; on revert the
    /// attached value is refunded to the sender. Gas is consumed either way
    /// (as on Ethereum).
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] for malformed transactions (unknown sender,
    /// unknown contract, insufficient balance or gas limit below the
    /// intrinsic cost). Contract-level failures are reported in the receipt
    /// status, not as errors.
    pub fn send_transaction(&mut self, tx: Transaction) -> Result<TxReceipt, ChainError> {
        let mut span = self.telemetry.span("chain.tx");
        let intrinsic =
            self.schedule.tx_base + self.schedule.calldata_cost(&tx.data) + self.schedule.call_base;
        if tx.gas_limit < intrinsic {
            return Err(ChainError::IntrinsicGasTooLow {
                limit: tx.gas_limit,
                needed: intrinsic,
            });
        }
        if !self.contracts.contains_key(&tx.to) {
            return Err(ChainError::UnknownContract(tx.to));
        }
        let mut meter = GasMeter::new(tx.gas_limit);
        if meter.charge(intrinsic).is_err() {
            return Err(ChainError::IntrinsicGasTooLow {
                limit: tx.gas_limit,
                needed: intrinsic,
            });
        }
        let nonce = {
            let acct = self
                .accounts
                .get_mut(&tx.from)
                .ok_or(ChainError::UnknownAccount(tx.from))?;
            if acct.balance < tx.value {
                return Err(ChainError::InsufficientBalance {
                    account: tx.from,
                    have: acct.balance,
                    need: tx.value,
                });
            }
            acct.balance -= tx.value;
            let n = acct.nonce;
            acct.nonce += 1;
            n
        };

        let mut gas_breakdown = GasBreakdown::default();
        gas_breakdown.add(GasCategory::Intrinsic, intrinsic);

        // Buffer the call's storage writes so reverts roll back cleanly:
        // they apply only on success, like the payouts and logs.
        let mut writes = ContractStorage::new();
        let mut payouts: Vec<(Address, u128)> = Vec::new();
        let mut logs: Vec<crate::tx::LogEvent> = Vec::new();
        let result = match self.contracts.get(&tx.to) {
            Some(deployed) => {
                let mut ctx = CallContext {
                    caller: tx.from,
                    value: tx.value,
                    this: tx.to,
                    storage: &deployed.storage,
                    writes: &mut writes,
                    meter: &mut meter,
                    schedule: &self.schedule,
                    payouts: &mut payouts,
                    logs: &mut logs,
                    breakdown: &mut gas_breakdown,
                };
                deployed.contract.execute(&mut ctx, &tx.data)
            }
            None => return Err(ChainError::UnknownContract(tx.to)),
        };

        // Settlement safety: a contract that queues payouts beyond its
        // escrow reverts as a whole instead of settling partially (or
        // crashing the runtime, as the old assert! did).
        let result = result.and_then(|out| {
            let escrow = self.balance(&tx.to).saturating_add(tx.value);
            let total = payouts
                .iter()
                .fold(0u128, |acc, (_, amount)| acc.saturating_add(*amount));
            if total > escrow {
                Err(crate::error::ContractError::EscrowOverdraw {
                    have: escrow,
                    need: total,
                })
            } else {
                Ok(out)
            }
        });

        let (status, output) = match result {
            Ok(out) => {
                if let Some(deployed) = self.contracts.get_mut(&tx.to) {
                    deployed.storage.extend(writes);
                }
                // Value moves into the contract's escrow account, then
                // queued payouts (validated against escrow above) apply.
                self.create_account(tx.to, tx.value);
                for (to, amount) in payouts {
                    if let Some(contract_acct) = self.accounts.get_mut(&tx.to) {
                        contract_acct.balance = contract_acct.balance.saturating_sub(amount);
                    }
                    self.create_account(to, amount);
                }
                (TxStatus::Succeeded, out)
            }
            Err(e) => {
                // Revert: refund the value, keep the gas, drop the logs.
                logs.clear();
                self.create_account(tx.from, tx.value);
                (TxStatus::Reverted(e.to_string()), Vec::new())
            }
        };

        let receipt = TxReceipt {
            tx_hash: tx.hash(nonce),
            block_number: self.height() + 1,
            gas_used: meter.used(),
            status,
            output,
            logs,
            gas_breakdown,
        };
        if span.is_recording() {
            span.attr("gas.used", receipt.gas_used);
            span.attr("gas.category", dominant_category(&receipt.gas_breakdown));
            span.attr("tx.hash", receipt.tx_hash.to_string());
            span.attr("status", receipt.status.is_success());
        }
        self.pending.push(receipt.clone());
        Ok(receipt)
    }

    /// Seals the pending block (PoA: the single sealer signs by fiat).
    pub fn seal_block(&mut self) {
        let mut span = self.telemetry.span("chain.seal");
        let receipts = std::mem::take(&mut self.pending);
        if span.is_recording() {
            span.attr("block", self.height() + 1);
            span.attr("txs", receipts.len());
        }
        let block = match self.blocks.last() {
            Some(parent) => Block::seal(parent, receipts),
            None => Block::genesis(),
        };
        self.blocks.push(block);
    }
}

/// The gas-breakdown bucket with the largest charge — the one-word answer
/// to "where did this transaction's gas go".
fn dominant_category(breakdown: &GasBreakdown) -> &'static str {
    breakdown
        .entries()
        .iter()
        .max_by_key(|(_, gas)| *gas)
        .map_or("other", |(name, _)| name)
}

/// Result of a contract deployment.
#[derive(Debug, Clone)]
pub struct DeployOutcome {
    /// Address of the new contract.
    pub address: Address,
    /// Gas consumed by the deployment.
    pub gas_used: u64,
    /// Full receipt.
    pub receipt: TxReceipt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::testing::Counter;

    fn setup() -> (Blockchain, Address, Address) {
        let mut chain = Blockchain::new();
        let user = Address::from_byte(1);
        chain.create_account(user, 1_000_000);
        let out = chain.deploy_contract(user, Box::new(Counter), 0).unwrap();
        (chain, user, out.address)
    }

    #[test]
    fn deploy_charges_code_deposit() {
        let (chain, _, _) = setup();
        let r = &chain.blocks[0]; // pending not sealed yet; check via receipt
        let _ = r;
        // 100 bytes of 0xC0 code: 21000 + 32000 + 100*16 + 100*200 = 74 600.
        let mut chain2 = Blockchain::new();
        let u = Address::from_byte(2);
        chain2.create_account(u, 0);
        let out = chain2.deploy_contract(u, Box::new(Counter), 0).unwrap();
        assert_eq!(out.gas_used, 21_000 + 32_000 + 1_600 + 20_000);
    }

    #[test]
    fn call_mutates_storage_and_returns_output() {
        let (mut chain, user, addr) = setup();
        let r1 = chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        assert!(r1.status.is_success());
        assert_eq!(r1.output, 1u64.to_be_bytes());
        let r2 = chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        assert_eq!(r2.output, 2u64.to_be_bytes());
        assert_eq!(
            chain.storage_at(&addr, b"count"),
            Some(2u64.to_be_bytes().to_vec())
        );
    }

    #[test]
    fn revert_rolls_back_storage_and_refunds_value() {
        let (mut chain, user, addr) = setup();
        chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        let before = chain.balance(&user);
        let r = chain
            .send_transaction(Transaction::call(user, addr, 500, vec![0x02]))
            .unwrap();
        assert!(!r.status.is_success());
        assert_eq!(chain.balance(&user), before, "value refunded");
        assert_eq!(
            chain.storage_at(&addr, b"count"),
            Some(1u64.to_be_bytes().to_vec()),
            "counter unchanged by reverted call"
        );
    }

    #[test]
    fn a_slot_written_twice_in_one_call_is_set_then_reset() {
        let (mut chain, user, addr) = setup();
        let r = chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x03]))
            .unwrap();
        assert!(r.status.is_success());
        // The second write finds the first one buffered in the call.
        assert_eq!(r.gas_breakdown.sstore, 20_000 + 5_000);
        assert_eq!(r.output, 2u64.to_be_bytes(), "sload sees the call's write");
        assert_eq!(
            chain.storage_at(&addr, b"twice"),
            Some(2u64.to_be_bytes().to_vec())
        );
        // Once committed, both writes of the next call are resets.
        let r = chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x03]))
            .unwrap();
        assert_eq!(r.gas_breakdown.sstore, 5_000 + 5_000);
    }

    #[test]
    fn unknown_contract_rejected() {
        let (mut chain, user, _) = setup();
        let err = chain
            .send_transaction(Transaction::call(user, Address::from_byte(0xEE), 0, vec![]))
            .unwrap_err();
        assert!(matches!(err, ChainError::UnknownContract(_)));
    }

    #[test]
    fn insufficient_balance_rejected() {
        let (mut chain, user, addr) = setup();
        let err = chain
            .send_transaction(Transaction::call(user, addr, u128::MAX, vec![0x01]))
            .unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
    }

    #[test]
    fn gas_limit_enforced() {
        let (mut chain, user, addr) = setup();
        let mut tx = Transaction::call(user, addr, 0, vec![0x01]);
        tx.gas_limit = 22_000; // covers intrinsic but not sload + sstore
        let r = chain.send_transaction(tx).unwrap();
        assert!(matches!(r.status, TxStatus::Reverted(ref s) if s.contains("out of gas")));
    }

    #[test]
    fn events_survive_success_and_die_on_revert() {
        use crate::{SlicerCall, SlicerContract};
        let mut chain = Blockchain::new();
        let owner = Address::from_byte(9);
        chain.create_account(owner, 1_000);
        let out = chain
            .deploy_contract(
                owner,
                Box::new(SlicerContract::new(
                    slicer_accumulator::RsaParams::fixed_512(),
                    128,
                    owner,
                )),
                0,
            )
            .unwrap();
        // Success path emits AccumulatorUpdated.
        let call = SlicerCall::SetAccumulator(vec![1u8; 64]);
        let r = chain
            .send_transaction(Transaction::call(owner, out.address, 0, call.encode()))
            .unwrap();
        assert_eq!(r.logs.len(), 1);
        assert_eq!(r.logs[0].topic, "AccumulatorUpdated");
        assert_eq!(r.logs[0].address, out.address);
        // Unauthorized caller reverts with no logs.
        let stranger = Address::from_byte(8);
        chain.create_account(stranger, 1_000);
        let call = SlicerCall::SetAccumulator(vec![2u8; 64]);
        let r = chain
            .send_transaction(Transaction::call(stranger, out.address, 0, call.encode()))
            .unwrap();
        assert!(!r.status.is_success());
        assert!(r.logs.is_empty(), "reverted calls emit nothing");
    }

    #[test]
    fn breakdown_reconciles_with_gas_used() {
        let (mut chain, user, addr) = setup();
        let r = chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        assert_eq!(r.gas_breakdown.total(), r.gas_used);
        assert!(r.gas_breakdown.intrinsic >= 21_000);
        assert_eq!(r.gas_breakdown.sload, 800);
        assert_eq!(r.gas_breakdown.sstore, 20_000);

        // Out-of-gas abort: the truncated charge still reconciles.
        let mut tx = Transaction::call(user, addr, 0, vec![0x01]);
        tx.gas_limit = 22_000;
        let r = chain.send_transaction(tx).unwrap();
        assert!(!r.status.is_success());
        assert_eq!(r.gas_breakdown.total(), r.gas_used);
        assert_eq!(r.gas_used, 22_000);
    }

    #[test]
    fn deploy_breakdown_reconciles() {
        let mut chain = Blockchain::new();
        let u = Address::from_byte(3);
        chain.create_account(u, 0);
        let out = chain.deploy_contract(u, Box::new(Counter), 0).unwrap();
        assert_eq!(out.receipt.gas_breakdown.total(), out.gas_used);
        assert_eq!(out.receipt.gas_breakdown.code_deposit, 20_000);
    }

    #[test]
    fn blocks_seal_and_chain_verifies() {
        let (mut chain, user, addr) = setup();
        chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        chain.seal_block();
        chain
            .send_transaction(Transaction::call(user, addr, 0, vec![0x01]))
            .unwrap();
        chain.seal_block();
        assert_eq!(chain.height(), 2);
        assert!(chain.verify_chain());
        assert_eq!(chain.blocks()[1].receipts.len(), 2); // deploy + call
    }
}
