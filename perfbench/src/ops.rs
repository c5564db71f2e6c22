//! The workloads: seeded datasets, the request stream each one sends, and
//! the plaintext oracle every search answer is checked against.

use slicer_core::Query;
use slicer_crypto::Rng;
use slicer_workload::{splitmix_stream, DatasetSpec, Distribution};

/// Value width of every workload: the paper's middle setting.
pub const VALUE_BITS: u8 = 16;

/// Escrow attached to every search.
pub const PAYMENT: u128 = 1_000;

/// Searches that follow each single-record ingest in `ingest_mixed`.
const SEARCHES_PER_INGEST: usize = 4;

/// Ingest values drawn per refill of the stream.
const BLOCK: usize = 256;

/// Queries per operator in one block of the query stream.
const QUERIES_PER_OP: usize = 85;

/// Seed of every workload's base dataset.
const DATASET_SEED: u64 = 2022;

/// Salt separating the ingest-value stream from the query stream.
const INGEST_SALT: u64 = 0x1A6E_57ED_0000_0001;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only searches over a small uniform dataset with a large prime
    /// list: cost is the batched membership witness.
    SearchUniform,
    /// One single-record ingest, then four searches, repeated on a
    /// Zipf-skewed base, where search cost follows the number of results.
    IngestMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::SearchUniform, Workload::IngestMixed];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchUniform => "search_uniform",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Whether the measured window itself holds ingests.
    pub fn ingests_in_window(self) -> bool {
        self == Workload::IngestMixed
    }

    /// Requests per slice of the window when the workload sends at a
    /// fixed rate, idling out the rest of each slice; `None` for a closed
    /// loop that fills the slice.
    ///
    /// `ingest_mixed`'s searches cost more with every ingest before them.
    /// In a closed loop a faster machine would send more ingests and so
    /// pay more per search; at a fixed rate every run builds the same
    /// state. Ten cycles take about 2 s of a 3.75 s slice on the VM the
    /// benchmark was built on.
    pub fn requests_per_slice(self, smoke: bool) -> Option<usize> {
        let cycles = if smoke { 2 } else { 10 };
        self.ingests_in_window()
            .then_some(cycles * (SEARCHES_PER_INGEST + 1))
    }

    /// The base dataset loaded during set-up. It does not depend on the
    /// run's seed: each workload keeps one dataset, so runs under
    /// different seeds (which draw different request streams) differ by
    /// their requests and the machine, not by dataset-to-dataset
    /// variation. `smoke` shrinks it so a run finishes in seconds.
    pub fn dataset(self, smoke: bool) -> DatasetSpec {
        let skewed = |records| DatasetSpec {
            records,
            bits: VALUE_BITS,
            distribution: Distribution::Zipf { exponent: 1.0 },
            seed: DATASET_SEED,
        };
        match (self, smoke) {
            (Workload::IngestMixed, false) => skewed(2_000),
            (Workload::IngestMixed, true) => skewed(200),
            (Workload::SearchUniform, false) => DatasetSpec::uniform(500, VALUE_BITS, DATASET_SEED),
            (Workload::SearchUniform, true) => DatasetSpec::uniform(60, VALUE_BITS, DATASET_SEED),
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A verified search.
    Search(Query),
    /// A single-record ingest `(record id, value)`.
    Ingest(u64, u64),
}

/// The base dataset as `(record id, value)` pairs; ids start at 1.
pub fn base_records(spec: &DatasetSpec) -> Vec<(u64, u64)> {
    spec.generate()
        .into_iter()
        .enumerate()
        .map(|(i, (_, v))| (i as u64 + 1, v))
        .collect()
}

/// SplitMix-style derivation of the seed of block `index` of a stream.
fn block_seed(seed: u64, index: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index + 1)
}

/// The deterministic request stream of one run. The same workload,
/// dataset and seed always yield the same requests in the same order;
/// only how many of them fit in the window depends on speed.
#[derive(Debug)]
pub struct OpStream {
    workload: Workload,
    seed: u64,
    sorted: Vec<u64>,
    distribution: Distribution,
    queries: Vec<Query>,
    query_blocks: u64,
    values: Vec<u64>,
    value_blocks: u64,
    next_id: u64,
    issued: usize,
}

impl OpStream {
    /// The stream for `spec`'s dataset under `seed`.
    pub fn new(workload: Workload, spec: &DatasetSpec, seed: u64) -> Self {
        let mut sorted: Vec<u64> = spec.generate().into_iter().map(|(_, v)| v).collect();
        sorted.sort_unstable();
        OpStream {
            workload,
            seed,
            sorted,
            distribution: spec.distribution,
            queries: Vec::new(),
            query_blocks: 0,
            values: Vec::new(),
            value_blocks: 0,
            next_id: spec.records as u64 + 1,
            issued: 0,
        }
    }

    /// The next request of the measured window.
    pub fn next_op(&mut self) -> Op {
        let cycle = SEARCHES_PER_INGEST + 1;
        let ingest = self.workload.ingests_in_window() && self.issued.is_multiple_of(cycle);
        self.issued += 1;
        if ingest {
            self.next_ingest()
        } else {
            Op::Search(self.next_query())
        }
    }

    /// The next search: a value present in the base data under an
    /// operator rotating eq, lt, gt.
    ///
    /// Query cost depends on the operator and on how many records share
    /// the value, so a plain random draw would change the mix of cheap
    /// and costly queries, and with it the latency median, from seed to
    /// seed. Each block therefore takes, per operator, a systematic
    /// sample of the sorted data values (evenly spaced ranks from a
    /// seeded offset) in a seeded order: popular values are exactly as
    /// popular as in the data, and only which values and their order
    /// depend on the seed.
    pub fn next_query(&mut self) -> Query {
        if self.queries.is_empty() {
            let mut rng = splitmix_stream(block_seed(self.seed, self.query_blocks));
            self.query_blocks += 1;
            let n = self.sorted.len();
            let mut per_op: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    let offset = (rng.next_u64() % n as u64) as usize;
                    let mut values: Vec<u64> = (0..QUERIES_PER_OP)
                        .map(|j| self.sorted[(offset + j * n / QUERIES_PER_OP) % n])
                        .collect();
                    for i in (1..values.len()).rev() {
                        values.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                    }
                    values
                })
                .collect();
            let gt = per_op.pop().expect("three operators");
            let lt = per_op.pop().expect("three operators");
            let eq = per_op.pop().expect("three operators");
            self.queries = eq
                .into_iter()
                .zip(lt)
                .zip(gt)
                .flat_map(|((e, l), g)| {
                    [Query::equal(e), Query::less_than(l), Query::greater_than(g)]
                })
                .rev()
                .collect();
        }
        self.queries.pop().expect("refilled above")
    }

    /// The next single-record ingest.
    pub fn next_ingest(&mut self) -> Op {
        let (id, value) = self.next_record();
        Op::Ingest(id, value)
    }

    /// A fresh record id and a value from the dataset's distribution.
    pub fn next_record(&mut self) -> (u64, u64) {
        if self.values.is_empty() {
            let spec = DatasetSpec {
                records: BLOCK,
                bits: VALUE_BITS,
                distribution: self.distribution,
                seed: block_seed(self.seed ^ INGEST_SALT, self.value_blocks),
            };
            self.value_blocks += 1;
            self.values = spec.generate().into_iter().map(|(_, v)| v).rev().collect();
        }
        let id = self.next_id;
        self.next_id += 1;
        (id, self.values.pop().expect("refilled above"))
    }
}

/// The plaintext oracle: every live record, so any search answer can be
/// recomputed with [`Query::matches`].
#[derive(Debug)]
pub struct Oracle {
    records: Vec<(u64, u64)>,
}

impl Oracle {
    /// An oracle over the base dataset.
    pub fn new(base: &[(u64, u64)]) -> Self {
        Oracle {
            records: base.to_vec(),
        }
    }

    /// Records an acknowledged ingest.
    pub fn insert(&mut self, id: u64, value: u64) {
        self.records.push((id, value));
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The ids `query` must return, ascending.
    pub fn expected(&self, query: &Query) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .records
            .iter()
            .filter(|(_, v)| query.matches(*v))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether `ids` (in any order, with multiplicity) is exactly the
    /// answer to `query`.
    pub fn check(&self, query: &Query, ids: &[u64]) -> bool {
        let mut got = ids.to_vec();
        got.sort_unstable();
        got == self.expected(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_a_tiny_fixture() {
        let mut oracle = Oracle::new(&[(1, 10), (2, 20), (3, 20), (4, 30)]);
        assert_eq!(oracle.expected(&Query::equal(20)), vec![2, 3]);
        assert_eq!(oracle.expected(&Query::less_than(20)), vec![1]);
        assert_eq!(oracle.expected(&Query::greater_than(20)), vec![4]);
        assert!(oracle.expected(&Query::equal(25)).is_empty());
        assert!(oracle.check(&Query::equal(20), &[3, 2]));
        assert!(!oracle.check(&Query::equal(20), &[2]), "a dropped record");
        assert!(!oracle.check(&Query::equal(20), &[2, 3, 3]), "a duplicate");
        assert!(
            !oracle.check(&Query::less_than(20), &[1, 2]),
            "an extra record"
        );
        oracle.insert(5, 20);
        assert_eq!(oracle.len(), 5);
        assert!(oracle.check(&Query::equal(20), &[5, 2, 3]));
    }

    #[test]
    fn streams_repeat_per_seed_and_follow_the_mix() {
        for workload in Workload::ALL {
            let spec = workload.dataset(true);
            let take = |seed| {
                let mut s = OpStream::new(workload, &spec, seed);
                (0..600).map(|_| s.next_op()).collect::<Vec<_>>()
            };
            let ops = take(3);
            assert_eq!(ops, take(3));
            assert_ne!(ops, take(4));
            let ingests = ops.iter().filter(|o| matches!(o, Op::Ingest(..))).count();
            if workload.ingests_in_window() {
                assert_eq!(ingests, 120);
                assert!(matches!(ops[0], Op::Ingest(id, _) if id == spec.records as u64 + 1));
            } else {
                assert_eq!(ingests, 0);
            }
            let values: Vec<u64> = base_records(&spec).iter().map(|r| r.1).collect();
            for op in &ops {
                match op {
                    Op::Search(q) => assert!(values.contains(&q.value)),
                    Op::Ingest(_, v) => assert!(*v < 1 << VALUE_BITS),
                }
            }
        }
    }

    #[test]
    fn every_query_block_holds_the_data_mix() {
        use slicer_core::QueryOp;
        let spec = Workload::IngestMixed.dataset(false);
        let values: Vec<u64> = base_records(&spec).iter().map(|r| r.1).collect();
        let popular = values.iter().filter(|v| **v == 0).count() as f64 / values.len() as f64;
        assert!(popular > 0.3, "Zipf puts its head at value 0");
        for seed in [1, 2, 3] {
            let mut stream = OpStream::new(Workload::IngestMixed, &spec, seed);
            let block: Vec<Query> = (0..3 * QUERIES_PER_OP)
                .map(|_| stream.next_query())
                .collect();
            for op in [QueryOp::Equal, QueryOp::LessThan, QueryOp::GreaterThan] {
                let of_op: Vec<&Query> = block.iter().filter(|q| q.op == op).collect();
                assert_eq!(of_op.len(), QUERIES_PER_OP);
                let share =
                    of_op.iter().filter(|q| q.value == 0).count() as f64 / QUERIES_PER_OP as f64;
                assert!((share - popular).abs() < 1.0 / QUERIES_PER_OP as f64);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
