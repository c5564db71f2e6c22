//! Micro-benchmark behind Table II: wall-clock cost of the three contract
//! operations (the gas *units* themselves are reported by the
//! `repro --experiment table2` driver; this bench tracks the simulator's
//! execution cost).

use slicer_chain::{Address, Blockchain, SlicerContract};
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;
use slicer_testkit::bench::{black_box, Bench};
use slicer_workload::DatasetSpec;

fn main() {
    let mut group = Bench::new("gas");

    group.run("deploy", || {
        let mut chain = Blockchain::new();
        let d = Address::from_byte(1);
        chain.create_account(d, 1);
        black_box(
            chain
                .deploy_contract(d, Box::new(SlicerContract::fixed_512()), 0)
                .expect("funded"),
        );
    });

    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(300, 8, 1)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let probe = db[0].1;
    let built = |chain: &mut Blockchain| {
        let mut inst = SlicerInstance::try_setup_with(
            SlicerConfig::test_8bit(),
            1,
            chain,
            TelemetryHandle::disabled(),
        )
        .expect("chain accepts the deployment");
        inst.build(chain, &db).expect("in-domain");
        inst
    };

    {
        let mut chain = Blockchain::new();
        let mut inst = built(&mut chain);
        let mut next = 1_000_000u64;
        group.run("insert_tx", || {
            next += 1;
            black_box(
                inst.insert(&mut chain, &[(RecordId::from_u64(next), 9)])
                    .expect("in-domain"),
            );
        });
    }

    {
        let mut chain = Blockchain::new();
        let mut inst = built(&mut chain);
        group.run("verify_tx", || {
            let out = inst
                .search(&mut chain, &Query::equal(probe), 10)
                .expect("search runs");
            assert!(out.verified);
            black_box(out);
        });
    }
}
