//! Micro-benchmark behind Table II: wall-clock cost of the three contract
//! operations (the gas *units* themselves are reported by the
//! `repro --experiment table2` driver; this bench tracks the simulator's
//! execution cost).

use slicer_chain::{Address, Blockchain, SlicerContract};
use slicer_core::{Query, RecordId, SlicerConfig, SlicerSystem};
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

    {
        let mut sys =
            SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 1, TelemetryHandle::disabled())
                .expect("chain accepts the deployment");
        sys.build(&db).expect("in-domain");
        let mut next = 1_000_000u64;
        group.run("insert_tx", || {
            next += 1;
            black_box(
                sys.insert(&[(RecordId::from_u64(next), 9)])
                    .expect("in-domain"),
            );
        });
    }

    {
        let mut sys =
            SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 1, TelemetryHandle::disabled())
                .expect("chain accepts the deployment");
        sys.build(&db).expect("in-domain");
        group.run("verify_tx", || {
            let out = sys.search(&Query::equal(probe), 10).expect("search runs");
            assert!(out.verified);
            black_box(out);
        });
    }
}
