//! Micro-benchmark behind Fig. 5 / Fig. 6: equality vs order search,
//! result generation vs VO generation, and the whole answer (`respond`)
//! served from kept answers.

use slicer_core::{CloudServer, DataOwner, Query, RecordId, SlicerConfig, WitnessStrategy};
use slicer_testkit::bench::{black_box, Bench};
use slicer_workload::DatasetSpec;
use std::cell::RefCell;

fn setup(n: usize, bits: u8) -> (DataOwner, CloudServer, u64) {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(n, bits, 1)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let probe = db[n / 2].1;
    let mut owner = DataOwner::new(SlicerConfig::with_bits(bits), 1);
    let out = owner.build(&db).expect("in-domain");
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).expect("fresh cloud");
    (owner, cloud, probe)
}

fn main() {
    let mut group = Bench::new("search");
    for bits in [8u8, 16] {
        let (owner, mut cloud, probe) = setup(2_000, bits);

        let eq_tokens = owner.search_tokens(&Query::equal(probe));
        group.run(&format!("equality/results/{bits}"), || {
            black_box(cloud.search(&eq_tokens));
        });
        let eq_results = cloud.search(&eq_tokens);
        group.run(&format!("equality/vo/{bits}"), || {
            black_box(cloud.prove(&eq_results).expect("bench state is honest"));
        });

        let ord_tokens = owner.search_tokens(&Query::less_than(probe));
        group.run(&format!("order/results/{bits}"), || {
            black_box(cloud.search(&ord_tokens));
        });
        let ord_results = cloud.search(&ord_tokens);
        cloud.set_strategy(WitnessStrategy::Batched);
        group.run(&format!("order/vo_batched/{bits}"), || {
            black_box(cloud.prove(&ord_results).expect("bench state is honest"));
        });

        // The same order query again: every token is an exact repeat of
        // its keyword's kept answer.
        cloud.respond(&ord_tokens).expect("bench state is honest");
        group.run(&format!("order/respond_repeat/{bits}"), || {
            black_box(cloud.respond(&ord_tokens).expect("bench state is honest"));
        });

        // One single-record insert, then the same query: the tokens of the
        // keywords it touched join their kept answers.
        let (owner, cloud) = (RefCell::new(owner), RefCell::new(cloud));
        let mut next = 1_000_000u64;
        group.run_batched(
            &format!("order/respond_after_insert/{bits}"),
            || {
                next += 1;
                let mut owner = owner.borrow_mut();
                let value = next.wrapping_mul(7_919) % probe.max(1);
                let out = owner
                    .insert(&[(RecordId::from_u64(next), value)])
                    .expect("in-domain");
                cloud.borrow_mut().ingest(&out).expect("fresh labels");
                owner.search_tokens(&Query::less_than(probe))
            },
            |tokens| {
                let resp = cloud.borrow_mut().respond(&tokens);
                black_box(resp.expect("bench state is honest"));
            },
        );
    }
}
