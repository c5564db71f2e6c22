//! Medical-records scenario from the paper's introduction: a hospital
//! outsources encrypted patient records with multiple numerical attributes
//! (age, heart rate) and an authorized researcher runs verified range
//! queries per attribute — without the cloud ever seeing a plaintext value.
//!
//! ```text
//! cargo run --release --example medical_records
//! ```

use slicer_core::{Query, Record, RecordId, SlicerConfig, SlicerSystem};
use slicer_crypto::Rng;
use slicer_telemetry::TelemetryHandle;
use slicer_workload::splitmix_stream;

fn main() {
    let mut system =
        SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 7, TelemetryHandle::disabled())
            .expect("chain accepts the deployment");

    // Synthesize a patient cohort: age in [20, 90), resting heart rate in
    // [45, 120).
    let mut rng = splitmix_stream(99);
    let patients: Vec<Record> = (0u64..200)
        .map(|i| {
            let age = 20 + rng.next_u64() % 70;
            let hr = 45 + rng.next_u64() % 75;
            Record::with_attrs(
                RecordId::from_u64(i),
                vec![("age".into(), age), ("heart_rate".into(), hr)],
            )
        })
        .collect();
    system
        .build(&patients)
        .expect("attributes fit the 8-bit domain");
    println!("outsourced {} encrypted patient records", patients.len());

    // Researcher: elderly cohort (age > 75).
    let q_age = Query::greater_than(75).on_attr("age");
    let elderly = system.search(&q_age, 500).expect("chain ok");
    assert!(elderly.verified);
    let oracle =
        |r: &Record, attr: &str, q: &Query| r.attrs.iter().any(|(a, v)| a == attr && q.matches(*v));
    let expect = patients.iter().filter(|p| oracle(p, "age", &q_age)).count();
    println!(
        "age > 75: {} patients (verified on-chain, {} gas)",
        elderly.records.len(),
        elderly.verify_gas
    );
    assert_eq!(elderly.records.len(), expect);

    // Researcher: bradycardia screen (heart rate < 50) — a different
    // attribute over the same encrypted index.
    let q_hr = Query::less_than(50).on_attr("heart_rate");
    let brady = system.search(&q_hr, 500).expect("chain ok");
    assert!(brady.verified);
    let expect = patients
        .iter()
        .filter(|p| oracle(p, "heart_rate", &q_hr))
        .count();
    println!(
        "heart_rate < 50: {} patients (verified)",
        brady.records.len()
    );
    assert_eq!(brady.records.len(), expect);

    // Attributes are cryptographically isolated: the same threshold on the
    // other attribute gives a different cohort.
    let q_cross = Query::less_than(50).on_attr("age");
    let young = system.search(&q_cross, 500).expect("chain ok");
    assert!(young.verified);
    println!(
        "age < 50: {} patients — attribute isolation holds ✓",
        young.records.len()
    );

    // New admissions arrive (forward-secure insert); a repeated query sees
    // them and still verifies against the refreshed on-chain digest.
    let admissions: Vec<Record> = (1000u64..1010)
        .map(|i| {
            Record::with_attrs(
                RecordId::from_u64(i),
                vec![("age".into(), 80), ("heart_rate".into(), 60)],
            )
        })
        .collect();
    let receipt = system.insert(&admissions).expect("fits the domain");
    println!(
        "admitted {} patients; on-chain digest refresh cost {} gas",
        admissions.len(),
        receipt.gas_used
    );

    let elderly2 = system.search(&q_age, 500).expect("chain ok");
    assert!(elderly2.verified);
    assert_eq!(
        elderly2.records.len(),
        elderly.records.len() + admissions.len(),
        "all admissions are age 80 > 75"
    );
    println!(
        "repeat age > 75 after admissions: {} records, still verified ✓",
        elderly2.records.len()
    );
}
