//! The seed is the only source of the inputs: the same seed gives
//! byte-identical inputs and identical exact metrics, another seed
//! gives other inputs.

use dpack_benchmark::harness::{Args, Bench};
use dpack_benchmark::{inputs, workloads};

/// Fingerprints of every workload's smoke-size inputs.
fn fingerprints(seed: u64) -> Vec<u64> {
    let micro = inputs::micro(seed, true);
    let alibaba = inputs::alibaba(seed, true);
    let stream = inputs::stream(seed, 2_000);
    let zipf = inputs::zipf(seed, 1_000, 2_048);
    vec![
        inputs::fingerprint_state(&micro),
        inputs::fingerprint_state(&inputs::micro_sub(seed)),
        inputs::fingerprint_blocks(&alibaba.blocks, &alibaba.tasks),
        inputs::fingerprint_blocks(&stream.blocks, &stream.tasks),
        inputs::fingerprint_blocks(&zipf.blocks, &zipf.tasks),
    ]
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let (a, again, b) = (fingerprints(7), fingerprints(7), fingerprints(8));
    assert_eq!(a, again);
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y, "two seeds generated identical inputs");
    }
}

/// One traced smoke run of `workload`; the values of `names`.
fn exact_metrics(workload: &str, seed: u64, names: &[&str]) -> Vec<f64> {
    let mut bench = Bench::new(&Args {
        workload: Some(workload.into()),
        seed,
        seconds: 0.0,
        trace: true,
        smoke: true,
        aa: false,
    });
    workloads::run(workload, &mut bench).expect("known workload");
    assert_eq!(
        bench.failures(),
        &[] as &[String],
        "{workload} failed its checks"
    );
    let values: Vec<f64> = names.iter().map(|n| bench.value_of(n)).collect();
    assert!(
        values.iter().all(|v| *v > 0.0),
        "{workload}: {names:?} = {values:?}"
    );
    values
}

#[test]
fn same_seed_same_exact_metrics() {
    for (workload, names) in [
        (
            "offline_micro",
            &["allocated_tasks", "paper.allocated_vs_dpf"][..],
        ),
        (
            "online_alibaba",
            &[
                "allocated_tasks",
                "paper.allocated_vs_dpf",
                "paper.shard_efficiency",
            ][..],
        ),
        (
            "durable_stream",
            &[
                "allocated_tasks",
                "wal.bytes_per_grant",
                "wal.syncs_per_kgrant",
            ][..],
        ),
    ] {
        let first = exact_metrics(workload, 3, names);
        assert_eq!(first, exact_metrics(workload, 3, names), "{workload}");
    }
}
