//! Pins the generated inputs bit for bit: FNV-1a fingerprints of the
//! curve library, one instance of each generator and the DP-SGD cost,
//! hashed field by field in the order of `benchmark/src/inputs.rs`'s
//! `fingerprint`. A speed-up of the accounting or of a generator must
//! leave every value here unchanged. Changing what the generators
//! produce is a workload change (ROADMAP item 10) and lands in its own
//! PR, with these values re-pinned there and nowhere else.

use dp_accounting::dpsgd::DpSgdConfig;
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::Task;
use workloads::alibaba::{self, AlibabaDpConfig};
use workloads::amazon::{self, AmazonConfig};
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{self, MicrobenchmarkConfig};
use workloads::OnlineWorkload;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }

    fn blocks<'a>(&mut self, blocks: impl IntoIterator<Item = (u64, &'a RdpCurve, f64)>) {
        for (id, capacity, arrival) in blocks {
            self.u64(id);
            self.f64s(capacity.values());
            self.u64(arrival.to_bits());
        }
    }

    fn tasks(&mut self, tasks: &[Task]) {
        for t in tasks {
            self.u64(t.id);
            self.u64(t.weight.to_bits());
            self.u64(t.blocks.len() as u64);
            for b in &t.blocks {
                self.u64(*b);
            }
            self.f64s(t.demand.values());
            self.u64(t.arrival.to_bits());
            self.u64(t.timeout.map_or(u64::MAX, f64::to_bits));
        }
    }

    fn online(mut self, wl: &OnlineWorkload) -> u64 {
        self.blocks(wl.blocks.iter().map(|b| (b.id, &b.capacity, b.arrival)));
        self.tasks(&wl.tasks);
        self.0
    }
}

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: the generated inputs changed (fingerprint {got:016x}, pinned {pinned:016x}). \
         A performance change must reproduce them bit for bit; a change to what a generator \
         produces is its own PR (ROADMAP item 10), which re-pins this value"
    );
}

#[test]
fn curve_library_is_pinned() {
    let library = CurveLibrary::standard();
    let mut h = Fnv::new();
    h.f64s(library.capacity().values());
    h.u64(library.curves().len() as u64);
    for spec in library.curves() {
        h.f64s(spec.curve.values());
        h.u64(spec.best_alpha_idx as u64);
        h.u64(spec.eps_min.to_bits());
    }
    assert_pinned("CurveLibrary::standard()", h.0, 0x45f3_35be_00f4_1501);
}

#[test]
fn alibaba_instance_is_pinned() {
    let config = AlibabaDpConfig {
        n_blocks: 45,
        n_tasks: 2_000,
        ..AlibabaDpConfig::default()
    };
    let wl = alibaba::generate(&config, 7);
    assert_pinned(
        "alibaba 45 x 2000, seed 7",
        Fnv::new().online(&wl),
        0xb0cf_7ef0_b3b3_7ebf,
    );
}

#[test]
fn microbenchmark_instance_is_pinned() {
    // The offline_micro benchmark's configuration, at 2 000 tasks.
    let config = MicrobenchmarkConfig {
        n_tasks: 2_000,
        n_blocks: 100,
        mu_blocks: 10.0,
        sigma_blocks: 3.0,
        sigma_alpha: 4.0,
        eps_min: 0.01,
        ..MicrobenchmarkConfig::default()
    };
    let state = microbenchmark::generate(&CurveLibrary::standard(), &config, 7);
    let mut h = Fnv::new();
    h.blocks(state.blocks().iter().map(|(id, c)| (*id, c, 0.0)));
    h.tasks(state.tasks());
    assert_pinned(
        "microbenchmark 2000 x 100, seed 7",
        h.0,
        0xe212_91c7_ca51_d4be,
    );
}

#[test]
fn amazon_instance_is_pinned() {
    let config = AmazonConfig {
        n_blocks: 20,
        mean_tasks_per_block: 100.0,
        weighted: true,
        ..AmazonConfig::default()
    };
    let wl = amazon::generate(&config, 3);
    assert_pinned(
        "amazon 20 blocks, weighted, seed 3",
        Fnv::new().online(&wl),
        0x0660_47d3_44c6_3e37,
    );
}

#[test]
fn dpsgd_privacy_cost_is_pinned() {
    let grid = AlphaGrid::standard();
    let mut h = Fnv::new();
    for (noise_multiplier, sampling_rate, steps) in [(1.1, 0.01, 1_000), (0.8, 0.25, 50)] {
        let config = DpSgdConfig {
            noise_multiplier,
            clip_norm: 1.0,
            sampling_rate,
            steps,
            learning_rate: 0.1,
        };
        h.f64s(config.privacy_cost(&grid).unwrap().values());
    }
    assert_pinned("DpSgdConfig::privacy_cost", h.0, 0xd049_f9b1_0b86_6aff);
}
