//! Micro-benches for the RDP accounting substrate: curve evaluation,
//! composition and conversion throughput. Runs on the vendored
//! `dpack_bench::micro` harness (`--smoke` for the CI rot guard).

use dp_accounting::mechanisms::{
    GaussianMechanism, LaplaceMechanism, Mechanism, SubsampledGaussian, SubsampledLaplace,
};
use dp_accounting::{block_capacity, rdp_to_dp, AlphaGrid};
use dpack_bench::micro::Micro;

fn main() {
    let grid = AlphaGrid::standard();
    let mut m = Micro::new("rdp_accounting — curves, composition, conversion");

    let gaussian = GaussianMechanism::new(2.0).expect("valid");
    m.bench("curve/gaussian", || gaussian.curve(&grid));
    let laplace = LaplaceMechanism::new(1.5).expect("valid");
    m.bench("curve/laplace", || laplace.curve(&grid));
    let subsampled = SubsampledGaussian::new(1.0, 0.01).expect("valid");
    m.bench("curve/subsampled_gaussian", || subsampled.curve(&grid));
    // The Alibaba-DP generator's GPU range: σ ∈ [0.5, 4], q ∈ [0.005, 0.1].
    let sgm_alibaba = SubsampledGaussian::new(0.8, 0.05).expect("valid");
    m.bench("curve/subsampled_gaussian_alibaba", || {
        sgm_alibaba.curve(&grid)
    });
    let sublaplace = SubsampledLaplace::new(2.0, 0.1).expect("valid");
    m.bench("curve/subsampled_laplace", || sublaplace.curve(&grid));

    let step = subsampled.curve(&grid);
    m.bench("compose/1000_steps", || step.compose_k(1000));
    let run = step.compose_k(1000);
    m.bench("convert/rdp_to_dp", || rdp_to_dp(&run, 1e-6));
    m.bench("convert/block_capacity", || {
        block_capacity(&grid, 10.0, 1e-7)
    });
    m.finish();
}
