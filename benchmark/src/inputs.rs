//! Every workload's inputs, generated from the seed and nothing else.
//! The program under test receives these blocks and tasks, never the
//! seed. Sizes are fixed here (full and smoke); `README.md` records why.

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, ProblemState, Task};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::alibaba::{self, AlibabaDpConfig};
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{self, MicrobenchmarkConfig};
use workloads::stats::Zipf;
use workloads::OnlineWorkload;

/// Share of each block's capacity a fitting workload consumes in all.
const FILL: f64 = 0.9;

/// Blocks and tasks of a service workload whose tasks all fit.
#[derive(Debug, Clone)]
pub struct Stream {
    pub grid: AlphaGrid,
    pub blocks: Vec<Block>,
    pub tasks: Vec<Task>,
}

/// Paper §6.2 microbenchmark instance (20 000 tasks × 100 blocks).
pub fn micro(seed: u64, smoke: bool) -> ProblemState {
    let (n_tasks, n_blocks) = if smoke { (400, 20) } else { (20_000, 100) };
    micro_instance(seed, n_tasks, n_blocks)
}

/// The 100-task × 20-block sub-instance `Optimal` can solve.
pub fn micro_sub(seed: u64) -> ProblemState {
    micro_instance(seed, 100, 20)
}

fn micro_instance(seed: u64, n_tasks: usize, n_blocks: usize) -> ProblemState {
    let config = MicrobenchmarkConfig {
        n_tasks,
        n_blocks,
        mu_blocks: 10.0,
        sigma_blocks: 3.0,
        sigma_alpha: 4.0,
        eps_min: 0.01,
        ..MicrobenchmarkConfig::default()
    };
    microbenchmark::generate(&CurveLibrary::standard(), &config, seed)
}

/// Paper §6.3 Alibaba-DP online workload: 45 blocks, one per time
/// unit, and ~444 task arrivals per time unit — the arrival rate of
/// the issue's 300 000-task × 180-block instance at a quarter of its
/// length, so a round is short enough to repeat ~40 times in a run
/// while each cycle sees the same pending set.
pub fn alibaba(seed: u64, smoke: bool) -> OnlineWorkload {
    let (n_blocks, n_tasks) = if smoke { (20, 600) } else { (45, 20_000) };
    alibaba::generate(
        &AlibabaDpConfig {
            n_blocks,
            n_tasks,
            ..AlibabaDpConfig::default()
        },
        seed,
    )
}

/// `n_tasks` single-block tasks over 32 blocks that all fit: block
/// picks are uniform from the seed, and ε is set from the busiest
/// block's count so that it ends `FILL` full.
pub fn stream(seed: u64, n_tasks: usize) -> Stream {
    const N_BLOCKS: u64 = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<Vec<u64>> = (0..n_tasks)
        .map(|_| vec![rng.random_range(0..N_BLOCKS)])
        .collect();
    let grid = AlphaGrid::new(vec![2.0, 4.0, 8.0, 16.0]).expect("valid grid");
    fitting_stream(grid, N_BLOCKS, picks)
}

/// One-or-two-block tasks whose blocks are drawn `Zipf(n, 1.0)` with
/// one pick in five uniform, so a hot head and a long cold tail both
/// see traffic. The seed also rotates which block ids are hot.
pub fn zipf(seed: u64, n_blocks: u64, n_tasks: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranks = Zipf::new(n_blocks as usize, 1.0);
    let rotate = rng.random_range(0..n_blocks);
    let pick = |rng: &mut StdRng| {
        if rng.random_bool(0.2) {
            rng.random_range(0..n_blocks)
        } else {
            (ranks.sample(rng) as u64 - 1 + rotate) % n_blocks
        }
    };
    let picks: Vec<Vec<u64>> = (0..n_tasks)
        .map(|_| {
            let mut blocks = vec![pick(&mut rng)];
            if rng.random_bool(0.5) {
                blocks.push(pick(&mut rng));
            }
            blocks
        })
        .collect();
    fitting_stream(AlphaGrid::standard(), n_blocks, picks)
}

fn fitting_stream(grid: AlphaGrid, n_blocks: u64, picks: Vec<Vec<u64>>) -> Stream {
    let mut touches = vec![0u64; n_blocks as usize];
    let tasks: Vec<(u64, Vec<u64>)> = picks
        .into_iter()
        .enumerate()
        .map(|(id, blocks)| {
            // Task::new dedups, so count a repeated pick once.
            let task = Task::new(id as u64, 1.0, blocks, RdpCurve::zero(&grid), 0.0);
            for b in &task.blocks {
                touches[*b as usize] += 1;
            }
            (task.id, task.blocks)
        })
        .collect();
    let busiest = touches.iter().copied().max().unwrap_or(1).max(1);
    let demand = RdpCurve::constant(&grid, FILL / busiest as f64);
    let capacity = RdpCurve::constant(&grid, 1.0);
    Stream {
        blocks: (0..n_blocks)
            .map(|id| Block::new(id, capacity.clone(), 0.0))
            .collect(),
        tasks: tasks
            .into_iter()
            .map(|(id, blocks)| Task::new(id, 1.0, blocks, demand.clone(), 0.0))
            .collect(),
        grid,
    }
}

/// FNV-1a over every field of every block and task: equal fingerprints
/// mean byte-identical inputs.
pub fn fingerprint<'a>(
    blocks: impl IntoIterator<Item = (u64, &'a RdpCurve, f64)>,
    tasks: &[Task],
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (id, capacity, arrival) in blocks {
        h.u64(id);
        h.f64s(capacity.values());
        h.u64(arrival.to_bits());
    }
    for t in tasks {
        h.u64(t.id);
        h.u64(t.weight.to_bits());
        h.u64(t.blocks.len() as u64);
        for b in &t.blocks {
            h.u64(*b);
        }
        h.f64s(t.demand.values());
        h.u64(t.arrival.to_bits());
        h.u64(t.timeout.map_or(u64::MAX, f64::to_bits));
    }
    h.0
}

pub fn fingerprint_state(state: &ProblemState) -> u64 {
    fingerprint(
        state.blocks().iter().map(|(id, c)| (*id, c, 0.0)),
        state.tasks(),
    )
}

pub fn fingerprint_blocks(blocks: &[Block], tasks: &[Task]) -> u64 {
    fingerprint(blocks.iter().map(|b| (b.id, &b.capacity, b.arrival)), tasks)
}

struct Fnv(u64);

impl Fnv {
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
}
