//! The paper's evaluation as one table of panels.
//!
//! Each row of [`PANELS`] is one panel of §6 — a figure panel, Tab. 2,
//! the §6.3 efficiency–fairness study, or `gap`, a diagnostic of where
//! the DPack/DPF gap on Alibaba-DP lives — and runs DPack against DPF
//! (and FCFS or Optimal) on one generator and one sweep. The `paper`
//! binary runs the rows named on its command line, prints each
//! [`Report`] and writes its table to `<out>/<name>.csv`.

use std::time::Duration;

use dp_accounting::mechanisms::{
    GaussianMechanism, LaplaceMechanism, Mechanism, SubsampledGaussian,
};
use dp_accounting::{rdp_to_dp, AlphaGrid, RdpCurve};
use dpack_core::metrics::quantile;
use dpack_core::problem::ProblemState;
use dpack_core::scenarios::{fig1_state, fig3_state};
use dpack_core::schedulers::{DPack, Dpf, GreedyArea, Optimal, Scheduler};
use dpack_service::{SchedulerChoice as Choice, ServiceConfig};
use knapsack::privacy::SolveLimits;
use simulator::{simulate_service, SimulationConfig, SimulationResult};
use workloads::alibaba::AlibabaDpConfig;
use workloads::amazon::AmazonConfig;
use workloads::curves::{best_alpha, CurveLibrary};
use workloads::microbenchmark::MicrobenchmarkConfig;
use workloads::OnlineWorkload;

use crate::cli::Args;
use crate::run_q4;
use crate::table::{fmt, Table};

/// What a panel prints: its title, its table (also written as CSV) and
/// the lines under the table, the paper's claim among them.
pub struct Report {
    /// Printed above the table.
    pub title: String,
    /// The panel's numbers.
    pub table: Table,
    /// Printed under the table.
    pub notes: Vec<String>,
}

/// One row of the panel table.
pub struct Panel {
    /// The panel's name, and the stem of its CSV.
    pub name: &'static str,
    /// Runs the panel.
    pub run: fn(&Args) -> Report,
}

/// Every panel, in the paper's order.
#[rustfmt::skip]
pub const PANELS: &[Panel] = &[
    Panel { name: "fig1", run: fig1 },
    Panel { name: "fig2a", run: fig2a },
    Panel { name: "fig2b", run: fig2b },
    Panel { name: "fig3", run: fig3 },
    Panel { name: "fig4a", run: fig4a },
    Panel { name: "fig4b", run: fig4b },
    Panel { name: "fig5", run: fig5 },
    Panel { name: "fig6a", run: fig6a },
    Panel { name: "fig6b", run: fig6b },
    Panel { name: "fig7a", run: |args| fig7(args, false) },
    Panel { name: "fig7b", run: |args| fig7(args, true) },
    Panel { name: "fig8a", run: fig8a },
    Panel { name: "fig8b", run: fig8b },
    Panel { name: "fig9", run: fig9 },
    Panel { name: "tab2", run: tab2 },
    Panel { name: "fairness", run: fairness },
    Panel { name: "gap", run: gap },
];

/// The panels `names` selects, in table order: a panel by its own name,
/// and every panel of a figure by the figure's (`fig4` is `fig4a` and
/// `fig4b`).
pub fn select(names: &[String]) -> Vec<&'static Panel> {
    PANELS
        .iter()
        .filter(|p| names.iter().any(|n| n == p.name || n == figure(p.name)))
        .collect()
}

/// The figure a panel belongs to: its name without a trailing panel
/// letter.
fn figure(panel: &str) -> &str {
    match panel.as_bytes() {
        [.., digit, b'a' | b'b'] if digit.is_ascii_digit() => &panel[..panel.len() - 1],
        _ => panel,
    }
}

fn report<S: Into<String>>(
    title: impl Into<String>,
    table: Table,
    notes: impl IntoIterator<Item = S>,
) -> Report {
    Report {
        title: title.into(),
        table,
        notes: notes.into_iter().map(Into::into).collect(),
    }
}

/// The illustrative examples' table (Figs. 1 and 3): what each offline
/// scheduler packs.
fn scenario_table(state: &ProblemState) -> Table {
    let schedulers: [&dyn Scheduler; 4] =
        [&Dpf, &GreedyArea, &DPack::default(), &Optimal::unbounded()];
    let mut table = Table::new(vec!["scheduler", "allocated", "tasks"]);
    for s in schedulers {
        let a = s.schedule(state);
        table.row(vec![
            s.name().to_string(),
            a.scheduled.len().to_string(),
            format!("{:?}", a.scheduled),
        ]);
    }
    table
}

/// Fig. 1: DPF's multi-block inefficiency under traditional DP. DPF
/// schedules only the 3-block task T1, while an efficiency-oriented
/// schedule packs the other three.
fn fig1(_: &Args) -> Report {
    report(
        "Fig. 1 — basic DP accounting, 3 blocks of capacity 1.0\n\
         T1 demands 0.6 from all blocks; T2-T4 demand 0.8 from one block each.",
        scenario_table(&fig1_state()),
        ["Paper: DPF allocates 1 task (T1); the efficient allocation packs 3."],
    )
}

/// Fig. 2's mechanisms, each with noise std-dev 2, and their
/// composition. The paper does not state the subsampling rate; we use
/// q = 0.5.
fn fig2_curves(grid: &AlphaGrid) -> [(&'static str, RdpCurve); 4] {
    let gaussian = GaussianMechanism::new(2.0).expect("valid").curve(grid);
    let sampled = SubsampledGaussian::new(2.0, 0.5)
        .expect("valid")
        .curve(grid);
    let laplace = LaplaceMechanism::new(std::f64::consts::SQRT_2)
        .expect("valid")
        .curve(grid);
    let composition = gaussian
        .compose(&sampled)
        .and_then(|c| c.compose(&laplace))
        .expect("same grid");
    [
        ("Gaussian", gaussian),
        ("SampledGaussian", sampled),
        ("Laplace", laplace),
        ("Composition", composition),
    ]
}

/// Fig. 2(a): the RDP curves per order.
fn fig2a(_: &Args) -> Report {
    let grid = AlphaGrid::standard();
    let curves = fig2_curves(&grid);
    let mut table = Table::new(
        std::iter::once("alpha")
            .chain(curves.iter().map(|c| c.0))
            .collect(),
    );
    for (i, a) in grid.iter() {
        let eps = curves.iter().map(|(_, c)| fmt(c.epsilon(i), 4));
        table.row(std::iter::once(fmt(a, 2)).chain(eps).collect());
    }
    report(
        "Fig. 2(a) — RDP epsilon per order (sigma = 2)",
        table,
        Vec::<String>::new(),
    )
}

/// Fig. 2(b): translation to `(ε_DP, 10⁻⁶)`-DP. The best alpha differs
/// per mechanism, and composing in RDP before translating beats
/// translating first and adding (basic composition).
fn fig2b(_: &Args) -> Report {
    let grid = AlphaGrid::standard();
    let [gaussian, sampled, laplace, (_, composition)] = fig2_curves(&grid);
    let delta = 1e-6;
    let mut table = Table::new(vec!["mechanism", "best alpha", "eps_DP"]);
    let mut basic_sum = 0.0;
    for (name, curve) in [gaussian, sampled, laplace] {
        let g = rdp_to_dp(&curve, delta).expect("valid delta");
        basic_sum += g.epsilon;
        table.row(vec![
            name.to_string(),
            fmt(g.best_alpha, 0),
            fmt(g.epsilon, 2),
        ]);
    }
    let g = rdp_to_dp(&composition, delta).expect("valid delta");
    assert!(
        g.epsilon < basic_sum,
        "RDP composition must beat basic composition"
    );
    table.row(vec![
        "Composition (RDP)".to_string(),
        fmt(g.best_alpha, 0),
        fmt(g.epsilon, 2),
    ]);
    table.row(vec![
        "Composition (basic)".to_string(),
        "-".to_string(),
        fmt(basic_sum, 2),
    ]);
    report(
        "Fig. 2(b) — translation to (eps_DP, 1e-6)-DP",
        table,
        [
            "Paper: best alpha ~6 for the composition, eps_DP = 5.5 via RDP vs 7.8 via basic\n\
           composition; the RDP gap grows with the number of composed computations.",
        ],
    )
}

/// Fig. 3: DPF's best-alpha inefficiency under RDP accounting. DPF packs
/// the two balanced tasks and stalls at 2, while a best-alpha-aware
/// schedule packs 4 by using α₁ on block B1 and α₂ on block B2.
fn fig3(_: &Args) -> Report {
    let state = fig3_state();
    let best = DPack::default().best_alphas(&state);
    report(
        "Fig. 3 — RDP accounting, 2 blocks x 2 orders, capacity 1.0 each\n\
         T1/T2: (0.9, 0.9) on one block; T3/T5: (0.5, 1.5) on B1; T4/T6: (1.5, 0.5) on B2.",
        scenario_table(&state),
        [
            format!(
                "DPack best alphas: B0 -> order index {:?}, B1 -> order index {:?}",
                best[&0], best[&1]
            ),
            "Paper: DPF allocates 2 tasks; the best-alpha-aware allocation packs 4.".into(),
        ],
    )
}

/// Fig. 4's sweep (Q1): Optimal, DPack and DPF on one microbenchmark
/// instance per value of the swept heterogeneity knob.
fn versus_optimal(
    title: &str,
    knob: &str,
    sweep: &[f64],
    seed: u64,
    config: impl Fn(f64) -> MicrobenchmarkConfig,
) -> Report {
    let lib = CurveLibrary::standard();
    let optimal = Optimal {
        limits: SolveLimits {
            node_budget: 20_000_000,
            time_limit: Some(Duration::from_secs(30)),
        },
    };
    let mut table = Table::new(vec![
        knob,
        "Optimal",
        "DPack",
        "DPF",
        "DPack/DPF",
        "opt proven",
    ]);
    for &x in sweep {
        let state = workloads::microbenchmark::generate(&lib, &config(x), seed);
        let dpack = DPack::default().schedule(&state).scheduled.len();
        let dpf = Dpf.schedule(&state).scheduled.len();
        let opt = optimal.schedule(&state);
        table.row(vec![
            fmt(x, 1),
            opt.scheduled.len().to_string(),
            dpack.to_string(),
            dpf.to_string(),
            fmt(dpack as f64 / dpf.max(1) as f64, 2),
            (opt.proven_optimal == Some(true)).to_string(),
        ]);
    }
    report(
        title,
        table,
        ["Paper: DPack stays within 23% of Optimal; DPF matches only at low heterogeneity."],
    )
}

/// Fig. 4(a): block-count heterogeneity. DPack tracks Optimal; DPF
/// matches at zero heterogeneity and falls behind (paper: up to +161%).
fn fig4a(args: &Args) -> Report {
    let (n_tasks, n_blocks) = if args.full { (150, 20) } else { (100, 20) };
    let sweep = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
    let title = "Fig. 4(a) — block heterogeneity (mu_blocks = 10, sigma_alpha = 0, eps_min = 0.1)";
    versus_optimal(title, "sigma_blocks", &sweep, args.seed, |sigma| {
        MicrobenchmarkConfig {
            n_tasks,
            n_blocks,
            mu_blocks: 10.0,
            sigma_blocks: sigma,
            sigma_alpha: 0.0,
            eps_min: 0.1,
            ..Default::default()
        }
    })
}

/// Fig. 4(b): best-alpha heterogeneity on a single block (paper: up to
/// +67%).
fn fig4b(args: &Args) -> Report {
    let n_tasks = if args.full { 2500 } else { 1600 };
    let sweep = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0];
    let title = "Fig. 4(b) — best-alpha heterogeneity (single block, eps_min = 0.005)";
    versus_optimal(title, "sigma_alpha", &sweep, args.seed, |sigma| {
        MicrobenchmarkConfig {
            n_tasks,
            n_blocks: 1,
            mu_blocks: 1.0,
            sigma_blocks: 0.0,
            sigma_alpha: sigma,
            eps_min: 0.005,
            ..Default::default()
        }
    })
}

/// Fig. 5 (Q2): scheduler runtime and allocations under increasing
/// offline load, with `σ_blocks = 10` truncated to the 7 blocks. Optimal
/// runs only up to 200 tasks: beyond that the paper reports "its
/// execution never finishes", and our branch-and-bound hits its time
/// budget the same way.
fn fig5(args: &Args) -> Report {
    const OPTIMAL_TASK_LIMIT: usize = 200;
    let lib = CurveLibrary::standard();
    let loads: &[usize] = if args.full {
        &[100, 200, 500, 1000, 2000, 3000, 4000, 5000]
    } else {
        &[100, 200, 500, 1000, 2000]
    };
    let mut table = Table::new(vec![
        "tasks",
        "Optimal alloc",
        "Optimal time(s)",
        "DPack alloc",
        "DPack time(s)",
        "DPF alloc",
        "DPF time(s)",
    ]);
    for &n in loads {
        let cfg = MicrobenchmarkConfig {
            n_tasks: n,
            n_blocks: 7,
            mu_blocks: 1.0,
            sigma_blocks: 10.0,
            sigma_alpha: 4.0,
            eps_min: 0.01,
            ..Default::default()
        };
        let state = workloads::microbenchmark::generate(&lib, &cfg, args.seed);
        let dpack = DPack::default().schedule(&state);
        let dpf = Dpf.schedule(&state);
        let (opt_alloc, opt_time) = if n <= OPTIMAL_TASK_LIMIT {
            let opt = Optimal {
                limits: SolveLimits {
                    node_budget: 50_000_000,
                    time_limit: Some(Duration::from_secs(30)),
                },
            }
            .schedule(&state);
            // `+`: it hit its budget, so the count is a lower bound.
            let marker = if opt.proven_optimal == Some(true) {
                ""
            } else {
                "+"
            };
            (
                format!("{}{marker}", opt.scheduled.len()),
                fmt(opt.runtime.as_secs_f64(), 3),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        table.row(vec![
            n.to_string(),
            opt_alloc,
            opt_time,
            dpack.scheduled.len().to_string(),
            fmt(dpack.runtime.as_secs_f64(), 4),
            dpf.scheduled.len().to_string(),
            fmt(dpf.runtime.as_secs_f64(), 4),
        ]);
    }
    report(
        "Fig. 5 — scalability (7 blocks, sigma_alpha = 4, eps_min = 0.01)",
        table,
        [
            "Paper: Optimal intractable past 200 tasks; DPack slightly slower than DPF\n\
           (it solves per-block knapsacks) but both stay practical; allocations plateau.",
        ],
    )
}

fn alibaba(n_blocks: usize, n_tasks: usize, seed: u64) -> OnlineWorkload {
    let config = AlibabaDpConfig {
        n_blocks,
        n_tasks,
        ..Default::default()
    };
    workloads::alibaba::generate(&config, seed)
}

/// Replays an online workload on the budget service as deployed (its
/// default sharding, S = 4 and W = 2) once under each scheduler.
fn replay<const N: usize>(
    workload: &OnlineWorkload,
    schedulers: [Choice; N],
    config: &SimulationConfig,
) -> [SimulationResult; N] {
    schedulers.map(|scheduler| {
        let service = ServiceConfig {
            scheduler,
            ..ServiceConfig::default()
        };
        simulate_service(workload, &service, config)
    })
}

/// DPack, DPF (head-of-line) and FCFS: the three columns of Figs. 6, 7
/// and 9.
const ONLINE_THREE: [Choice; 3] = [Choice::DPack, Choice::DpfStrict, Choice::Fcfs];

/// A sweep row of Figs. 6 and 7: the swept value, DPack's, DPF's and
/// FCFS's totals, and DPack/DPF.
fn versus_row(
    x: String,
    results: &[SimulationResult; 3],
    total: fn(&SimulationResult) -> f64,
) -> Vec<String> {
    let [dpack, dpf, fcfs] = results.each_ref().map(total);
    vec![
        x,
        fmt(dpack, 0),
        fmt(dpf, 0),
        fmt(fcfs, 0),
        fmt(dpack / dpf.max(1.0), 2),
    ]
}

/// Fig. 6's replay: T = 1, 50 unlock steps, a timeout of 5.
const FIG6: SimulationConfig = SimulationConfig {
    scheduling_period: 1.0,
    unlock_steps: 50,
    task_timeout: Some(5.0),
    drain_steps: 55,
};

/// Fig. 6 (Q3): online Alibaba-DP under [`FIG6`]. Expected: DPack
/// 1.3–1.7× DPF; FCFS flat with load (it never prioritizes low-demand
/// tasks). Each point is the swept value, the task count and the block
/// count.
fn fig6(x: &str, points: impl IntoIterator<Item = (usize, usize, usize)>, seed: u64) -> Table {
    let mut table = Table::new(vec![x, "DPack", "DPF", "FCFS", "DPack/DPF"]);
    for (x, n_tasks, n_blocks) in points {
        let results = replay(&alibaba(n_blocks, n_tasks, seed), ONLINE_THREE, &FIG6);
        table.row(versus_row(x.to_string(), &results, |r| {
            r.allocated() as f64
        }));
    }
    table
}

const FIG6_CLAIM: &str =
    "Paper: DPack outperforms DPF by 1.3-1.7x across all configurations; FCFS is flat.";

/// Fig. 6(a): allocated tasks vs offered load, 90 blocks.
fn fig6a(args: &Args) -> Report {
    let loads = if args.full {
        [20_000, 40_000, 60_000, 80_000]
    } else {
        [5_000, 10_000, 15_000, 20_000]
    };
    report(
        "Fig. 6(a) — allocated vs submitted (90 blocks)",
        fig6("submitted", loads.map(|n| (n, n, 90)), args.seed),
        [FIG6_CLAIM],
    )
}

/// Fig. 6(b): allocated tasks vs available blocks, fixed load.
fn fig6b(args: &Args) -> Report {
    let n_tasks = if args.full { 60_000 } else { 15_000 };
    let blocks = [30, 60, 90, 120, 150, 180];
    report(
        format!("Fig. 6(b) — allocated vs available blocks ({n_tasks} tasks)"),
        fig6("blocks", blocks.map(|m| (m, n_tasks, m)), args.seed),
        [FIG6_CLAIM],
    )
}

/// Fig. 7: the Amazon Reviews workload from PrivateKube, unweighted
/// (panel a) or with the weight grids {10,50,100,500} / {1,5,10,50}
/// (panel b), in which case the total is the allocated weight.
fn fig7(args: &Args, weighted: bool) -> Report {
    let n_blocks = if args.full { 50 } else { 30 };
    let rates: &[f64] = if args.full {
        &[250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0]
    } else {
        &[250.0, 500.0, 750.0, 1000.0]
    };
    let config = SimulationConfig {
        scheduling_period: 1.0,
        unlock_steps: 30,
        task_timeout: None,
        drain_steps: 35,
    };
    let (columns, total): ([&str; 3], fn(&SimulationResult) -> f64) = if weighted {
        (
            ["DPack weight", "DPF weight", "FCFS weight"],
            SimulationResult::total_weight,
        )
    } else {
        (["DPack", "DPF", "FCFS"], |r| r.allocated() as f64)
    };
    let mut table = Table::new(
        std::iter::once("tasks/block")
            .chain(columns)
            .chain(["DPack/DPF"])
            .collect(),
    );
    for &rate in rates {
        let amazon = AmazonConfig {
            n_blocks,
            mean_tasks_per_block: rate,
            weighted,
            ..Default::default()
        };
        let workload = workloads::amazon::generate(&amazon, args.seed);
        table.row(versus_row(
            fmt(rate, 0),
            &replay(&workload, ONLINE_THREE, &config),
            total,
        ));
    }
    let (title, claim) = if weighted {
        (
            "Fig. 7(b) — Amazon Reviews with task weights",
            "Paper: weights create heterogeneity; DPack outperforms DPF by 9-50%.",
        )
    } else {
        (
            "Fig. 7(a) — Amazon Reviews, unweighted",
            "Paper: low heterogeneity — all schedulers perform largely the same.",
        )
    };
    report(format!("{title} ({n_blocks} blocks)"), table, [claim])
}

/// Fig. 8(a) (Q4): scheduling-procedure runtime on the budget service
/// (see [`run_q4`]) in an offline-like setting, T = 25. The "total"
/// columns are the run's measured wall time — admission, every cycle's
/// ingest, snapshot, algorithm and commit, and the write-ahead log on
/// in-memory storage, so no fsync — and the "algo" columns the
/// scheduling passes alone. The paper's Kubernetes API overheads are not
/// modelled, so service overheads dominate only as far as this
/// service's own do.
fn fig8a(args: &Args) -> Report {
    let loads: &[usize] = if args.full {
        &[2000, 2500, 3000, 3500, 4200]
    } else {
        &[1000, 2000, 3000, 4200]
    };
    let mut table = Table::new(vec![
        "tasks",
        "DPack total(ms)",
        "DPack algo(ms)",
        "DPF total(ms)",
        "DPF algo(ms)",
    ]);
    let ms = |d: Duration| fmt(d.as_secs_f64() * 1e3, 1);
    for &n in loads {
        let dpack = run_q4(n, args.seed, Choice::DPack, 25.0);
        let dpf = run_q4(n, args.seed, Choice::DpfStrict, 25.0);
        table.row(vec![
            n.to_string(),
            ms(dpack.wall_time),
            ms(dpack.stats.scheduler_runtime),
            ms(dpf.wall_time),
            ms(dpf.stats.scheduler_runtime),
        ]);
    }
    report(
        "Fig. 8(a) — scheduler runtime on the service (T = 25, offline-like)",
        table,
        ["Paper: DPack only modestly slower than DPF because service overheads dominate."],
    )
}

/// Fig. 8(b): the scheduling-delay CDFs of DPack and DPF on the budget
/// service in an online setting (T = 5), in virtual time.
fn fig8b(args: &Args) -> Report {
    let n = if args.full { 4200 } else { 2000 };
    let delays = |scheduler| run_q4(n, args.seed, scheduler, 5.0).stats.delays();
    let dpack = delays(Choice::DPack);
    let dpf = delays(Choice::DpfStrict);
    let mut table = Table::new(vec!["percentile", "DPack delay", "DPF delay"]);
    for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        table.row(vec![
            fmt(p * 100.0, 0),
            fmt(quantile(&dpack, p).unwrap_or(f64::NAN), 2),
            fmt(quantile(&dpf, p).unwrap_or(f64::NAN), 2),
        ]);
    }
    report(
        "Fig. 8(b) — scheduling-delay CDF (T = 5, online)",
        table,
        ["Paper: delay CDFs nearly identical across the two schedulers."],
    )
}

/// Fig. 9 (appendix): the batching period `T` on Alibaba-DP. DPack and
/// DPF are largely insensitive to `T`; FCFS does *worse* at large `T`,
/// because the bigger unlocked batch admits its early expensive tasks;
/// delay grows roughly linearly in `T`.
fn fig9(args: &Args) -> Report {
    let (n_tasks, n_blocks) = if args.full {
        (40_000, 90)
    } else {
        (10_000, 60)
    };
    let periods: &[f64] = if args.full {
        &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    } else {
        &[1.0, 2.0, 5.0, 10.0, 25.0]
    };
    let workload = alibaba(n_blocks, n_tasks, args.seed);
    let mut table = Table::new(vec![
        "T",
        "DPack alloc",
        "DPF alloc",
        "FCFS alloc",
        "DPack delay",
        "DPF delay",
        "FCFS delay",
    ]);
    for &period in periods {
        // No eviction (the sweep studies batching, not patience); drain
        // until every block is fully unlocked whatever T is.
        let config = SimulationConfig {
            scheduling_period: period,
            unlock_steps: 50,
            task_timeout: None,
            drain_steps: (50.0 / period).ceil() as u32 + 5,
        };
        let results = replay(&workload, ONLINE_THREE, &config);
        let counts = results.iter().map(|r| r.allocated().to_string());
        let delays = results
            .iter()
            .map(|r| fmt(r.mean_delay().unwrap_or(f64::NAN), 2));
        table.row(
            std::iter::once(fmt(period, 0))
                .chain(counts)
                .chain(delays)
                .collect(),
        );
    }
    report(
        format!("Fig. 9 — batching parameter sweep ({n_tasks} tasks, {n_blocks} blocks)"),
        table,
        [
            "Paper: allocations are largely insensitive to T for DPack/DPF (DPack +28-52%);\n\
           a low T minimizes scheduling delay, so T can safely be small.",
        ],
    )
}

/// Tab. 2 (Q4): the same Alibaba-DP sample on the budget service (T = 5,
/// see [`run_q4`]) under DPack and DPF. The paper's counts come from its
/// trace; ours is synthetic, so the target is the ordering and rough
/// margin.
fn tab2(args: &Args) -> Report {
    let n = if args.full { 4200 } else { 2500 };
    let run = |scheduler| run_q4(n, args.seed, scheduler, 5.0).allocated();
    let dpack = run(Choice::DPack);
    let dpf = run(Choice::DpfStrict);
    let mut table = Table::new(vec!["scheduler", "allocated"]);
    table.row(vec!["DPack".to_string(), dpack.to_string()]);
    table.row(vec!["DPF".to_string(), dpf.to_string()]);
    report(
        format!("Tab. 2 — service efficiency, Alibaba-DP ({n} submitted, T = 5)"),
        table,
        [
            format!("DPack/DPF = {}", fmt(dpack as f64 / dpf.max(1) as f64, 2)),
            "Paper: DPack 1269 vs DPF 1100 (1.15x).".into(),
        ],
    )
}

/// The §6.3 efficiency–fairness trade-off, fair share 1/50: DPF keeps
/// ~90% of its allocations within the fair-share population and DPack
/// only ~60%, but DPack allocates ~45% more tasks. (In the paper's
/// trace, 41% of tasks qualify as fair-share demanders.)
fn fairness(args: &Args) -> Report {
    const N_FAIR: u32 = 50;
    let n_tasks = if args.full { 60_000 } else { 15_000 };
    let workload = alibaba(90, n_tasks, args.seed);
    let config = SimulationConfig {
        unlock_steps: N_FAIR,
        ..FIG6
    };
    let [dpack, dpf] = replay(&workload, [Choice::DPack, Choice::DpfStrict], &config)
        .map(|r| r.fairness(&workload.tasks, N_FAIR));
    let mut table = Table::new(vec![
        "scheduler",
        "allocated",
        "fair-share allocated",
        "% of allocations fair",
    ]);
    for (name, fair) in [("DPack", &dpack), ("DPF", &dpf)] {
        table.row(vec![
            name.to_string(),
            fair.allocated_total.to_string(),
            fair.qualifying_allocated.to_string(),
            fmt(100.0 * fair.allocated_fair_fraction(), 1),
        ]);
    }
    let qualifying = dpack.qualifying_fraction(workload.tasks.len());
    report(
        format!(
            "Fairness trade-off — Alibaba-DP, {} tasks, 90 blocks, fair share 1/{N_FAIR}",
            workload.tasks.len()
        ),
        table,
        [
            format!(
                "Workload fair-share population: {:.1}% of tasks (paper: 41%).",
                100.0 * qualifying
            ),
            format!(
                "DPack allocates {} more tasks than DPF ({}x) while keeping {:.0}% fair-share\n\
             allocations vs DPF's {:.0}% — the paper reports +45%, 60% vs 90%.",
                dpack.allocated_total as i64 - dpf.allocated_total as i64,
                fmt(
                    dpack.allocated_total as f64 / dpf.allocated_total.max(1) as f64,
                    2
                ),
                100.0 * dpack.allocated_fair_fraction(),
                100.0 * dpf.allocated_fair_fraction(),
            ),
        ],
    )
}

/// Where the DPack/DPF gap on Alibaba-DP lives: offline (one round,
/// full budget) against online (T = 1, unlocked over 50 steps) at
/// several timeouts, with skip-greedy [`Dpf`] and head-of-line
/// [`Choice::DpfStrict`] side by side, and the shape of what
/// each packs offline.
fn gap(args: &Args) -> Report {
    let workload = alibaba(90, 45_000, args.seed);
    let capacity = &workload.blocks[0].capacity;
    let mut counts = [0usize; 6];
    for t in &workload.tasks {
        counts[match t.blocks.len() {
            1 => 0,
            2..=4 => 1,
            5..=9 => 2,
            10..=24 => 3,
            25..=49 => 4,
            _ => 5,
        }] += 1;
    }
    let mut notes = vec![format!(
        "block-count histogram [1, 2-4, 5-9, 10-24, 25-49, 50+]: {counts:?} of {}",
        workload.tasks.len()
    )];

    // Offline: every block at full capacity, one scheduling round.
    let mut tasks = workload.tasks.clone();
    for t in &mut tasks {
        t.arrival = 0.0;
    }
    let state = ProblemState::new(workload.grid.clone(), workload.blocks.clone(), tasks)
        .expect("well-formed");
    let offline = [DPack::default().schedule(&state), Dpf.schedule(&state)];

    let ratio = |a: usize, b: usize| fmt(a as f64 / b.max(1) as f64, 3);
    let mut table = Table::new(vec![
        "setting",
        "timeout",
        "DPack",
        "DPF",
        "DPF-strict",
        "ratio",
    ]);
    let [a, b] = offline.each_ref().map(|alloc| alloc.scheduled.len());
    table.row(vec![
        "offline".to_string(),
        "-".into(),
        a.to_string(),
        b.to_string(),
        "-".into(),
        ratio(a, b),
    ]);
    for timeout in [Some(5.0), Some(10.0), Some(20.0), None] {
        let config = SimulationConfig {
            task_timeout: timeout,
            ..FIG6
        };
        let [a, b, strict] = replay(
            &workload,
            [Choice::DPack, Choice::Dpf, Choice::DpfStrict],
            &config,
        )
        .map(|r| r.allocated());
        table.row(vec![
            "online".to_string(),
            timeout.map_or("none".into(), |t| fmt(t, 0)),
            a.to_string(),
            b.to_string(),
            strict.to_string(),
            ratio(a, b),
        ]);
    }

    for (name, alloc) in ["DPack", "DPF"].into_iter().zip(&offline) {
        let ids: std::collections::BTreeSet<_> = alloc.scheduled.iter().collect();
        let sel: Vec<_> = state
            .tasks()
            .iter()
            .filter(|t| ids.contains(&t.id))
            .collect();
        let mean_k = sel.iter().map(|t| t.blocks.len()).sum::<usize>() as f64 / sel.len() as f64;
        let mean_eps = sel
            .iter()
            .map(|t| best_alpha(&t.demand, capacity).map_or(0.0, |(_, e)| e))
            .sum::<f64>()
            / sel.len() as f64;
        notes.push(format!(
            "{name}: mean blocks {mean_k:.2}, mean eps_min {mean_eps:.4}"
        ));
    }
    let title = format!(
        "DPack/DPF gap — Alibaba-DP, {} tasks, 90 blocks (online: T = 1, 50 unlock steps)",
        workload.tasks.len()
    );
    report(title, table, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_select_panels_and_whole_figures() {
        let names = |panels: Vec<&Panel>| panels.iter().map(|p| p.name).collect::<Vec<_>>();
        let select_one = |name: &str| names(select(&[name.to_string()]));
        let mut unique = names(PANELS.iter().collect());
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), PANELS.len(), "panel names must be unique");
        assert_eq!(select_one("fig4"), ["fig4a", "fig4b"]);
        assert_eq!(select_one("fig4a"), ["fig4a"]);
        assert!(select_one("fig10").is_empty());
        assert!(select_one("ga").is_empty());
    }

    /// Fig. 6(a)'s smallest quick point at seed 42 (90 blocks, 5 000
    /// tasks): the counts the engine reference gives, so a change to the
    /// service's online decisions moves them.
    #[test]
    fn fig6_allocations_are_pinned() {
        let results = replay(&alibaba(90, 5_000, 42), ONLINE_THREE, &FIG6);
        assert_eq!(
            results.each_ref().map(|r| r.allocated()),
            [1_595, 1_179, 1_268]
        );
    }
}
