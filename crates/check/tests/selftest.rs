//! Meta-tests: dpack-check's failure pipeline end to end.
//!
//! These exercise the acceptance path for every suite built on this
//! crate: a broken invariant must produce a *shrunk* counterexample
//! with a printed seed that reproduces the exact same counterexample
//! deterministically (the `DPACK_CHECK_SEED` workflow), using the
//! programmatic [`run`] API so the panicking `check` wrapper stays
//! untouched. The history oracle's rules each get a hand-built history
//! that breaks exactly one of them.

use dp_accounting::fit_limit;
use dpack_check::{
    bools, check, check_history, diff_states, floats, ints, prop_assert, prop_assert_eq, run, vecs,
    BlockView, Config, Failure, Grant, History, HistoryError, PropResult, Strategy,
};

fn config() -> Config {
    Config {
        cases: 128,
        forced_seed: None,
        max_shrink_evals: 2048,
        max_discards: 2048,
    }
}

/// A deliberately broken invariant: "no vector sums past 1500" over
/// vectors that easily do.
fn broken_invariant(v: &[u64]) -> PropResult {
    let sum: u64 = v.iter().sum();
    prop_assert!(sum < 1500, "sum {sum} exceeded the (wrong) bound");
    Ok(())
}

fn broken_run(cfg: &Config) -> Failure {
    run(
        "selftest_broken_invariant",
        cfg,
        &vecs(ints(0..1000u64), 0..40),
        &|v| broken_invariant(v),
    )
    .expect_err("the invariant is broken by construction")
}

#[test]
fn broken_invariant_is_found_shrunk_and_seed_reproducible() {
    let failure = broken_run(&config());

    // The counterexample was minimized, not just reported raw.
    assert!(failure.shrink_steps > 0, "no shrinking happened");
    let shrunk: Vec<u64> = failure
        .value
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let sum: u64 = shrunk.iter().sum();
    // 1-minimality (the greedy guarantee): the shrunk case still
    // fails, sits exactly on the threshold (no draw can be lowered),
    // and no single element can be deleted.
    assert_eq!(sum, 1500, "not draw-minimal: {shrunk:?}");
    for (i, v) in shrunk.iter().enumerate() {
        assert!(sum - v < 1500, "element {i} ({v}) is deletable: {shrunk:?}");
    }

    // The printed seed reproduces the identical shrunk counterexample.
    let forced = Config {
        forced_seed: Some(failure.seed),
        ..config()
    };
    let replay = broken_run(&forced);
    assert_eq!(replay.value, failure.value);
    assert_eq!(replay.message, failure.message);

    // And the report carries the reproduction line.
    let report = failure.to_string();
    assert!(report.contains(&format!("DPACK_CHECK_SEED={}", failure.seed)));
}

#[test]
fn failure_runs_are_deterministic_end_to_end() {
    let (a, b) = (broken_run(&config()), broken_run(&config()));
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.case, b.case);
    assert_eq!(a.value, b.value);
    assert_eq!(a.shrink_steps, b.shrink_steps);
    assert_eq!(a.shrink_evals, b.shrink_evals);
}

#[test]
fn shrinking_reaches_through_map_and_filter() {
    // A mapped + filtered strategy: the minimized case must satisfy
    // the filter and still break the property — shrinking operates on
    // the underlying draws, so combinators are transparent to it.
    let strategy = vecs(
        (ints(0..1000u64), floats(0.0..1.0)).prop_map(|(w, f)| (w, f)),
        1..20,
    )
    .prop_filter("nonempty", |v| !v.is_empty());
    let failure = run("selftest_map_filter", &config(), &strategy, &|v: &Vec<
        (u64, f64),
    >| {
        prop_assert!(v.iter().all(|(w, _)| *w < 90), "an element is too heavy");
        Ok(())
    })
    .expect_err("breakable");
    // Minimal: exactly one pair, weight on the threshold, float at 0.
    assert_eq!(failure.value.matches('(').count(), 1, "{}", failure.value);
    assert!(failure.value.contains("90"), "{}", failure.value);
    assert!(failure.value.contains("0.0"), "{}", failure.value);
}

#[test]
fn passing_suites_stay_quiet() {
    // The public `check` wrapper: a true invariant over mixed
    // strategies runs to completion without panicking.
    check(
        "selftest_true_invariant",
        (vecs(floats(0.0..2.0), 0..10), bools(), ints(1..5u32)),
        |(xs, flip, k)| {
            let sum: f64 = xs.iter().sum();
            let sign = if *flip { 1.0 } else { 2.0 };
            let scaled = sum * f64::from(*k) * sign;
            prop_assert!(scaled >= 0.0);
            prop_assert_eq!(scaled == 0.0, sum == 0.0);
            Ok(())
        },
    );
}

#[test]
fn discard_heavy_strategies_still_complete() {
    check(
        "selftest_filter_discards",
        ints(0..1000u32).prop_filter("divisible by 7", |n| n % 7 == 0),
        |n| {
            prop_assert_eq!(n % 7, 0);
            Ok(())
        },
    );
}

/// A correct history: three blocks, one consumed to exactly its limit at
/// one order (and past it at the other, which Prop. 6 allows), a task
/// spanning two blocks applied as one record per block, and a term
/// whose one winner is reported twice.
fn clean_history() -> History {
    let view = |id, total: [f64; 2], consumed: [f64; 2], granted| BlockView {
        id,
        arrival: 0.0,
        total: total.to_vec(),
        consumed: consumed.to_vec(),
        granted,
    };
    let blocks = vec![
        view(0, [1.0, 2.0], [fit_limit(1.0), 3.0], 1),
        view(1, [4.0, 4.0], [0.5, 0.5], 2),
        view(2, [4.0, 4.0], [0.25, 0.25], 1),
    ];
    let grant = |task, blocks: &[u64], demand: [f64; 2]| Grant {
        task,
        blocks: blocks.to_vec(),
        demand: demand.to_vec(),
    };
    History {
        limits: blocks
            .iter()
            .map(|b| (b.id, b.total.iter().map(|c| fit_limit(*c)).collect()))
            .collect(),
        acked: vec![
            grant(1, &[0], [fit_limit(1.0), 3.0]),
            grant(2, &[1], [0.25, 0.25]),
            grant(3, &[1, 2], [0.25, 0.25]),
        ],
        blocks,
        applied: vec![(1, vec![0]), (2, vec![1]), (3, vec![1]), (3, vec![2])],
        complete: true,
        elections: vec![(1, 0), (2, 1), (2, 1), (3, 0)],
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn a_clean_history_passes_up_to_the_limit() {
    let h = clean_history();
    assert_eq!(check_history(&h), Ok(()));
    diff_states("itself", &h.blocks, &h.blocks).expect("a ledger equals itself");
    // Without task ids, the charge counts alone still balance.
    let counted = History {
        applied: Vec::new(),
        complete: false,
        ..clean_history()
    };
    assert_eq!(check_history(&counted), Ok(()));
}

#[test]
fn one_past_the_limit_at_every_order_is_overdrawn() {
    let mut h = clean_history();
    h.blocks[0].consumed[0] = next_up(fit_limit(1.0));
    assert_eq!(check_history(&h), Err(HistoryError::Overdrawn { block: 0 }));
    // The grants alone overdraw it, whatever the ledger kept.
    let mut h = clean_history();
    h.acked[0].demand[0] = next_up(fit_limit(1.0));
    assert_eq!(check_history(&h), Err(HistoryError::Overdrawn { block: 0 }));
}

#[test]
fn an_acked_grant_the_log_lost_is_missing() {
    let mut h = clean_history();
    h.applied.remove(1);
    let err = HistoryError::MissingGrant {
        task: Some(2),
        block: 1,
    };
    assert_eq!(check_history(&h), Err(err));
    // After a snapshot only the block's charge count shows the loss.
    let mut h = clean_history();
    h.complete = false;
    h.blocks[1].granted = 1;
    let err = HistoryError::MissingGrant {
        task: None,
        block: 1,
    };
    assert_eq!(check_history(&h), Err(err));
}

#[test]
fn a_record_applied_twice_is_charged_twice() {
    let mut h = clean_history();
    h.applied.push((1, vec![0]));
    let err = HistoryError::ChargedTwice {
        task: Some(1),
        block: 0,
    };
    assert_eq!(check_history(&h), Err(err));
    // Applied twice and acked twice is an id granted again, not twice.
    let mut h = clean_history();
    h.acked.push(h.acked[1].clone());
    h.applied.push((2, vec![1]));
    h.blocks[1].consumed = vec![0.75, 0.75];
    h.blocks[1].granted = 3;
    assert_eq!(check_history(&h), Ok(()));
    let mut h = clean_history();
    h.complete = false;
    h.blocks[2].granted = 2;
    let err = HistoryError::ChargedTwice {
        task: None,
        block: 2,
    };
    assert_eq!(check_history(&h), Err(err));
}

#[test]
fn a_term_won_by_two_nodes_has_two_leaders() {
    let mut h = clean_history();
    h.elections.push((2, 0));
    let err = HistoryError::TwoLeaders {
        term: 2,
        nodes: [1, 0],
    };
    assert_eq!(check_history(&h), Err(err));
}

#[test]
fn one_flipped_bit_in_one_order_is_a_state_difference() {
    let want = clean_history().blocks;
    let mut got = want.clone();
    got[1].consumed[1] = next_up(got[1].consumed[1]);
    let failed = diff_states("flipped", &got, &want).expect_err("one bit differs");
    assert!(
        failed.message.contains("block BlockView { id: 1"),
        "{failed}"
    );
    // -0.0 == 0.0 as numbers, not as bits.
    let mut got = want.clone();
    got[0].arrival = -0.0;
    assert!(diff_states("signed zero", &got, &want).is_err());
    assert!(diff_states("lost block", &want[1..], &want).is_err());
}
