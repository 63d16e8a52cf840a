//! The filter's allocation-free paths against the definitions they
//! replace: `grants` against `check(..).granted`, and the in-place
//! `try_consume` against charging through `RdpCurve::compose`, bit for
//! bit, on the values where a float shortcut would show: `-0.0`,
//! subnormals, sums exactly at `fit_limit(c)` and one ulp past it,
//! negative capacities and 1e300-scale values.

use dp_accounting::{fit_limit, AccountingError, AlphaGrid, RdpCurve, RenyiFilter};
use dpack_check::{check_cases, ints, prop_assert, prop_assert_eq, vecs, weighted};

const CASES: u32 = 256;

/// A capacity entry, by pick.
fn capacity(pick: u8) -> f64 {
    [
        1.0,
        0.5,
        2.5,
        0.0,
        -0.0,
        -0.25,
        -1.0,
        f64::from_bits(1),
        1e-308,
        1e300,
        -1e300,
    ][usize::from(pick)]
}

/// A consumption (or demand) entry against capacity `cap` and current
/// consumption `used`, by pick: the last two land the sum `used + d`
/// exactly on the tolerance edge and one ulp past it (up to the
/// rounding of the subtraction, which the drawn magnitudes vary).
fn entry(pick: u8, cap: f64, used: f64) -> f64 {
    let edge = fit_limit(cap);
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => -f64::from_bits(0x000f_ffff_ffff_ffff),
        4 => 0.37 * cap,
        5 => 1e300,
        6 => edge - used,
        _ => edge.next_up() - used,
    }
}

fn bits(curve: &RdpCurve) -> Vec<u64> {
    curve.values().iter().map(|v| v.to_bits()).collect()
}

/// The charge `try_consume` made before it worked in place: decide
/// through `check`, then replace the consumption with a composed copy.
fn charge_by_compose(
    consumed: &mut RdpCurve,
    granted: &mut u64,
    filter: &RenyiFilter,
    demand: &RdpCurve,
) -> Result<(), AccountingError> {
    if !filter.check(demand)?.granted {
        return Err(AccountingError::BudgetExhausted);
    }
    *consumed = consumed.compose(demand)?;
    *granted += 1;
    Ok(())
}

#[test]
fn in_place_charges_match_compose_bit_for_bit() {
    let orders = vecs(ints(0u8..11), 1..6);
    let picks = vecs(ints(0u8..8), 6..7);
    // A demand: its per-order picks, and whether it rides another grid.
    let demand = (
        vecs(ints(0u8..8), 6..7),
        weighted(vec![(7, false), (1, true)]),
    );
    check_cases(
        "in_place_charges_match_compose_bit_for_bit",
        CASES,
        (orders, picks, ints(0u64..4), vecs(demand, 1..12)),
        |(caps, start, granted, demands)| {
            let n = caps.len();
            let orders: Vec<f64> = (0..n).map(|a| 2.0 + a as f64).collect();
            let grid = AlphaGrid::new(orders.clone()).unwrap();
            // Same length, other orders: only the grid check tells them apart.
            let other = AlphaGrid::new(orders.iter().map(|a| a + 0.5).collect()).unwrap();
            let caps: Vec<f64> = caps.iter().map(|p| capacity(*p)).collect();
            let used = caps.iter().zip(start).map(|(c, p)| entry(*p, *c, 0.0));
            let cap = RdpCurve::new(&grid, caps.clone()).unwrap();
            let mut filter = RenyiFilter::restore(
                cap.clone(),
                RdpCurve::new(&grid, used.collect()).unwrap(),
                *granted,
            )
            .unwrap();
            let (mut consumed, mut count) = (filter.consumed().clone(), *granted);
            for (i, (picks, foreign)) in demands.iter().enumerate() {
                let values: Vec<f64> = (0..n)
                    .map(|a| entry(picks[a], caps[a], consumed.epsilon(a)))
                    .collect();
                let demand = RdpCurve::new(if *foreign { &other } else { &grid }, values).unwrap();

                let decision = filter.check(&demand).map(|d| d.granted);
                prop_assert_eq!(filter.grants(&demand), decision == Ok(true), "op {}", i);
                prop_assert!(*foreign == decision.is_err(), "op {i}: {decision:?}");

                let before = bits(filter.consumed());
                let want = charge_by_compose(&mut consumed, &mut count, &filter, &demand);
                let got = filter.try_consume(&demand);
                prop_assert_eq!(&got, &want, "op {}", i);
                prop_assert_eq!(bits(filter.consumed()), bits(&consumed), "op {}", i);
                prop_assert_eq!(filter.granted_count(), count, "op {}", i);
                if got.is_err() {
                    prop_assert_eq!(bits(filter.consumed()), before, "op {}", i);
                }
                prop_assert_eq!(bits(filter.capacity()), bits(&cap));
            }
            Ok(())
        },
    );
}
