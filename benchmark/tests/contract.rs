//! `BENCHMARK.json` at the repo root and the catalogue name the same
//! workloads and metrics, within the driver's limits.

use dpack_benchmark::catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} is missing from BENCHMARK.json"
        );
        assert!(name.len() <= 64, "{name} is longer than 64 characters");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} has a character outside letters, digits, _ . -"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        names.len(),
        "BENCHMARK.json names something the catalogue does not"
    );
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(json.contains(&format!("\"bound\": {bound}")), "{}", m.name);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    for (name, why) in WORKLOADS {
        assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
    }
}
