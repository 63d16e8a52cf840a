//! The golden-file pin of the Prometheus text exposition: a registry
//! covering every sample shape — counters and gauges with and without
//! labels, multi-label-set families, histogram quantile summaries,
//! and escaped label values — rendered and compared byte for byte
//! against `tests/golden/expo_render.txt`.
//!
//! The golden file is the compatibility contract scrapers parse; any
//! format drift (type lines, label separators, quantile set, escaping)
//! fails here first. After an *intentional* change, regenerate with
//! `DPACK_GOLDEN=write cargo test -p dpack-obs --test expo_golden`
//! and review the diff.

use dpack_obs::expo::escape_label_value;
use dpack_obs::Registry;

fn golden_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/expo_render.txt")
}

#[test]
fn render_matches_the_golden_exposition() {
    let r = Registry::new();
    // Counters: bare, and one family across two label sets (one
    // `# TYPE` line, adjacent samples).
    r.counter("dpack_granted_total", "").add(42);
    r.counter("dpack_repl_acked_batches_total", "stream=\"shard-0\"")
        .add(9);
    r.counter("dpack_repl_acked_batches_total", "stream=\"coord\"")
        .inc();
    r.counter("dpack_repl_ship_rounds_total", "").add(3);
    // Gauges: integer-valued and fractional (rendered in f64's
    // shortest-roundtrip form).
    r.gauge("dpack_queue_depth", "").set_u64(7);
    r.gauge("dpack_repl_lag", "stream=\"shard-0\"").set_u64(3);
    r.gauge("dpack_fill_fraction", "").set(0.25);
    // A histogram renders as a quantile summary + _sum/_count; the
    // quantiles are bucket upper bounds, so they are exact pins.
    let h = r.histogram("dpack_cycle_nanos", "");
    for v in [100u64, 200, 300, 400, 1_000] {
        h.record(v);
    }
    // Label escaping: a tenant name carrying a quote, a backslash,
    // and a newline lands in the exposition as \" \\ \n.
    let tenant = escape_label_value("acme\"corp\\west\n");
    r.counter("dpack_rejected_total", &format!("tenant=\"{tenant}\""))
        .add(2);

    let text = r.snapshot().render();
    if std::env::var_os("DPACK_GOLDEN").is_some_and(|v| v == "write") {
        std::fs::write(golden_path(), &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden file committed");
    assert_eq!(
        text, golden,
        "exposition drifted from the golden file; if intentional, \
         regenerate with DPACK_GOLDEN=write and review the diff"
    );
}

#[test]
fn escape_label_value_handles_every_special() {
    assert_eq!(escape_label_value("plain"), "plain");
    assert_eq!(escape_label_value("a\"b"), "a\\\"b");
    assert_eq!(escape_label_value("a\\b"), "a\\\\b");
    assert_eq!(escape_label_value("a\nb"), "a\\nb");
    assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}
