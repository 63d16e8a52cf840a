//! `cluster_top`: live introspection of a three-node deployment.
//!
//! Boots three [`dpack_net::ClusterNode`]s behind real sockets, lets
//! them elect a leader on their own, pushes a burst of **traced**
//! submissions through the primary, and then plays the operator:
//!
//! * scrapes every node's `ClusterStatus` and renders a `top`-style
//!   table — role, term, seq vector, per-peer Up/Suspect/Down state,
//!   per-stream replication lag, resync count;
//! * merges the three Prometheus-style registry snapshots into one
//!   cluster-wide view ([`MetricsSnapshot::merged`]) and prints it;
//! * merges the three span dumps into causal trees, prints the
//!   slowest grant's cross-node breakdown, and exports the slowest
//!   complete trees as chrome://tracing JSON
//!   (`target/cluster_top.trace.json` — load it in `chrome://tracing`
//!   or Perfetto), validating the JSON's nesting before writing.
//!
//! CI runs this as the introspection-plane smoke test.
//!
//! ```sh
//! cargo run --release --example cluster_top
//! ```

use std::time::{Duration, Instant};

use dpack::accounting::{AlphaGrid, RdpCurve};
use dpack::core::problem::{Block, Task};
use dpack_net::obs::trace::{assemble_trees, SlowTraceSampler, SpanTree};
use dpack_net::obs::{MetricsSnapshot, Obs, Tracer, Value};
use dpack_net::wire::{PEER_DOWN, PEER_SUSPECT, PEER_UP};
use dpack_net::{
    ClusterConfig, ClusterNode, ClusterPeer, ClusterRunner, NetClient, NetServer, WireClusterStatus,
};
use dpack_service::wal::SimStorage;
use dpack_service::{DurabilityOptions, ServiceConfig, StatsRetention};

const NODES: usize = 3;
const BLOCKS: u64 = 8;
const TRACED: u64 = 24;
const UNTRACED: u64 = 8;

fn state_name(state: u8) -> &'static str {
    match state {
        PEER_UP => "up",
        PEER_SUSPECT => "suspect",
        PEER_DOWN => "down",
        _ => "?",
    }
}

/// One `top` row per scraped node.
fn render_status(rows: &[WireClusterStatus]) {
    println!(
        "{:<6} {:<8} {:>5} {:>7}  {:<16} peers",
        "node", "role", "term", "leader", "vector"
    );
    for s in rows {
        let role = if s.is_primary { "primary" } else { "replica" };
        let peers = s
            .peers
            .iter()
            .map(|p| {
                let mut cell = format!("{}:{}", p.id, state_name(p.state));
                if s.is_primary {
                    cell.push_str(&format!(" lag={:?} resyncs={}", p.lag, p.resyncs));
                    if p.backoff_nanos > 0 {
                        cell.push_str(&format!(" backoff={}ms", p.backoff_nanos / 1_000_000));
                    }
                }
                cell
            })
            .collect::<Vec<_>>()
            .join(" | ");
        println!(
            "{:<6} {:<8} {:>5} {:>7}  {:<16} {}",
            s.node_id,
            role,
            s.term,
            s.leader,
            format!("{:?}", s.vector),
            peers
        );
    }
}

/// Prints one tree as an indented span breakdown, children under
/// their parents in the assembler's deterministic order.
fn render_tree(tree: &SpanTree) {
    fn walk(tree: &SpanTree, parent: u64, depth: usize) {
        for span in tree.children(parent) {
            println!(
                "  {:indent$}{:<14} node={} {:>9.3}ms a={}",
                "",
                span.kind.name(),
                span.node,
                span.duration_nanos() as f64 / 1e6,
                span.a,
                indent = depth * 2
            );
            walk(tree, span.span, depth + 1);
        }
    }
    let Some(root) = tree.root() else { return };
    println!(
        "trace {:016x}: {:.3}ms end to end, {} spans",
        tree.trace,
        tree.duration_nanos() as f64 / 1e6,
        tree.spans.len()
    );
    println!(
        "  {:<14} node={} {:>9.3}ms",
        root.kind.name(),
        root.node,
        root.duration_nanos() as f64 / 1e6
    );
    walk(tree, root.span, 1);
}

/// A serde-free chrome-trace well-formedness scan: strings (with
/// escapes) are skipped, every `{`/`[` must close in order, and the
/// document must be exactly one object. Returns the event count.
fn scan_chrome_json(json: &str) -> Result<usize, String> {
    let mut stack = Vec::new();
    let mut events = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in json.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                // Each complete event is an object at depth 2:
                // root object → traceEvents array → event.
                if c == '{' && stack.len() == 2 {
                    events += 1;
                }
                stack.push(c);
            }
            '}' | ']' => {
                let want = if c == '}' { '{' } else { '[' };
                if stack.pop() != Some(want) {
                    return Err(format!("unbalanced '{c}' at byte {i}"));
                }
            }
            _ => {}
        }
    }
    if in_string || !stack.is_empty() {
        return Err("unterminated string or open bracket at end".to_string());
    }
    if !json.starts_with("{\"traceEvents\":[") {
        return Err("missing traceEvents envelope".to_string());
    }
    Ok(events)
}

fn main() {
    let grid = AlphaGrid::new(vec![2.0, 4.0, 16.0]).expect("valid grid");

    // ---- boot: three nodes, no external nudge -------------------------
    let addrs: Vec<std::net::SocketAddr> = (0..NODES)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .expect("reserve port")
                .local_addr()
                .expect("addr")
        })
        .collect();
    let mut servers = Vec::with_capacity(NODES);
    let mut runners = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let peers = (0..NODES)
            .filter(|j| *j != i)
            .map(|j| {
                let addr = addrs[j];
                ClusterPeer {
                    id: j as u64,
                    addr,
                    connector: std::sync::Arc::new(move || NetClient::connect(addr)),
                }
            })
            .collect();
        let node = ClusterNode::new(
            ClusterConfig {
                node_id: i as u64,
                grid: grid.clone(),
                service: ServiceConfig {
                    shards: 2,
                    workers: 1,
                    unlock_steps: 1,
                    retention: StatsRetention::Unbounded,
                    ..ServiceConfig::default()
                },
                durability: DurabilityOptions::default(),
                quorum: 1,
                majority: 2,
                heartbeat_nanos: 20_000_000,
                election_base_nanos: 100_000_000,
                election_stagger_nanos: 50_000_000,
                ship_timeout: Some(Duration::from_millis(500)),
            },
            peers,
            Box::new(SimStorage::new()),
            Obs::wall(),
        )
        .expect("fresh cluster node");
        servers.push(NetServer::bind_core(node.core().clone(), addrs[i]).expect("bind node"));
        runners.push(ClusterRunner::spawn(node, Duration::from_millis(2)));
    }

    // Wait for a leader whose replicator sees both replicas, asking
    // over the wire like any monitor would. Only a live replicator
    // exports `dpack_repl_live_replicas`, so a deposed primary never
    // answers with its last count.
    let deadline = Instant::now() + Duration::from_secs(10);
    let leader = loop {
        let ready = (0..NODES).find(|&i| {
            NetClient::connect(addrs[i])
                .and_then(|mut c| c.metrics())
                .ok()
                .is_some_and(|snap| {
                    matches!(
                        snap.get("dpack_repl_live_replicas", ""),
                        Some(Value::Gauge(v)) if *v as usize >= NODES - 1
                    )
                })
        });
        if let Some(i) = ready {
            break i;
        }
        assert!(
            Instant::now() < deadline,
            "no leader with two live replicas within 10s"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    println!("leader: node {leader} on {}\n", addrs[leader]);

    // ---- traced traffic through the primary ---------------------------
    let mut client = NetClient::connect(addrs[leader]).expect("dial leader");
    for b in 0..BLOCKS {
        client
            .register_block(&Block::new(b, RdpCurve::constant(&grid, 1.0), 0.0))
            .expect("register block");
    }
    let tracer = Tracer::seeded(0xD1A6);
    let mut traces = Vec::new();
    let mut handles = Vec::new();
    for id in 0..TRACED {
        let task = Task::new(
            id,
            1.0,
            vec![id % BLOCKS],
            RdpCurve::constant(&grid, 0.02),
            0.0,
        );
        let ctx = tracer.start();
        traces.push(ctx);
        handles.push(
            client
                .submit_traced_nowait(7, &task, ctx)
                .expect("submit traced"),
        );
    }
    for id in TRACED..TRACED + UNTRACED {
        let task = Task::new(
            id,
            1.0,
            vec![id % BLOCKS],
            RdpCurve::constant(&grid, 0.02),
            0.0,
        );
        handles.push(client.submit_nowait(7, &task).expect("submit untraced"));
    }
    let granted = handles
        .into_iter()
        .filter(|h| {
            client
                .wait_decision(*h)
                .map(|o| o.is_granted())
                .unwrap_or(false)
        })
        .count() as u64;
    println!(
        "{granted}/{} granted ({TRACED} traced, {UNTRACED} untraced)\n",
        TRACED + UNTRACED
    );
    assert_eq!(granted, TRACED + UNTRACED, "every submission fits");

    // ---- the introspection plane --------------------------------------
    // One scrape per node: status, metrics, spans — all over the wire.
    let mut statuses = Vec::new();
    let mut snapshots = Vec::new();
    let mut dumps = Vec::new();
    for addr in &addrs {
        let mut c = NetClient::connect(*addr).expect("dial for scrape");
        statuses.push(c.cluster_status().expect("ClusterStatus"));
        snapshots.push(c.metrics().expect("metrics"));
        dumps.push(c.span_dump(0).expect("span dump"));
    }

    println!("== ClusterStatus ({NODES}-node scrape) ==");
    render_status(&statuses);
    let primary = statuses.iter().find(|s| s.is_primary).expect("a primary");
    assert_eq!(primary.node_id, leader as u64);
    for s in &statuses {
        assert_eq!(s.leader, leader as u64, "everyone agrees on the leader");
    }
    assert!(
        primary
            .peers
            .iter()
            .all(|p| p.state == PEER_UP && p.lag.iter().all(|&l| l == 0)),
        "settled cluster: every peer up, no lag"
    );

    println!("\n== cluster-wide metrics (3 registries merged) ==");
    let merged = MetricsSnapshot::merged(&snapshots);
    print!("{}", merged.render());
    assert_eq!(
        merged.counter_total("dpack_granted_total"),
        TRACED + UNTRACED,
        "the merged counter carries the whole deployment's grants"
    );

    // ---- span trees ----------------------------------------------------
    let trees = assemble_trees(dumps);
    assert_eq!(trees.len(), TRACED as usize, "one tree per traced grant");
    for ctx in &traces {
        let tree = trees
            .iter()
            .find(|t| t.trace == ctx.trace)
            .expect("traced grant left a tree");
        assert!(
            tree.is_complete(2),
            "trace {:016x} is incomplete: {tree:?}",
            ctx.trace
        );
    }
    let mut sampler = SlowTraceSampler::new(4, 2);
    for tree in &trees {
        sampler.offer(tree.clone());
    }
    println!("\n== slowest grant, across the deployment ==");
    render_tree(&sampler.trees()[0]);

    let json = sampler.export_chrome();
    let events = scan_chrome_json(&json).expect("well-formed chrome trace");
    assert_eq!(
        events,
        sampler.trees().iter().map(|t| t.spans.len()).sum::<usize>(),
        "one chrome event per sampled span"
    );
    let path = "target/cluster_top.trace.json";
    std::fs::write(path, &json).expect("write chrome trace");
    println!(
        "\nexported {} slowest traces ({events} spans) to {path} — load in chrome://tracing",
        sampler.trees().len()
    );

    for server in servers {
        server.stop();
    }
    for runner in runners {
        let _node = runner.stop();
    }
    println!("cluster top smoke: OK");
}
