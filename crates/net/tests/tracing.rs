//! The distributed-tracing acceptance suite: a three-node cluster
//! under manual clocks and loopback transports submits traced tasks,
//! merges every node's span dump, and pins the resulting trees
//! **exactly** — every granted task leaves one complete cross-node
//! tree (admission → cycle → WAL flush → replication ship → replica
//! append → ack on both replicas) whose span ids, parent links, and
//! recording nodes all match the derived-id contract. The same run
//! then checks the introspection plane: `ClusterStatus` answers from
//! the primary and a replica agree with the live role state, and the
//! per-peer replication lag matches the ledgers bit for bit — both
//! settled (all zeros) and after one replica is cut off mid-run.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, Task};
use dpack_net::obs::trace::{assemble_trees, span_id, SlowTraceSampler};
use dpack_net::obs::{ManualClock, Obs, Span, SpanKind, TraceContext, Tracer, Value};
use dpack_net::{
    ClusterConfig, ClusterNode, ClusterPeer, LoopbackTransport, NetClient, NetError, ReplyHandle,
    ServiceCore, Transport,
};
use dpack_service::wal::SimStorage;
use dpack_service::{DurabilityOptions, ServiceConfig, StatsRetention};

const N: usize = 3;
const BLOCKS: u64 = 4;
/// Virtual time advances in 5ms steps, exactly like the chaos suite.
const TICK: u64 = 5_000_000;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![4.0, 16.0]).expect("valid grid")
}

/// One shard keeps the expected tree single-stream: one WAL flush and
/// one ship per grant, which is what the exact span-set assertion
/// below pins. Four shards and two workers put a cycle's grants on
/// several streams of one ship round, appended on different threads.
fn service_config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        workers: shards.min(2),
        unlock_steps: 1,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    }
}

fn task(id: u64) -> Task {
    Task::new(
        id,
        1.0,
        vec![id % BLOCKS],
        RdpCurve::constant(&grid(), 0.25),
        0.0,
    )
}

// ---- the simulated network -------------------------------------------

/// The switchboard: which nodes answer, behind which request core.
/// Cutting a node refuses new dials and breaks every established
/// connection to it.
struct Net {
    cores: Mutex<Vec<Option<ServiceCore>>>,
    alive: Vec<AtomicBool>,
}

impl Net {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            cores: Mutex::new((0..N).map(|_| None).collect()),
            alive: (0..N).map(|_| AtomicBool::new(true)).collect(),
        })
    }

    fn check(&self, target: usize) -> Result<(), NetError> {
        if !self.alive[target].load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        Ok(())
    }
}

struct CutTransport {
    inner: LoopbackTransport,
    net: Arc<Net>,
    target: usize,
}

impl Transport for CutTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.net.check(self.target)?;
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.net.check(self.target)?;
        self.inner.recv_frame()
    }
}

fn dial(net: &Arc<Net>, target: usize) -> Result<NetClient, NetError> {
    net.check(target)?;
    let core = net.cores.lock().expect("switchboard lock poisoned")[target]
        .clone()
        .ok_or(NetError::Closed)?;
    Ok(NetClient::new(Box::new(CutTransport {
        inner: LoopbackTransport::with_core(core),
        net: Arc::clone(net),
        target,
    })))
}

// ---- the harness ------------------------------------------------------

struct Cluster {
    net: Arc<Net>,
    nodes: Vec<ClusterNode>,
    clocks: Vec<Arc<ManualClock>>,
    obs: Vec<Arc<Obs>>,
    stepping: Vec<bool>,
    now: u64,
}

impl Cluster {
    fn new(shards: usize) -> Self {
        let net = Net::new();
        let mut nodes = Vec::with_capacity(N);
        let mut clocks = Vec::with_capacity(N);
        let mut all_obs = Vec::with_capacity(N);
        for i in 0..N {
            let (obs, clock) = Obs::manual(0);
            let peers = (0..N)
                .filter(|j| *j != i)
                .map(|j| {
                    let net = Arc::clone(&net);
                    ClusterPeer {
                        id: j as u64,
                        addr: ([127, 0, 0, 1], 7000 + j as u16).into(),
                        connector: Arc::new(move || dial(&net, j)),
                    }
                })
                .collect();
            let config = ClusterConfig {
                node_id: i as u64,
                grid: grid(),
                service: service_config(shards),
                durability: DurabilityOptions::default(),
                quorum: 1,
                majority: 2,
                heartbeat_nanos: 2 * TICK,
                election_base_nanos: 6 * TICK,
                election_stagger_nanos: 2 * TICK,
                ship_timeout: None,
            };
            let node =
                ClusterNode::new(config, peers, Box::new(SimStorage::new()), Arc::clone(&obs))
                    .expect("node opens");
            net.cores.lock().expect("switchboard lock poisoned")[i] = Some(node.core().clone());
            nodes.push(node);
            clocks.push(clock);
            all_obs.push(obs);
        }
        Self {
            net,
            nodes,
            clocks,
            obs: all_obs,
            stepping: vec![true; N],
            now: 0,
        }
    }

    fn tick(&mut self) {
        self.now += TICK;
        for i in 0..N {
            if !self.stepping[i] {
                continue;
            }
            self.clocks[i].set(self.now);
            self.nodes[i].tick(self.now);
        }
    }

    fn await_leader(&mut self, live: usize) -> usize {
        for _ in 0..400 {
            self.tick();
            let primaries: Vec<usize> = (0..N)
                .filter(|&i| self.stepping[i] && self.nodes[i].is_primary())
                .collect();
            assert!(primaries.len() <= 1, "two live primaries: {primaries:?}");
            if let [leader] = primaries[..] {
                let ready = self.nodes[leader]
                    .core()
                    .replicator()
                    .is_some_and(|r| r.live() >= live);
                if ready {
                    return leader;
                }
            }
        }
        panic!("no leader with {live} live replicas within 400 ticks");
    }

    /// Cuts node `i` off the network — dials and established frames
    /// both fail — and stops stepping it, freezing its ledger where
    /// the last shipped batch left it.
    fn cut(&mut self, i: usize) {
        self.net.alive[i].store(false, Ordering::Release);
        self.stepping[i] = false;
    }

    /// Drives two cycles and asserts every handle resolved to a grant.
    fn settle_granted(&mut self, client: &mut NetClient, handles: Vec<(u64, ReplyHandle)>) {
        self.tick();
        self.tick();
        for (id, h) in handles {
            let outcome = client.wait_decision(h).expect("decision");
            assert!(outcome.is_granted(), "task {id} refused: {outcome}");
        }
    }
}

// ---- the acceptance property ------------------------------------------

#[test]
#[allow(clippy::too_many_lines)]
fn traced_grants_assemble_into_exact_cross_node_trees_and_status_lag_matches_the_ledgers() {
    let mut cluster = Cluster::new(1);
    let leader = cluster.await_leader(2);
    let leader_id = leader as u64;
    let replicas: Vec<u64> = (0..N as u64).filter(|&i| i != leader_id).collect();

    let mut client = dial(&cluster.net, leader).expect("dial leader");
    for b in 0..BLOCKS {
        client
            .register_block(&Block::new(b, RdpCurve::constant(&grid(), 8.0), 0.0))
            .expect("register block");
    }

    // Six traced submissions interleaved with four untraced ones: the
    // trace set must cover exactly the traced six, and untraced tasks
    // must stay span-free (the zero-overhead contract).
    let tracer = Tracer::seeded(0x7ACE);
    let traced: Vec<(Task, TraceContext)> = (0..6).map(|id| (task(id), tracer.start())).collect();
    let mut handles = Vec::new();
    for (t, ctx) in &traced {
        handles.push((
            t.id,
            client
                .submit_traced_nowait(7, t, *ctx)
                .expect("submit traced"),
        ));
    }
    for id in 6..10 {
        let t = task(id);
        handles.push((id, client.submit_nowait(7, &t).expect("submit untraced")));
    }
    cluster.settle_granted(&mut client, handles);

    // Merge every node's span dump (the paginated wire path) into
    // causal trees.
    let dumps: Vec<Vec<Span>> = (0..N)
        .map(|i| {
            dial(&cluster.net, i)
                .expect("dial node")
                .span_dump(0)
                .expect("span dump")
        })
        .collect();
    let trees = assemble_trees(dumps);
    let want_traces: BTreeSet<u64> = traced.iter().map(|(_, c)| c.trace).collect();
    let got_traces: BTreeSet<u64> = trees.iter().map(|t| t.trace).collect();
    assert_eq!(
        got_traces, want_traces,
        "exactly the traced submissions leave span trees"
    );

    // Exact structure, per trace: every span id, parent link, and
    // recording node is derived from the trace id alone, so the whole
    // tree is predictable — and any propagation bug breaks it.
    let phases = [
        SpanKind::PhaseIngest,
        SpanKind::PhaseDecide,
        SpanKind::PhaseCommit,
        SpanKind::PhaseFinalize,
    ];
    for (t, ctx) in &traced {
        let tree = trees
            .iter()
            .find(|tr| tr.trace == ctx.trace)
            .expect("one tree per traced task");
        assert!(
            tree.is_complete(2),
            "task {} tree incomplete: {tree:?}",
            t.id
        );
        let cycle = span_id(ctx.trace, SpanKind::Cycle, 0);
        let ship = span_id(ctx.trace, SpanKind::ReplShip, 0);
        let mut expected: Vec<(SpanKind, u64, u64, u64)> = vec![
            (SpanKind::Grant, ctx.span, 0, leader_id),
            (
                SpanKind::QueueWait,
                span_id(ctx.trace, SpanKind::QueueWait, 0),
                ctx.span,
                leader_id,
            ),
            (SpanKind::Cycle, cycle, ctx.span, leader_id),
            (
                SpanKind::WalFlush,
                span_id(ctx.trace, SpanKind::WalFlush, 0),
                cycle,
                leader_id,
            ),
            (SpanKind::ReplShip, ship, cycle, leader_id),
            (
                SpanKind::QuorumWait,
                span_id(ctx.trace, SpanKind::QuorumWait, 0),
                ship,
                leader_id,
            ),
        ];
        for kind in phases {
            expected.push((kind, span_id(ctx.trace, kind, 0), cycle, leader_id));
        }
        for &r in &replicas {
            expected.push((
                SpanKind::ReplicaAppend,
                span_id(ctx.trace, SpanKind::ReplicaAppend, r.wrapping_shl(32)),
                ship,
                r,
            ));
        }
        expected.sort_unstable();
        let mut got: Vec<(SpanKind, u64, u64, u64)> = tree
            .spans
            .iter()
            .map(|s| (s.kind, s.span, s.parent, s.node))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "task {} span tree", t.id);

        // Payload words: stream/shard addresses, the quorum-closing
        // link ordinal (quorum 1 → the first link acks it closed),
        // and the shipped batch seq both replicas agree on.
        let flush = tree.of_kind(SpanKind::WalFlush);
        assert!(flush.iter().all(|s| s.a == 0), "shard-0 flush address");
        assert!(tree.of_kind(SpanKind::ReplShip)[0].a == 0, "shard-0 stream");
        assert_eq!(tree.of_kind(SpanKind::QuorumWait)[0].a, 0, "closing link");
        let appends = tree.of_kind(SpanKind::ReplicaAppend);
        assert_eq!(
            appends[0].a, appends[1].a,
            "both replicas applied the same batch"
        );
        assert!(appends[0].a >= 1, "batch seqs start at 1");

        // Causal timing, within the leader's clock domain: the root
        // covers the queue wait and the deciding cycle.
        let root = tree.root().expect("root span");
        let cycle_span = tree.of_kind(SpanKind::Cycle)[0];
        assert!(root.start_nanos <= cycle_span.start_nanos);
        assert!(cycle_span.end_nanos <= root.end_nanos);
    }

    // The slow-trace sampler keeps the slowest complete trees and the
    // chrome://tracing export names every kept trace.
    let mut sampler = SlowTraceSampler::new(3, 2);
    for tree in &trees {
        sampler.offer(tree.clone());
    }
    assert_eq!(sampler.trees().len(), 3, "three slowest of six kept");
    let json = sampler.export_chrome();
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
    for tree in sampler.trees() {
        assert!(json.contains(&format!("{:016x}", tree.trace)));
    }

    // ---- the introspection plane: settled cluster ---------------------

    let status = client.cluster_status().expect("leader status");
    assert!(status.is_primary);
    assert_eq!(status.node_id, leader_id);
    assert_eq!(status.leader, leader_id);
    assert_eq!(status.term, cluster.nodes[leader].current_term());
    let repl = cluster.nodes[leader]
        .core()
        .replicator()
        .expect("leader replicator");
    assert_eq!(status.vector, repl.vector(), "shipped seq vector");
    assert_eq!(status.peers.len(), N - 1);
    for peer in &status.peers {
        let replica_vector = cluster.nodes[peer.id as usize]
            .core()
            .replica_node()
            .expect("replica role")
            .wal()
            .vector();
        assert_eq!(
            status.vector, replica_vector,
            "settled replicas hold the full stream"
        );
        assert_eq!(
            peer.lag,
            vec![0; status.vector.len()],
            "no lag when settled"
        );
        assert_eq!(peer.state, 0, "peer {} is Up", peer.id);
    }
    // And the primary's lag gauges agree: nothing shipped is unacked.
    let snapshot = cluster.obs[leader].registry.snapshot();
    for labels in ["stream=\"shard-0\"", "stream=\"coord\""] {
        match snapshot.get("dpack_repl_lag", labels) {
            Some(Value::Gauge(v)) => assert_eq!(*v, 0.0, "{labels} lag gauge"),
            other => panic!("missing dpack_repl_lag {labels}: {other:?}"),
        }
    }

    // A replica answers for itself: its own vector, the leader it
    // follows, and the topology view pushed by the failure detector.
    let follower = replicas[0] as usize;
    let mut follower_client = dial(&cluster.net, follower).expect("dial follower");
    let follower_status = follower_client.cluster_status().expect("follower status");
    assert!(!follower_status.is_primary);
    assert_eq!(follower_status.node_id, replicas[0]);
    assert_eq!(follower_status.leader, leader_id);
    assert_eq!(
        follower_status.vector,
        cluster.nodes[follower]
            .core()
            .replica_node()
            .expect("replica role")
            .wal()
            .vector()
    );
    assert_eq!(follower_status.peers.len(), N - 1);

    // ---- the introspection plane: one replica cut off ------------------

    // Quorum 1 keeps the deployment writable; the cut replica's ledger
    // freezes, and the leader's per-peer lag must equal its own
    // shipped vector minus that frozen ledger — bit for bit.
    let victim = replicas[1] as usize;
    cluster.cut(victim);
    let mut handles = Vec::new();
    for id in 10..16 {
        let t = task(id);
        handles.push((id, client.submit_nowait(7, &t).expect("submit degraded")));
    }
    cluster.settle_granted(&mut client, handles);
    for _ in 0..20 {
        cluster.tick(); // Let the failure detector and redials settle.
    }

    let status = client.cluster_status().expect("degraded status");
    assert_eq!(status.vector, repl.vector());
    for peer in &status.peers {
        let replica_vector = cluster.nodes[peer.id as usize]
            .core()
            .replica_node()
            .expect("replica role")
            .wal()
            .vector();
        let want_lag: Vec<u64> = status
            .vector
            .iter()
            .zip(&replica_vector)
            .map(|(shipped, acked)| shipped.saturating_sub(*acked))
            .collect();
        assert_eq!(
            peer.lag, want_lag,
            "peer {} lag matches its ledger bit for bit",
            peer.id
        );
    }
    let dead = status
        .peers
        .iter()
        .find(|p| p.id == victim as u64)
        .expect("cut peer listed");
    assert!(
        dead.lag.iter().any(|&l| l > 0),
        "the cut replica fell behind: {:?}",
        dead.lag
    );
    assert_ne!(dead.state, 0, "the cut replica is no longer Up");
    let live = status
        .peers
        .iter()
        .find(|p| p.id == replicas[0])
        .expect("live peer listed");
    assert_eq!(live.state, 0, "the surviving replica stays Up");
    assert_eq!(live.lag, vec![0; status.vector.len()]);
}

/// On a four-shard ledger one cycle's grants ride one ship round on
/// several streams. A traced grant must get the flush, ship and
/// quorum-wait spans of **its own** streams only — its block's shard
/// for a shard-local grant; its blocks' shards plus the coordinator
/// for a spanning one — and each replica append must parent onto a
/// ship span that exists.
#[test]
fn on_four_shards_a_traced_grant_is_shipped_on_its_own_streams_only() {
    const SHARDS: u64 = 4;
    const COORD: u64 = u32::MAX as u64;
    let mut cluster = Cluster::new(SHARDS as usize);
    let leader = cluster.await_leader(2);
    let mut client = dial(&cluster.net, leader).expect("dial leader");
    for b in 0..BLOCKS {
        client
            .register_block(&Block::new(b, RdpCurve::constant(&grid(), 8.0), 0.0))
            .expect("register block");
    }

    // Eight shard-local tasks, two per shard, and one spanning shards
    // 1 and 2 — all traced, all granted by the same cycle.
    let tracer = Tracer::seeded(0x5A4D);
    let mut traced: Vec<(Task, Vec<u64>, TraceContext)> = (0..8)
        .map(|id| (task(id), vec![id % SHARDS], tracer.start()))
        .collect();
    let spanning = Task::new(8, 1.0, vec![1, 2], RdpCurve::constant(&grid(), 0.25), 0.0);
    traced.push((spanning, vec![1, 2, COORD], tracer.start()));
    let mut handles = Vec::new();
    for (t, _, ctx) in &traced {
        let handle = client.submit_traced_nowait(7, t, *ctx);
        handles.push((t.id, handle.expect("submit traced")));
    }
    cluster.settle_granted(&mut client, handles);
    let repl = cluster.nodes[leader]
        .core()
        .replicator()
        .expect("replicator");
    assert_eq!(
        repl.vector(),
        [2, 3, 3, 2, 1],
        "registration + one local batch per shard + one intent batch on 1 and 2 + one decision"
    );

    let dumps: Vec<Vec<Span>> = (0..N)
        .map(|i| {
            let mut node = dial(&cluster.net, i).expect("dial node");
            node.span_dump(0).expect("span dump")
        })
        .collect();
    let trees = assemble_trees(dumps);
    assert_eq!(trees.len(), traced.len());
    for (t, streams, ctx) in &traced {
        let tree = trees
            .iter()
            .find(|tr| tr.trace == ctx.trace)
            .expect("one tree per traced task");
        assert!(tree.is_complete(2), "task {} tree: {tree:?}", t.id);
        let addressed = |kind: SpanKind| -> Vec<(u64, u64)> {
            let mut spans: Vec<(u64, u64)> =
                tree.of_kind(kind).iter().map(|s| (s.span, s.a)).collect();
            spans.sort_unstable_by_key(|(_, a)| *a);
            spans
        };
        let derived = |kind: SpanKind| -> Vec<(u64, u64)> {
            let span = |stream: &u64| (span_id(ctx.trace, kind, *stream), *stream);
            streams.iter().map(span).collect()
        };
        assert_eq!(addressed(SpanKind::WalFlush), derived(SpanKind::WalFlush));
        assert_eq!(addressed(SpanKind::ReplShip), derived(SpanKind::ReplShip));
        let waits: Vec<u64> = tree
            .of_kind(SpanKind::QuorumWait)
            .iter()
            .map(|s| s.span)
            .collect();
        let mut want: Vec<u64> = derived(SpanKind::QuorumWait).iter().map(|s| s.0).collect();
        want.sort_unstable();
        let mut got = waits;
        got.sort_unstable();
        assert_eq!(got, want, "task {} quorum waits", t.id);
        // Two replicas append each of the task's streams.
        assert_eq!(
            tree.of_kind(SpanKind::ReplicaAppend).len(),
            2 * streams.len(),
            "task {} replica appends",
            t.id
        );
    }
}
