//! `remote_quorum` — the `durable_stream` tasks sent by one pipelining
//! client over `127.0.0.1` TCP to a durable primary that ships every
//! WAL batch to 2 replica servers and waits for both (quorum 2). Wire
//! codec, reactor sweep, ship and quorum wait dominate; the scheduler
//! idles. Everything is loopback inside one process: message delay is
//! processor time, not a network.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dpack_net::{NetClient, NetServer, ReplicaNode, Replicator};
use dpack_service::obs::Obs;
use dpack_service::wal::{SimStorage, WalStorage};
use dpack_service::{
    BudgetService, DurabilityOptions, DurabilityStats, ReplicationSink, ServiceHandle,
};

use crate::drive::{self, check_ledger, LoopStats, CYCLE_INTERVAL};
use crate::harness::{nanos, percentile, timed, Bench, SliceTable};
use crate::inputs::{self, Stream};
use crate::probes;
use crate::trace::{open, CountingTransport, SocketCounters, TimedSink, TimedStorage, Tracer};
use crate::workloads::{check_wal, report_wal, service_config};

const REPLICAS: usize = 2;

/// The log is never compacted during a round: a replica is compared
/// with the primary record for record at the end.
fn durability() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every_cycles: None,
        ..DurabilityOptions::default()
    }
}

/// A primary behind a socket, its cycle thread, and its replicas.
struct Deployment {
    cycles: ServiceHandle,
    server: NetServer,
    replicator: Option<Arc<Replicator>>,
    replicas: Vec<(Arc<ReplicaNode>, NetServer)>,
    wal_before: DurabilityStats,
}

impl Deployment {
    /// Starts `replicas` replica servers (0 = standalone), a durable
    /// primary shipping to all of them at quorum = all, registers the
    /// blocks and binds the primary's socket. When tracing, the
    /// primary's storage and sink are the timed decorators.
    fn start(stream: &Stream, replicas: usize, tracer: Option<&Arc<Tracer>>) -> Self {
        let shards = service_config().shards;
        let sim: Box<dyn WalStorage> = match tracer {
            None => Box::new(SimStorage::new()),
            Some(t) => Box::new(TimedStorage::new(
                Box::new(SimStorage::new()),
                Arc::clone(t),
            )),
        };
        let mut service =
            BudgetService::recover(stream.grid.clone(), service_config(), &*sim, durability())
                .expect("fresh storage opens");
        let nodes: Vec<(Arc<ReplicaNode>, NetServer)> = (0..replicas)
            .map(|_| {
                let node = Arc::new(
                    ReplicaNode::open(
                        &SimStorage::new(),
                        shards,
                        durability().segment_bytes,
                        Obs::wall(),
                    )
                    .expect("fresh replica"),
                );
                let server = NetServer::bind_replica(Arc::clone(&node), "127.0.0.1:0")
                    .expect("bind replica on loopback");
                (node, server)
            })
            .collect();
        let replicator = (replicas > 0).then(|| {
            let addrs: Vec<_> = nodes.iter().map(|(_, s)| s.local_addr()).collect();
            Arc::new(
                Replicator::connect(&addrs, replicas, shards, service.obs())
                    .expect("replicas reachable"),
            )
        });
        if let Some(replicator) = &replicator {
            let sink: Arc<dyn ReplicationSink> = match tracer {
                None => Arc::clone(replicator) as Arc<dyn ReplicationSink>,
                Some(t) => Arc::new(TimedSink::new(
                    Arc::clone(replicator) as Arc<dyn ReplicationSink>,
                    Arc::clone(t),
                )),
            };
            service.replicate_to(sink);
        }
        for block in &stream.blocks {
            service
                .register_block(block.clone())
                .expect("unique blocks");
        }
        let wal_before = service.ledger().durability_stats().unwrap_or_default();
        let service = Arc::new(service);
        let server =
            NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind primary on loopback");
        Self {
            cycles: ServiceHandle::spawn(service, CYCLE_INTERVAL),
            server,
            replicator,
            replicas: nodes,
            wal_before,
        }
    }

    /// A client on the primary's socket: the program's `TcpTransport`,
    /// or the counting one when tracing.
    fn client(&self, tracer: Option<&Arc<Tracer>>) -> (NetClient, Option<Arc<SocketCounters>>) {
        let addr = self.server.local_addr();
        match tracer {
            None => (NetClient::connect(addr).expect("connect to primary"), None),
            Some(t) => {
                let transport =
                    CountingTransport::connect(addr, Arc::clone(t)).expect("connect to primary");
                let counters = transport.counters();
                (NetClient::new(Box::new(transport)), Some(counters))
            }
        }
    }

    /// Stops every thread and checks the deployment's end state: the
    /// ledger against the decisions, no failed append or ship, and each
    /// replica's sequence vector equal to the primary's. Fills the
    /// cycle statistics the primary's own thread collected and, when
    /// `layers` is set, posts the layer samples derived from them.
    fn stop(self, bench: &mut Bench, stats: &mut LoopStats, layers: bool) {
        let service = self.cycles.stop();
        self.server.stop();
        let lag = self.replicator.as_ref().map_or(0, |r| {
            r.peer_status()
                .iter()
                .flat_map(|p| p.lag.iter().copied())
                .max()
                .unwrap_or(0)
        });
        for (i, (node, server)) in self.replicas.into_iter().enumerate() {
            server.stop();
            let primary = self.replicator.as_ref().map(|r| r.vector());
            bench.check(Some(node.wal().vector()) == primary, || {
                format!("replica {i} ended at a different sequence vector than the primary")
            });
        }
        check_ledger(bench, &service, stats);
        let wal_after = service.ledger().durability_stats().unwrap_or_default();
        check_wal(bench, &wal_after);

        let summary = service.stats_summary();
        stats.cycles = service.stats().cycles.iter().cloned().collect();
        stats.cycle_ns = stats.cycles.iter().map(|c| nanos(c.total)).collect();
        stats.cycle_busy_s = summary.cycle_time.as_secs_f64();
        if layers {
            stats.report_cycles(bench);
            report_wal(bench, &self.wal_before, &wal_after, stats.granted);
            bench.sample("net.replica_lag_max", lag as f64);
        }
    }
}

pub fn run(bench: &mut Bench) {
    let n_tasks = bench.size(60_000, 1_000);
    while bench.next_round().is_some() {
        let tracer = bench.tracer().cloned();
        let tracer = tracer.as_ref();
        let _round = open(tracer, "bench.round", 0);

        let setup = Instant::now();
        let span = open(tracer, "workloads.generate", 0);
        let (generate_s, stream) = timed(|| inputs::stream(bench.seed, n_tasks));
        drop(span);
        bench.sample("workloads.generate_s", generate_s);
        let deployment = Deployment::start(&stream, REPLICAS, tracer);
        let (mut client, sockets) = deployment.client(tracer);
        bench.sample("setup_s", setup.elapsed().as_secs_f64());

        let ships_before = tracer.map_or(0, |t| t.count("net.ship"));
        let mut stats = drive::over_socket(&mut client, &stream.tasks, tracer);
        drop(client);
        stats.report(bench);
        deployment.stop(bench, &mut stats, bench.is_traced());
        if let (Some(tracer), Some(sockets)) = (tracer, sockets) {
            let decisions = stats.decisions().max(1) as f64;
            let bytes = sockets.bytes_out.load(Ordering::Relaxed)
                + sockets.bytes_in.load(Ordering::Relaxed);
            let calls =
                sockets.writes.load(Ordering::Relaxed) + sockets.reads.load(Ordering::Relaxed);
            bench.sample("net.bytes_per_decision", bytes as f64 / decisions);
            bench.sample("net.syscalls_per_decision", calls as f64 / decisions);
            let ships = tracer.count("net.ship") - ships_before;
            bench.sample(
                "net.ships_per_kgrant",
                1e3 * ships as f64 / stats.granted.max(1) as f64,
            );
        }
    }
    bench.check_exact("allocated_tasks");

    let Some(tracer) = bench.probe_tracer().cloned() else {
        return;
    };
    let micros = |name: &str, q: f64| percentile(&tracer.durations(name), q) / 1e3;
    bench.once("net.ship_us_p50", micros("net.ship", 0.5));
    bench.once("net.ship_us_p99", micros("net.ship", 0.99));
    bench.once("wal.append_sync_us_p50", micros("wal.append_sync", 0.5));
    bench.once("wal.append_sync_us_p99", micros("wal.append_sync", 0.99));

    // The single-node baseline: the same stream against the same
    // primary with no replicas.
    let stream = inputs::stream(bench.seed, n_tasks);
    let mut standalone = SliceTable::default();
    for _ in 0..2 {
        let deployment = Deployment::start(&stream, 0, None);
        let (mut client, _) = deployment.client(None);
        let mut stats = drive::over_socket(&mut client, &stream.tasks, None);
        drop(client);
        bench.count(stats.submitted, stats.failed);
        standalone.add_round(&stats.slices);
        // The layer samples stay those of the quorum legs.
        deployment.stop(bench, &mut stats, false);
    }
    bench.once(
        "net.standalone_decisions_per_s",
        standalone.decisions_per_s(),
    );
    bench.once(
        "net.quorum_cost_ratio",
        bench.value_of("decisions_per_s") / standalone.decisions_per_s(),
    );

    // Codec and server core with no socket, on a plain in-memory
    // service holding the same blocks.
    let plain = BudgetService::new(stream.grid.clone(), service_config());
    for block in &stream.blocks {
        plain.register_block(block.clone()).expect("unique blocks");
    }
    probes::wire(bench, Arc::new(plain), &stream.tasks);
}
