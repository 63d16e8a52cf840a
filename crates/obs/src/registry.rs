//! The metrics registry: one named home for every counter, gauge, and
//! histogram in the process.
//!
//! Instruments are registered by **name + label set** (labels travel
//! pre-rendered, e.g. `phase="ingest"`); registering the same pair
//! twice returns a handle to the same underlying cells, which is how
//! independent layers (service, WAL, reactor) share one metrics truth
//! without threading handles through every constructor. Registration
//! takes the registry lock once; the handles it returns are lock-free
//! atomics, so the hot paths never touch the registry again.
//!
//! A **view** is a counter or gauge whose value its owner already
//! keeps: a closure [`Registry::snapshot`] calls, so the owner's hot
//! path writes nothing for it. It renders, and travels the wire,
//! exactly like a cell of the same kind.
//!
//! A registry created with [`Registry::disabled`] hands out inert
//! handles — recording through them is a single predictable branch —
//! and drops its views, which is both the "near-zero cost when unused"
//! contract and the off-leg of the instrumentation-overhead benchmark.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotone counter handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge handle storing an `f64`. Cloning shares the
/// cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets the gauge from an integer (depths, sizes).
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// One registered instrument; a view is a closure read at scrape time.
#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    View(Arc<dyn View<Value>>),
}

/// The value of one sample in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A mergeable distribution (boxed: a snapshot's 64 buckets would
    /// otherwise dominate every counter/gauge sample's size).
    Histogram(Box<HistogramSnapshot>),
}

/// One named sample of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric family name (`dpack_granted_total`).
    pub name: String,
    /// Pre-rendered label pairs (`phase="ingest"`), empty for none.
    pub labels: String,
    /// The sampled value.
    pub value: Value,
}

/// A point-in-time copy of every registered instrument, ordered by
/// (name, labels) — deterministic for rendering and diffing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The samples, sorted by (name, labels).
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Finds a sample by name and labels.
    pub fn get(&self, name: &str, labels: &str) -> Option<&Value> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| &s.value)
    }

    /// Sum of a counter family across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                Value::Counter(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// A histogram sample's snapshot, if that is what the name holds.
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(Value::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Renders the Prometheus-style text exposition (see
    /// [`crate::expo::render`]).
    pub fn render(&self) -> String {
        crate::expo::render(self)
    }

    /// Folds `other` into this snapshot sample-by-sample — the
    /// cluster-wide aggregation over per-node scrapes: counters sum,
    /// gauges sum (levels like queue depths and lags add across
    /// nodes), histograms merge bucket-wise. A role's levels are views
    /// that leave a node's scrape with the role, so the sum covers the
    /// roles alive at scrape time, not a deposed one's last reading.
    /// A (name, labels) pair
    /// present on only one side passes through; a kind mismatch keeps
    /// the existing side (same forgiveness as registering a name
    /// twice at different kinds). Output order stays (name, labels).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        let mut merged: BTreeMap<(String, String), Value> = self
            .samples
            .drain(..)
            .map(|s| ((s.name, s.labels), s.value))
            .collect();
        for sample in &other.samples {
            let key = (sample.name.clone(), sample.labels.clone());
            match merged.get_mut(&key) {
                None => {
                    merged.insert(key, sample.value.clone());
                }
                Some(Value::Counter(mine)) => {
                    if let Value::Counter(theirs) = &sample.value {
                        *mine += theirs;
                    }
                }
                Some(Value::Gauge(mine)) => {
                    if let Value::Gauge(theirs) = &sample.value {
                        *mine += theirs;
                    }
                }
                Some(Value::Histogram(mine)) => {
                    if let Value::Histogram(theirs) = &sample.value {
                        mine.merge(theirs);
                    }
                }
            }
        }
        self.samples = merged
            .into_iter()
            .map(|((name, labels), value)| Sample {
                name,
                labels,
                value,
            })
            .collect();
    }

    /// The cluster-wide aggregate of many per-node snapshots (see
    /// [`MetricsSnapshot::absorb`]).
    pub fn merged<'a>(snapshots: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for snap in snapshots {
            out.absorb(snap);
        }
        out
    }
}

/// The process-wide (or service-wide) instrument registry. Cloning
/// shares the underlying table.
#[derive(Clone)]
pub struct Registry {
    metrics: Option<Arc<Mutex<Table>>>,
}

/// The instruments by (name, labels).
type Table = BTreeMap<(String, String), Instrument>;

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Registry"
        } else {
            "Registry(disabled)"
        })
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Self {
            metrics: Some(Arc::default()),
        }
    }

    /// A registry that hands out inert handles and snapshots empty.
    pub fn disabled() -> Self {
        Self { metrics: None }
    }

    /// Whether instruments registered here record anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Table>> {
        let metrics = self.metrics.as_ref()?;
        Some(metrics.lock().expect("registry lock poisoned"))
    }

    /// What (name, labels) holds, registered by `make` if nothing does;
    /// `None` in a disabled registry.
    fn open(&self, name: &str, labels: &str, make: fn() -> Instrument) -> Option<Instrument> {
        let key = (name.to_string(), labels.to_string());
        Some(self.lock()?.entry(key).or_insert_with(make).clone())
    }

    /// Registers (or re-opens) a counter. A pair registered as another
    /// kind is a programming error; the caller gets an inert handle
    /// rather than a panic on a monitoring path.
    pub fn counter(&self, name: &str, labels: &str) -> Counter {
        match self.open(name, labels, || {
            Instrument::Counter(Counter(Some(Arc::default())))
        }) {
            Some(Instrument::Counter(c)) => c,
            _ => Counter::disabled(),
        }
    }

    /// Registers (or re-opens) a gauge, as [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &str) -> Gauge {
        match self.open(name, labels, || {
            Instrument::Gauge(Gauge(Some(Arc::default())))
        }) {
            Some(Instrument::Gauge(g)) => g,
            _ => Gauge::disabled(),
        }
    }

    /// Registers (or re-opens) a histogram, as [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &str) -> Histogram {
        match self.open(name, labels, || Instrument::Histogram(Histogram::new())) {
            Some(Instrument::Histogram(h)) => h,
            _ => Histogram::disabled(),
        }
    }

    /// Registers a counter whose total `read` computes at scrape time
    /// from state its owner already keeps; `None` leaves the sample out
    /// (say, once the owner is dropped). Replaces what the pair held,
    /// so a new owner takes the family over.
    pub fn counter_view(&self, name: &str, labels: &str, read: impl View<u64>) {
        self.view(name, labels, Arc::new(move || read().map(Value::Counter)));
    }

    /// [`Registry::counter_view`] for a gauge.
    pub fn gauge_view(&self, name: &str, labels: &str, read: impl View<f64>) {
        self.view(name, labels, Arc::new(move || read().map(Value::Gauge)));
    }

    fn view(&self, name: &str, labels: &str, read: Arc<dyn View<Value>>) {
        if let Some(mut metrics) = self.lock() {
            metrics.insert((name.into(), labels.into()), Instrument::View(read));
        }
    }

    /// Samples every registered instrument, in (name, labels) order.
    /// Views are read after the registry's lock is released, so a view
    /// may take its owner's locks in any order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(metrics) = self.lock().map(|m| m.clone()) else {
            return MetricsSnapshot::default();
        };
        let samples = metrics
            .into_iter()
            .filter_map(|((name, labels), instrument)| {
                let value = match instrument {
                    Instrument::Counter(c) => Value::Counter(c.get()),
                    Instrument::Gauge(g) => Value::Gauge(g.get()),
                    Instrument::Histogram(h) => Value::Histogram(Box::new(h.snapshot())),
                    Instrument::View(read) => read()?,
                };
                Some(Sample {
                    name,
                    labels,
                    value,
                })
            });
        MetricsSnapshot {
            samples: samples.collect(),
        }
    }
}

/// What a view reads: `None` leaves its sample out of a snapshot.
pub trait View<T>: Fn() -> Option<T> + Send + Sync + 'static {}

impl<T, F: Fn() -> Option<T> + Send + Sync + 'static> View<T> for F {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("requests", "");
        let b = r.counter("requests", "");
        let other = r.counter("requests", "tenant=\"1\"");
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
        assert_eq!(r.snapshot().counter_total("requests"), 4);
    }

    #[test]
    fn gauges_and_histograms_register() {
        let r = Registry::new();
        let g = r.gauge("depth", "");
        g.set_u64(7);
        let h = r.histogram("lat", "");
        h.record(100);
        let snap = r.snapshot();
        assert_eq!(snap.get("depth", ""), Some(&Value::Gauge(7.0)));
        assert_eq!(snap.histogram("lat", "").unwrap().count, 1);
        assert!(snap.get("absent", "").is_none());
    }

    #[test]
    fn kind_conflicts_yield_inert_handles_not_panics() {
        let r = Registry::new();
        let c = r.counter("x", "");
        c.inc();
        let g = r.gauge("x", "");
        g.set(5.0); // Inert: "x" is already a counter.
        assert_eq!(g.get(), 0.0);
        assert_eq!(r.snapshot().counter_total("x"), 1);
    }

    #[test]
    fn disabled_registry_is_free_and_empty() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x", "");
        let g = r.gauge("y", "");
        let h = r.histogram("z", "");
        c.inc();
        g.set(1.0);
        h.record(1);
        assert_eq!(c.get(), 0);
        assert!(r.snapshot().samples.is_empty());
    }

    #[test]
    fn a_view_renders_like_a_cell_with_the_same_reading() {
        let cells = Registry::new();
        cells.counter("a_total", "").add(5);
        cells.gauge("b", "x=\"1\"").set(2.5);
        cells.histogram("c", "").record(3);
        let views = Registry::new();
        views.counter_view("a_total", "", || Some(5));
        views.gauge_view("b", "x=\"1\"", || Some(2.5));
        views.histogram("c", "").record(3);
        assert_eq!(views.snapshot(), cells.snapshot());
        assert_eq!(views.snapshot().render(), cells.snapshot().render());
    }

    #[test]
    fn views_are_read_at_scrape_time_and_replaced_by_the_next_owner() {
        let r = Registry::new();
        let level = Arc::new(AtomicU64::new(1));
        let source = Arc::downgrade(&level);
        r.counter_view("v_total", "", move || {
            Some(source.upgrade()?.load(Ordering::Relaxed))
        });
        assert_eq!(r.snapshot().counter_total("v_total"), 1);
        level.store(4, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter_total("v_total"), 4);
        drop(level);
        assert!(
            r.snapshot().samples.is_empty(),
            "a gone source leaves the scrape"
        );
        r.counter_view("v_total", "", || Some(9));
        assert_eq!(r.snapshot().get("v_total", ""), Some(&Value::Counter(9)));
        // A view holds the pair: a cell registered there is inert.
        r.counter("v_total", "").inc();
        assert_eq!(r.snapshot().counter_total("v_total"), 9);
        let off = Registry::disabled();
        off.gauge_view("g", "", || Some(1.0));
        assert!(off.snapshot().samples.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let r = Registry::new();
        r.counter("b", "").inc();
        r.counter("a", "x=\"2\"").inc();
        r.counter("a", "x=\"1\"").inc();
        let names: Vec<(String, String)> = r
            .snapshot()
            .samples
            .into_iter()
            .map(|s| (s.name, s.labels))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a".into(), "x=\"1\"".into()),
                ("a".into(), "x=\"2\"".into()),
                ("b".into(), "".into())
            ]
        );
    }
}
