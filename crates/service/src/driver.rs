//! The always-on deployment shape: a thread that runs the service's
//! scheduling cycle once per wall-clock interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::BudgetService;

/// A service running cycles on a background thread at a fixed
/// wall-clock interval. Virtual time advances by one scheduling period
/// per cycle. The thread is joined on [`ServiceHandle::stop`] and on
/// drop, so a dropped handle cannot leak it.
pub struct ServiceHandle {
    service: Arc<BudgetService>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Spawns the cycle thread: cycles run at virtual times `period`,
    /// `2·period`, … once per `interval` until [`ServiceHandle::stop`]
    /// or drop.
    pub fn spawn(service: Arc<BudgetService>, interval: Duration) -> Self {
        let period = service.config().scheduling_period;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut step = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    service.run_cycle(step as f64 * period);
                    step += 1;
                    std::thread::sleep(interval);
                }
            })
        };
        Self {
            service,
            stop,
            thread: Some(thread),
        }
    }

    /// The underlying service (for submissions and stats).
    pub fn service(&self) -> &Arc<BudgetService> {
        &self.service
    }

    /// Stops the cycle thread and returns the service.
    ///
    /// # Panics
    ///
    /// Panics if the cycle thread panicked.
    pub fn stop(mut self) -> Arc<BudgetService> {
        self.halt().expect("cycle thread panicked");
        Arc::clone(&self.service)
    }

    fn halt(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use dp_accounting::AlphaGrid;

    fn service(scheduling_period: f64) -> Arc<BudgetService> {
        Arc::new(BudgetService::new(
            AlphaGrid::new(vec![4.0, 16.0]).unwrap(),
            ServiceConfig {
                scheduling_period,
                ..ServiceConfig::default()
            },
        ))
    }

    #[test]
    fn runs_cycles_with_advancing_virtual_time() {
        let handle = ServiceHandle::spawn(service(2.5), Duration::from_millis(1));
        while handle.service().stats().cycles.len() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let service = handle.stop();
        let seen: Vec<f64> = service.stats().cycles.iter().map(|c| c.now).collect();
        assert_eq!(&seen[..3], &[2.5, 5.0, 7.5]);
    }

    #[test]
    fn drop_joins_the_thread() {
        let service = service(1.0);
        let handle = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));
        while service.stats().cycles_total == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(handle);
        // The cycle thread held the only other reference: once joined,
        // it is gone.
        assert_eq!(Arc::strong_count(&service), 1);
    }

    #[test]
    #[should_panic(expected = "period must be finite")]
    fn rejects_bad_period() {
        service(0.0);
    }
}
