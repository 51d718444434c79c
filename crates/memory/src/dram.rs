//! DRAM controller timing model (paper §3.2, §4.4).
//!
//! Each controller serves a slice of total off-chip bandwidth. Queueing
//! under lax synchronization is modeled with an independent queue clock
//! referenced against the global-progress estimate (paper §3.6.1): "when a
//! packet arrives, its delay is the difference between the queue clock and
//! the global clock [and] the queue clock is incremented by the processing
//! time of the packet".

use graphite_base::{Cycles, LaxQueue};
use graphite_trace::Metric;

/// One memory controller: fixed access latency plus bandwidth-derived
/// service time with lax queueing.
///
/// # Examples
///
/// ```
/// use graphite_base::Cycles;
/// use graphite_memory::dram::DramController;
///
/// // 5.13 GB/s at a 1 GHz target clock = 5.13 bytes/cycle.
/// let ctrl = DramController::new(5.13, Cycles(100));
/// let lat = ctrl.access(Cycles(0), 64);
/// // 100 fixed + ceil(64 / 5.13) = 13 service, no queueing when idle.
/// assert_eq!(lat, Cycles(113));
/// ```
#[derive(Debug)]
pub struct DramController {
    queue: LaxQueue,
    bytes_per_cycle: f64,
    access_latency: Cycles,
    /// Number of requests served.
    pub requests: Metric,
    /// Sum of queueing delays (cycles), for mean-queueing reports.
    pub queue_delay_sum: Metric,
}

impl DramController {
    /// Creates a controller with `bytes_per_cycle` of service bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f64, access_latency: Cycles) -> Self {
        assert!(bytes_per_cycle > 0.0, "controller bandwidth must be positive");
        DramController {
            queue: LaxQueue::new(),
            bytes_per_cycle,
            access_latency,
            requests: Metric::new(),
            queue_delay_sum: Metric::new(),
        }
    }

    /// Service time for a request of `bytes`.
    pub fn service_time(&self, bytes: u32) -> Cycles {
        Cycles((bytes as f64 / self.bytes_per_cycle).ceil() as u64)
    }

    /// Models one access at estimated global time `now`; returns total
    /// latency (fixed + queueing + service).
    pub fn access(&self, now: Cycles, bytes: u32) -> Cycles {
        let service = self.service_time(bytes);
        let qdelay = self.queue.submit(now, service);
        self.requests.incr();
        self.queue_delay_sum.add(qdelay.0);
        self.access_latency + qdelay + service
    }

    /// Mean queueing delay per request, in cycles.
    pub fn mean_queue_delay(&self) -> f64 {
        let n = self.requests.get();
        if n == 0 {
            0.0
        } else {
            self.queue_delay_sum.get() as f64 / n as f64
        }
    }

    /// Checkpoint export: `[queue_clock, requests, queue_delay_sum]`.
    pub fn export_state(&self) -> [u64; 3] {
        [self.queue.clock().0, self.requests.get(), self.queue_delay_sum.get()]
    }

    /// Overwrites the controller's mutable state with a previously exported
    /// triple (checkpoint restore).
    pub fn import_state(&self, s: [u64; 3]) {
        self.queue.set_clock(Cycles(s[0]));
        self.requests.take();
        self.requests.add(s[1]);
        self.queue_delay_sum.take();
        self.queue_delay_sum.add(s[2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_has_no_queueing() {
        let c = DramController::new(8.0, Cycles(100));
        assert_eq!(c.access(Cycles(0), 64), Cycles(100 + 8));
        assert_eq!(c.mean_queue_delay(), 0.0);
    }

    #[test]
    fn saturation_builds_queue_delay() {
        let c = DramController::new(1.0, Cycles(0));
        // Three back-to-back 10-byte requests at the same instant.
        assert_eq!(c.access(Cycles(0), 10), Cycles(10));
        assert_eq!(c.access(Cycles(0), 10), Cycles(20));
        assert_eq!(c.access(Cycles(0), 10), Cycles(30));
        assert!((c.mean_queue_delay() - 10.0).abs() < 1e-12);
        assert_eq!(c.requests.get(), 3);
    }

    #[test]
    fn narrower_bandwidth_means_longer_service() {
        // This is the Figure 9 effect: per-tile controllers split total
        // bandwidth, so more tiles => slower service each.
        let wide = DramController::new(5.13, Cycles(100));
        let narrow = DramController::new(5.13 / 64.0, Cycles(100));
        assert!(narrow.service_time(64) > wide.service_time(64));
        assert_eq!(narrow.service_time(64), Cycles((64.0f64 / (5.13 / 64.0)).ceil() as u64));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = DramController::new(0.0, Cycles(1));
    }
}
