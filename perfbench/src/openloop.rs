//! Open-loop request generation: each request is sent at its due time
//! whether or not earlier ones have finished, by at most `clients`
//! threads with one connection each, and is timed from when it was due.
//! A request a client could only send late (every client was still busy)
//! carries that wait in its latency, and the lateness is reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The timing of one sent request.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<T> {
    pub index: usize,
    /// From the due time to the complete response, ms.
    pub latency_ms: f64,
    /// How late the request was sent, ms (0 when on time).
    pub late_ms: f64,
    /// From sending to the complete response, ms.
    pub service_ms: f64,
    pub result: T,
}

/// Latency from the due time and lateness of the send, both in ms, from
/// offsets (in seconds) of due, send and completion since the start.
pub fn due_timing(due_s: f64, sent_s: f64, done_s: f64) -> (f64, f64) {
    ((done_s - due_s) * 1e3, (sent_s - due_s).max(0.0) * 1e3)
}

/// Sends request `i` at `due_s[i]` (seconds after the call) through
/// `send`, from `clients` threads. `due_s` must be sorted. Results come
/// back in request order.
pub fn run<T: Send>(
    due_s: &[f64],
    clients: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<Timed<T>> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(due_s.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= due_s.len() {
                    break;
                }
                let now = start.elapsed().as_secs_f64();
                if now < due_s[i] {
                    std::thread::sleep(Duration::from_secs_f64(due_s[i] - now));
                }
                let sent = start.elapsed().as_secs_f64();
                let result = send(i);
                let done = start.elapsed().as_secs_f64();
                let (latency_ms, late_ms) = due_timing(due_s[i], sent, done);
                let timed = Timed {
                    index: i,
                    latency_ms,
                    late_ms,
                    service_ms: (done - sent) * 1e3,
                    result,
                };
                out.lock().expect("results lock").push(timed);
            });
        }
    });
    let mut out = out.into_inner().expect("results lock");
    out.sort_by_key(|t| t.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time() {
        let (latency, late) = due_timing(1.0, 1.25, 1.5);
        assert!((latency - 500.0).abs() < 1e-9 && (late - 250.0).abs() < 1e-9);
        // Sent on time: sleeping until due is not lateness.
        let (latency, late) = due_timing(2.0, 2.0, 2.01);
        assert!((latency - 10.0).abs() < 1e-9 && late == 0.0);
    }

    #[test]
    fn a_saturated_generator_reports_growing_lateness() {
        // One client, requests due every 10 ms, each taking 30 ms: the
        // generator falls 20 ms further behind per request, and every
        // request's latency includes that wait.
        let due: Vec<f64> = (0..5).map(|i| i as f64 * 0.010).collect();
        let timed = run(&due, 1, |_| std::thread::sleep(Duration::from_millis(30)));
        assert_eq!(timed.len(), 5);
        for t in &timed {
            assert!(t.service_ms >= 29.0, "{t:?}");
            assert!(t.latency_ms + 1e-6 >= t.late_ms + t.service_ms, "{t:?}");
        }
        assert!(timed[4].late_ms >= 70.0, "{:?}", timed[4]);
        assert!(timed[4].late_ms > timed[1].late_ms);
    }

    #[test]
    fn an_idle_generator_sends_on_time() {
        let due = [0.0, 0.020, 0.040];
        let timed = run(&due, 2, |i| i * 2);
        assert_eq!(timed.iter().map(|t| t.result).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert!(timed.iter().all(|t| t.late_ms < 50.0), "{timed:?}");
    }
}
