//! Wall time, process CPU time and page faults, read together.
//!
//! The gated times are CPU times. On a virtual machine the guest kernel
//! leaves steal time (the time the host ran someone else on this vCPU)
//! out of a process's CPU time, but not out of wall time, and on a
//! shared host steal comes and goes by the minute. Wall times are kept
//! in the run's record next to them. Set-up is gated on user CPU time
//! alone: its system time follows how often the allocator hands memory
//! back to the kernel and faults it in again, which changes from one
//! process to the next; the minor faults are counted instead.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` to `ru_nivcsw`; `ru_minflt` is the fifth.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and minor page faults of every thread of this process so far.
#[derive(Debug, Clone, Copy)]
struct Usage {
    user_s: f64,
    sys_s: f64,
    minor_faults: i64,
}

fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` has the layout of the C library's `struct rusage` and
    // is valid for writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage { user_s: secs(&ru.ru_utime), sys_s: secs(&ru.ru_stime), minor_faults: ru.longs[4] }
}

/// Wall time, CPU time and minor page faults of one stretch of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall_s: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// User CPU seconds alone.
    pub user_s: f64,
    pub minor_faults: f64,
}

impl std::ops::Add for Lap {
    type Output = Lap;
    fn add(self, other: Lap) -> Lap {
        Lap {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
            user_s: self.user_s + other.user_s,
            minor_faults: self.minor_faults + other.minor_faults,
        }
    }
}

/// A point in time on every clock.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    usage: Usage,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp { wall: Instant::now(), usage: usage() }
    }

    /// The lap from `self` to `later`.
    pub fn to(self, later: Stamp) -> Lap {
        let (a, b) = (self.usage, later.usage);
        Lap {
            wall_s: (later.wall - self.wall).as_secs_f64(),
            cpu_s: (b.user_s + b.sys_s) - (a.user_s + a.sys_s),
            user_s: b.user_s - a.user_s,
            minor_faults: (b.minor_faults - a.minor_faults) as f64,
        }
    }

    /// The lap from `self` to now.
    pub fn lap(self) -> Lap {
        self.to(Stamp::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_follows_work_not_sleep() {
        let start = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(60));
        let slept = start.lap();
        assert!(slept.wall_s >= 0.06);
        assert!(slept.cpu_s < 0.03, "sleeping used {} s of CPU", slept.cpu_s);

        let start = Stamp::now();
        let mut x = 1u64;
        while start.lap().wall_s < 0.05 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        let busy = start.lap();
        assert!(x != 0);
        assert!(busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s * 2.0 + 0.01);
        assert!(busy.user_s > 0.0 && busy.user_s <= busy.cpu_s + 1e-6);

        let start = Stamp::now();
        let touched: Vec<u8> = vec![1; 8 << 20];
        assert_eq!(touched.iter().map(|&b| u64::from(b)).sum::<u64>(), 8 << 20);
        assert!(start.lap().minor_faults >= 1000.0, "8 MiB of fresh pages faulted in");
    }
}
