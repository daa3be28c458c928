//! Host-speed normalisation, process clocks and the host fingerprint.
//!
//! Single-core speed on a shared VM drifts by tens of percent within
//! seconds, and neither CPU time nor hardware counters correct for it. The
//! benchmark therefore times a fixed reference kernel (the normal density,
//! a rational approximation of its tail and a logarithm over an
//! L1-resident buffer: the arithmetic EM and the statistical max spend
//! their time in) right before every op and reports each op as
//!
//! ```text
//! scaled = wait + cpu · K_REF / K_now
//! ```
//!
//! where `cpu` is the process CPU time spent in the op, `wait = wall − cpu`
//! is the time nobody in the process was running (socket stalls), `K_now`
//! the kernel time just measured and [`K_REF_MS`] the kernel time recorded
//! in the README. The result reads as milliseconds at the recorded host
//! speed; the waiting part is not rescaled.

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time (ms per pass) on the host the README's figures
/// were recorded on. Scaled times read as times on that host.
pub const K_REF_MS: f64 = 0.2;

/// Elements in the kernel buffer: 2 Ki `f64` = 16 KiB, resident in L1.
const KERNEL_LEN: usize = 2 * 1024;

/// Sweeps over the buffer per kernel pass (about 0.2 ms in all).
const KERNEL_SWEEPS: usize = 4;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process (every thread), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant every Linux libc supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host-speed-normalised time: `wait + cpu · k_ref / k_now`, where
/// `wait = max(wall − cpu, 0)`. All arguments in consistent units.
pub fn scaled_time(wall: f64, cpu: f64, k_ref: f64, k_now: f64) -> f64 {
    (wall - cpu).max(0.0) + cpu * k_ref / k_now
}

/// Wall and process-CPU time of one measured span, plus the kernel time
/// measured just before it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// Reference-kernel ms per pass measured right before the span.
    pub k_now: f64,
}

impl Span {
    /// The span in host-normalised seconds.
    pub fn scaled(&self) -> f64 {
        scaled_time(self.wall, self.cpu, K_REF_MS, self.k_now)
    }

    /// `K_REF / K_now`: the factor CPU-bound wall time is multiplied by.
    pub fn factor(&self) -> f64 {
        K_REF_MS / self.k_now
    }
}

/// Total scaled seconds of spans.
pub fn scaled_total(spans: &[Span]) -> f64 {
    spans.iter().map(Span::scaled).sum()
}

/// The reference kernel plus the op timer built on it.
pub struct Meter {
    buf: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// Allocates and touches the kernel buffer.
    pub fn new() -> Self {
        let buf = (0..KERNEL_LEN)
            .map(|i| 1.0 + (i % 997) as f64 / 997.0)
            .collect();
        Meter { buf }
    }

    fn kernel_pass(&self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..KERNEL_SWEEPS {
            for &x in &self.buf {
                let z = (black_box(x) - 1.3) * 1.7;
                let pdf = (-0.5 * z * z).exp();
                // Abramowitz–Stegun 7.1.26 tail polynomial.
                let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
                let poly = t
                    * (0.254_829_592
                        + t * (-0.284_496_736
                            + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
                let cdf = 1.0 - 0.5 * poly * pdf;
                acc += (pdf * cdf + 1e-300).ln();
            }
        }
        black_box(acc)
    }

    /// Current kernel time in ms per pass: the fastest of three CPU-timed
    /// passes (the minimum drops a pass hit by a timer interrupt but still
    /// follows the host's current speed).
    pub fn kernel_ms(&self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let c0 = process_cpu_s();
            self.kernel_pass();
            best = best.min((process_cpu_s() - c0) * 1e3);
        }
        best
    }

    /// The median of nine kernel measurements: the host speed now.
    pub fn calibrate(&self) -> f64 {
        let mut ks: Vec<f64> = (0..9).map(|_| self.kernel_ms()).collect();
        ks.sort_by(f64::total_cmp);
        ks[4]
    }

    /// Runs `f` after measuring the kernel; returns its value and span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Span) {
        self.time_f(|_| f())
    }

    /// As [`Meter::time`], passing `f` the span's host-speed factor
    /// (`K_REF / K_now`) so it can scale the layers it times inside.
    pub fn time_f<R>(&self, f: impl FnOnce(f64) -> R) -> (R, Span) {
        let k_now = self.kernel_ms();
        let (w0, c0) = (Instant::now(), process_cpu_s());
        let r = f(K_REF_MS / k_now);
        let cpu = process_cpu_s() - c0;
        let wall = w0.elapsed().as_secs_f64();
        (r, Span { wall, cpu, k_now })
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpuinfo_field(text: &str, key: &str) -> String {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// The host fingerprint printed with every run, so a later regression can
/// be told apart from a host change.
pub fn fingerprint(meter: &Meter) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    vec![
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", cpuinfo_field(&cpuinfo, "model name")),
        ("cpu_mhz", cpuinfo_field(&cpuinfo, "cpu MHz")),
        ("kernel_release", kernel),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("ref_kernel_ms", format!("{}", meter.calibrate())),
        ("ref_kernel_ref_ms", format!("{K_REF_MS}")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rescales_cpu_but_not_wait() {
        // 10 ms wall of which 6 ms CPU on a host running the kernel at half
        // the recorded speed: the CPU part halves, the 4 ms wait stays.
        let t = scaled_time(10.0, 6.0, 1.0, 2.0);
        assert!((t - (4.0 + 3.0)).abs() < 1e-12);
        // At the recorded speed the scaled time is the wall time.
        assert_eq!(scaled_time(10.0, 6.0, 1.5, 1.5), 10.0);
        // CPU above wall (another thread ran too) leaves no negative wait.
        assert!((scaled_time(5.0, 8.0, 1.0, 1.0) - 8.0).abs() < 1e-12);
        let s = Span {
            wall: 0.010,
            cpu: 0.010,
            k_now: 2.0 * K_REF_MS,
        };
        assert!((s.scaled() - 0.005).abs() < 1e-15);
        assert!((s.factor() - 0.5).abs() < 1e-15);
        assert!((scaled_total(&[s, s]) - 0.010).abs() < 1e-15);
    }

    #[test]
    fn kernel_time_is_positive_and_cpu_clock_advances() {
        let m = Meter::new();
        assert!(m.kernel_ms() > 0.0);
        let c0 = process_cpu_s();
        let (_, span) = m.time(|| m.kernel_pass());
        assert!(process_cpu_s() > c0);
        assert!(span.cpu > 0.0 && span.wall > 0.0);
    }
}
