//! The host block printed with every result.
//!
//! These facts are recorded so two results can be compared knowingly;
//! none of them is a metric or scales one. A spin calibration of the
//! same host read 0.99 and then 1.25 on consecutive runs, so dividing
//! a throughput by it would add noise, not remove it.

use std::hint::black_box;
use std::time::Instant;

/// Facts about the machine and build that produced a result.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Two spinning threads' work per unit time over one thread's
    /// (median of three calibrations): about 2.0 on two idle cores.
    pub spin_capacity: f64,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Repository commit, or `unknown` outside a git checkout.
    pub commit: &'static str,
    /// Workload seed of this run.
    pub seed: u64,
}

impl Host {
    /// Measures the host (about a third of a second of spinning).
    pub fn measure(seed: u64) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut samples: Vec<f64> = (0..3).map(|_| spin_capacity()).collect();
        samples.sort_by(f64::total_cmp);
        Host {
            nproc,
            spin_capacity: samples[1],
            rustc: env!("LAYERBENCH_RUSTC"),
            commit: env!("LAYERBENCH_COMMIT"),
            seed,
        }
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"spin_capacity\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}}}",
            self.nproc,
            self.spin_capacity,
            crate::report::json_string(self.rustc),
            crate::report::json_string(self.commit),
            self.seed
        )
    }
}

/// A fixed integer loop the optimiser cannot remove.
fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..iterations {
        x = (x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x)
}

/// One calibration: the time one thread needs for a unit of spinning,
/// times two, over the time two threads need for a unit each.
fn spin_capacity() -> f64 {
    const UNIT: u64 = 20_000_000;
    let started = Instant::now();
    spin(UNIT);
    let one = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let other = scope.spawn(|| spin(UNIT));
        spin(UNIT);
        other.join().expect("spin thread does not panic");
    });
    let two = started.elapsed().as_secs_f64();
    2.0 * one / two
}

/// Peak resident set size (`VmHWM`) of this process in MiB since it
/// started or since the last [`reset_peak_rss`], if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hands the heap memory freed so far back to the system, then lowers
/// the peak resident set size to the current one (Linux:
/// `/proc/self/clear_refs`), so that [`peak_rss_mb`] covers only what
/// runs afterwards. Returns whether the platform allowed the reset.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns freed heap pages to the system (glibc keeps them resident
/// otherwise, and they would count towards the peak).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free memory of the allocator
    // the process already uses; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}
