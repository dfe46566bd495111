//! Pieces every workload shares: run options and results, the seeded
//! shuffle, op-latency summaries, peak RSS, and output fingerprints.

use crate::meta::Metrics;
use crate::stats::{median, percentile_sorted, quartiles};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vegen_ir::rng::XorShift;
use vegen_trace::json::Json;

/// The corpus `corpus_cold` and `serve_mixed` draw kernels from unless
/// `--corpus-seed` says otherwise; 1337 is the holdout corpus, never used
/// while tuning.
pub const DEFAULT_CORPUS_SEED: u64 = 42;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    /// Drives everything scheduled: pass order, request schedule.
    pub seed: u64,
    /// Drives the *content* of generated kernels. Kept apart from `seed`
    /// so ten runs with ten seeds measure the same kernels (run-to-run
    /// spread then means noise, not a different corpus).
    pub corpus_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `perf check`: one pass over at most 40 ops.
    pub smoke: bool,
    /// Where `result-*.json` / `trace-*.json` and scratch directories go.
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that are not per-op (cross-pass determinism, audit
    /// verdicts). Any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Quartiles, counts and derived rates for the result file.
    pub detail: Json,
    /// Chrome trace events (traced runs).
    pub trace_events: Vec<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Measures passes until the run's time is spent (always at least one;
/// exactly one at smoke size).
pub struct PassClock {
    deadline: Instant,
    smoke: bool,
    done: u32,
}

impl PassClock {
    pub fn start(opts: &RunOpts) -> PassClock {
        PassClock {
            deadline: Instant::now() + Duration::from_secs_f64(opts.seconds),
            smoke: opts.smoke,
            done: 0,
        }
    }

    /// The index of the next pass to run, or `None` when time is up.
    pub fn next_pass(&mut self) -> Option<u32> {
        let go = self.done == 0 || (!self.smoke && Instant::now() < self.deadline);
        go.then(|| {
            self.done += 1;
            self.done - 1
        })
    }
}

/// A permutation of `0..n` that depends only on `(seed, salt)`.
pub fn shuffled(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut rng = XorShift::new(mix(seed, salt));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// SplitMix64 finalizer over a seed and a stream id.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1_e995;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: fingerprints of printed programs, kept instead of
/// the text so the checks do not inflate the peak RSS they sit beside.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` (like `0-1` or `0,2-3`).
fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU it is allowed on (CPU 0 takes the interrupts).
/// Returns the CPU, or `None` where pinning is unavailable or refused.
pub fn pin_to_last_allowed_cpu() -> Option<usize> {
    let cpu = last_allowed_cpu()?;
    set_affinity(cpu).then_some(cpu)
}

/// `sched_setaffinity(0, ..)` for the calling thread. The standard library
/// has no affinity call and the repo builds without `libc`, so this is the
/// raw system call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
    // which lives across the call, and writes nothing through the
    // pointer; `syscall` clobbers only rcx and r11 besides the result in
    // rax, all declared. Pid 0 names the calling thread.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// The timing samples of one untraced run.
///
/// Each pass yields four numbers — its wall time and the 50th, 95th and
/// 99th percentile of its op latencies — and the run reports the *lower
/// quartile* of each over its passes. This sandbox's cores are shared: a
/// neighbour's load slows whole stretches of passes by 10-30%, so the
/// lower quartile follows the machine's undisturbed speed more closely
/// than the median does (ten-seed spreads, loud periods: median over
/// passes 13-27%, lower quartile 11-26%; see the README). The median and
/// upper quartile are kept in the result file.
#[derive(Default)]
pub struct Timings {
    pub setup_s: Vec<f64>,
    /// Op latencies of the pass in progress.
    pub op_ms: Vec<f64>,
    pass_s: Vec<f64>,
    /// Per pass: p50, p95, p99 of its op latencies.
    pass_percentiles: [Vec<f64>; 3],
    op_samples: usize,
    first_pass_rss_mib: f64,
}

/// The percentiles of op latency every workload reports.
const PERCENTILES: [(usize, &str); 3] = [(50, "op_p50_ms"), (95, "op_p95_ms"), (99, "op_p99_ms")];

/// Nearest-rank lower quartile.
fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 25)
}

impl Timings {
    /// Close the pass in progress: its wall time, and the percentiles of
    /// the op latencies pushed to `op_ms` since the last pass. The peak
    /// RSS is read when the *first* pass ends: that is what the workload
    /// needs; later passes only add allocator fragmentation, and how many
    /// fit a run depends on how fast the machine is.
    pub fn end_pass(&mut self, wall_s: f64) {
        if self.pass_s.is_empty() {
            self.first_pass_rss_mib = peak_rss_mib();
        }
        self.pass_s.push(wall_s);
        self.op_ms.sort_by(f64::total_cmp);
        for ((p, _), per_pass) in PERCENTILES.iter().zip(&mut self.pass_percentiles) {
            per_pass.push(percentile_sorted(&self.op_ms, *p));
        }
        self.op_samples += self.op_ms.len();
        self.op_ms.clear();
    }

    pub fn pass_s(&self) -> &[f64] {
        &self.pass_s
    }

    /// Fill the timing metrics every workload reports the same way and
    /// describe the samples behind them.
    pub fn report(&self, metrics: &mut Metrics) -> Json {
        metrics.set("setup_s", median(&self.setup_s));
        metrics.set("pass_s", lower_quartile(&self.pass_s));
        for ((_, name), per_pass) in PERCENTILES.iter().zip(&self.pass_percentiles) {
            metrics.set(name, lower_quartile(per_pass));
        }
        metrics.set("peak_rss_mb", self.first_pass_rss_mib);
        let (_, q3) = quartiles(&self.pass_s);
        let ops_per_pass = self.op_samples as f64 / self.pass_s.len().max(1) as f64;
        let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj([
            ("passes", Json::int(self.pass_s.len() as u64)),
            ("pass_s_median", Json::Num(median(&self.pass_s))),
            ("pass_s_q3", Json::Num(q3)),
            ("pass_s_all", list(&self.pass_s)),
            ("op_samples", Json::int(self.op_samples as u64)),
            ("ops_per_pass", Json::Num(ops_per_pass)),
            (
                "ops_per_s",
                Json::Num(ops_per_pass / lower_quartile(&self.pass_s).max(f64::MIN_POSITIVE)),
            ),
            ("setup_s_all", list(&self.setup_s)),
            ("peak_rss_at_exit_mib", Json::Num(peak_rss_mib())),
        ])
    }
}

/// Where the scratch directory `name` of this run lives (removed when the
/// run ends).
pub fn scratch_path(opts: &RunOpts, name: &str) -> PathBuf {
    opts.out_dir.join(format!("scratch-{}-{name}", opts.workload))
}

/// A fresh, empty scratch directory under the run's output directory.
pub fn fresh_dir(opts: &RunOpts, name: &str) -> Result<PathBuf, String> {
    let dir = scratch_path(opts, name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(42, 0, 100);
        assert_eq!(a, shuffled(42, 0, 100), "same seed, same order");
        assert_ne!(a, shuffled(43, 0, 100), "different seeds differ");
        assert_ne!(a, shuffled(42, 1, 100), "different passes differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fnv_distinguishes_texts() {
        assert_ne!(fnv64(b"vadd r1, r2"), fnv64(b"vadd r1, r3"));
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
