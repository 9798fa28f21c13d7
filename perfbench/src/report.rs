//! Sample statistics, the machine context, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); `NaN` when
/// there are no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one run measured: the request tally, the metrics in print order,
/// and free-form context lines.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one failed check; the run then reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Prints the context and every metric as readable lines, then the
    /// single-line JSON result, last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name:<44} {value:>16.6} {unit}");
        }
        println!(
            "# error_rate {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN; a non-finite value already made the run
            // incorrect, so it is written as null.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The latency tails, `serve_p99_ms` over all requests and
/// `interactive_p90_ms` over the interactive class. Every run prints them;
/// only a traced run records them as metrics. They carry no regression
/// bound because CPU steal by other guests of the host moves them by
/// more than the largest bound (see README).
pub fn tails(rep: &mut Report, traced: bool, all_ms: &[f64], interactive_ms: &[f64]) {
    let p99 = quantile(all_ms, 0.99);
    let p90 = quantile(interactive_ms, 0.9);
    if traced {
        rep.metric("bench.serve.p99_ms", p99, "ms");
        rep.metric("bench.serve.interactive_p90_ms", p90, "ms");
    } else {
        rep.note(format!(
            "serve_p99_ms={p99:.4} ms over {} samples; interactive_p90_ms={p90:.4} ms over {} samples",
            all_ms.len(),
            interactive_ms.len()
        ));
    }
}

/// Peak resident set size of this process, in MiB: the kernel's
/// `VmHWM` for it (`NaN` where `/proc/self/status` does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Size in KiB of each data or unified cache level the CPU reports
/// through `cpuid` leaf 4 (Intel) or `0x8000_001D` (AMD), as
/// `(level, KiB)` pairs.
#[cfg(target_arch = "x86_64")]
pub fn cache_sizes_kib() -> Vec<(u32, u64)> {
    use std::arch::x86_64::__cpuid_count;
    let vendor = __cpuid_count(0, 0);
    let leaf = if vendor.ebx == 0x6874_7541 {
        // "Auth"enticAMD
        0x8000_001D
    } else {
        4
    };
    let mut out = Vec::new();
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1F;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3FF) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3FF) + 1;
        let line = u64::from(r.ebx & 0xFFF) + 1;
        let sets = u64::from(r.ecx) + 1;
        out.push((level, ways * partitions * line * sets / 1024));
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cache_sizes_kib() -> Vec<(u32, u64)> {
    Vec::new()
}

/// System-wide busy and stolen CPU time (jiffies) from `/proc/stat`;
/// busy counts the steal too.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu  user nice system idle iowait irq softirq steal ...
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let idle = fields.get(3)? + fields.get(4)?;
    let steal = *fields.get(7)?;
    Some((fields.iter().sum::<u64>() - idle, steal))
}

/// How much of the machine's busy CPU time since `start` the hypervisor
/// gave to other guests: a noisy neighbour slows every timing here.
pub fn steal_note(start: Option<(u64, u64)>) -> String {
    match (start, cpu_times()) {
        (Some((busy0, steal0)), Some((busy1, steal1))) if busy1 > busy0 => format!(
            "host steal={:.1}% of busy CPU time during the run",
            100.0 * (steal1 - steal0) as f64 / (busy1 - busy0) as f64
        ),
        _ => "host steal=unknown".to_string(),
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (empty where that is unavailable).
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Restricts the calling thread, and the threads it spawns from now on, to
/// `cpus`. Returns whether the kernel accepted the set.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live 1024-bit CPU set and its byte size is what
    // is passed; pid 0 names the calling thread. The kernel only reads it.
    // lint: allow(unsafe-code) — the standard library has no thread-affinity call
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The machine context every run prints: core count, cache sizes and
/// the peak RSS against them.
pub fn context_note(peak_rss_mb: f64) -> String {
    let caches: Vec<String> = cache_sizes_kib()
        .iter()
        .map(|(level, kib)| format!("L{level}={kib}KiB"))
        .collect();
    let largest = cache_sizes_kib().iter().map(|c| c.1).max().unwrap_or(0) as f64 / 1024.0;
    format!(
        "context nproc={} caches=[{}] peak_rss_mb={peak_rss_mb:.1} rss_over_largest_cache={:.2}",
        nproc(),
        caches.join(" "),
        if largest > 0.0 {
            peak_rss_mb / largest
        } else {
            f64::NAN
        }
    )
}
