//! Host facts every result carries: a fixed reference kernel that tracks
//! the machine's speed, peak memory, core count and source revision.

use std::collections::HashMap;
use std::time::Instant;

/// A fixed hash-map kernel whose time moves only with the host's speed:
/// it inserts and looks up 100k integer keys in a table allocated once,
/// so neither its work nor the program's heap can change it.
pub struct RefKernel(HashMap<u64, u64>);

/// The kernel time the end-to-end figures are scaled to: a host on which
/// [`RefKernel::measure`] takes this long reports its figures unscaled.
pub const REF_NOMINAL_MS: f64 = 15.0;

impl RefKernel {
    const KEYS: u64 = 100_000;

    pub fn new() -> RefKernel {
        RefKernel(HashMap::with_capacity(Self::KEYS as usize))
    }

    /// One run of the kernel, in ms.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        self.0.clear();
        for k in 0..Self::KEYS {
            self.0.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
        }
        let hits = (0..Self::KEYS * 2)
            .filter(|k| self.0.contains_key(&k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .count();
        assert_eq!(std::hint::black_box(hits), Self::KEYS as usize);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, or `unknown` outside a git repository.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
