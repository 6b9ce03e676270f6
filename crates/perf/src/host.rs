//! Host-side measurements: wall clock, throughput, peak RSS.

/// Peak resident set size of the current process in bytes.
///
/// Read from `/proc/self/status` (`VmHWM`); returns `None` on platforms
/// without procfs so recording degrades gracefully rather than failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Millions of simulated instructions retired per host second.
///
/// The standard simulator-throughput figure: how much simulated work the
/// host gets through, independent of what the simulated cycles say.
/// Callers pass every architecturally retired instruction, those the
/// array executed included (`System::total_instructions`).
pub fn sim_mips(instructions: u64, wall_nanos: u64) -> f64 {
    if wall_nanos == 0 {
        return 0.0;
    }
    let seconds = wall_nanos as f64 / 1e9;
    instructions as f64 / seconds / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_mips_math() {
        // 2M instructions in half a second = 4 MIPS.
        assert!((sim_mips(2_000_000, 500_000_000) - 4.0).abs() < 1e-9);
        assert_eq!(sim_mips(100, 0), 0.0);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // A running test binary occupies at least a page and (sanity
            // bound) less than a terabyte.
            assert!(bytes >= 4096);
            assert!(bytes < 1 << 40);
        }
    }
}
