//! The benchmark's own arithmetic: percentiles and the tail rule, span
//! coverage (self time), and the `/proc` parsers for CPU time, host
//! steal and peak memory. Everything here is pure and unit-tested.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile a run of `samples` ops reports: p99 from 1000
/// samples on, otherwise p90 while at least [`TAIL_BEYOND`] samples lie
/// beyond it, otherwise none. Returns the label and the quantile.
pub fn tail_rule(samples: usize) -> Option<(&'static str, f64)> {
    if samples >= 1000 {
        Some(("p99", 0.99))
    } else if beyond(samples, 0.90) >= TAIL_BEYOND {
        Some(("p90", 0.90))
    } else {
        None
    }
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
fn beyond(samples: usize, q: f64) -> usize {
    samples - (q * samples as f64).ceil() as usize
}

/// Length of the part of `[start, end)` covered by the union of
/// `children` (each clipped to the interval). Children may nest in or
/// overlap one another; overlapping time is counted once.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of a span: its duration minus the time its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

/// Process user + system CPU time in clock ticks, from the text of
/// `/proc/self/stat` (fields 14 and 15). The command name in field 2
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: field 3 (state) is index 0, so utime
    // (field 14) is index 11 and stime (field 15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Ticks the hypervisor gave to other guests while this machine's CPUs
/// were ready to run (steal), and all ticks, from the aggregate `cpu`
/// line of the text of `/proc/stat`. Guest time is already inside user
/// time, so the total stops at steal.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Peak resident set size in KiB, from the `VmHWM:` line of the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.9), 90.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_picks_p99_from_1000_samples() {
        assert_eq!(tail_rule(1000), Some(("p99", 0.99)));
        assert_eq!(tail_rule(50_000), Some(("p99", 0.99)));
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn tail_rule_falls_back_to_p90_with_ten_beyond() {
        assert_eq!(tail_rule(999), Some(("p90", 0.90)));
        assert_eq!(tail_rule(100), Some(("p90", 0.90)));
        assert_eq!(beyond(100, 0.90), 10);
        // 99 samples: p90 is the 90th, 9 beyond — too few.
        assert_eq!(tail_rule(99), None);
        assert_eq!(tail_rule(0), None);
    }

    #[test]
    fn coverage_of_disjoint_children() {
        assert_eq!(covered(0, 100, &[(10, 20), (30, 50)]), 30);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn coverage_counts_nested_children_once() {
        // (20, 30) lies inside (10, 40).
        assert_eq!(covered(0, 100, &[(10, 40), (20, 30)]), 30);
        assert_eq!(self_time(0, 100, &[(20, 30), (10, 40)]), 70);
    }

    #[test]
    fn coverage_merges_overlapping_children() {
        assert_eq!(covered(0, 100, &[(10, 40), (30, 60), (55, 70)]), 60);
        assert_eq!(self_time(0, 100, &[(55, 70), (10, 40), (30, 60)]), 40);
    }

    #[test]
    fn coverage_clips_children_to_the_parent() {
        assert_eq!(covered(10, 50, &[(0, 20), (40, 90), (60, 70)]), 20);
        assert_eq!(self_time(10, 50, &[(0, 60)]), 0);
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn stat_cpu_ticks_skips_a_hostile_command_name() {
        let stat = "4242 (perf) (bench x) S 1 4242 4242 0 -1 4194304 \
                    100 0 0 0 1234 567 0 0 20 0 3 0 99 1000 200 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_and_total_ticks_come_from_the_aggregate_line() {
        let stat = "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n";
        assert_eq!(parse_proc_stat_steal(stat), Some((30, 1000)));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat_steal("cpu  1 2 3\n"), None);
        let live = std::fs::read_to_string("/proc/stat").expect("procfs");
        let (steal, total) = parse_proc_stat_steal(&live).expect("aggregate cpu line");
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 9000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn proc_parsers_read_this_process() {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(parse_stat_cpu_ticks(&stat).is_some());
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vm_hwm_kib(&status).expect("VmHWM present") > 0);
    }
}
