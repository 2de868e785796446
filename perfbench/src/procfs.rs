//! Readers for the process counters the benchmark reports, straight from
//! `/proc` (no dependency beyond std). Parsing is split from reading so
//! the parsers can be tested on fixture lines.

use std::collections::HashMap;
use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. Linux fixes USER_HZ at 100 on every architecture
/// this benchmark targets, and std offers no `sysconf` to ask.
pub const CLOCK_TICKS_PER_SEC: u64 = 100;

/// `utime + stime` from the text of `/proc/<pid>/stat`, in clock ticks.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); utime is field
    // 14 and stime field 15.
    let mut fields = rest.split_whitespace().skip(14 - 3);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   1234 kB` line of a `/proc/<pid>/status` text,
/// with its unit suffix dropped.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name != key {
            return None;
        }
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches from a status text.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// CPU time (user + system) the whole process has used, in clock ticks.
/// Covers threads that have already exited.
pub fn process_cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat")
}

/// The `steal` column of the aggregate `cpu` line of a `/proc/stat`
/// text: ticks in which a virtual CPU of this machine was ready to run
/// but the hypervisor ran something else.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal ticks of the whole machine so far (0 where the kernel does
/// not report them).
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_steal_ticks(&stat).unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of this process, in kB.
pub fn peak_rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_field(&status, "VmHWM").expect("VmHWM in /proc/self/status")
}

/// Context switches of the calling thread so far.
pub fn thread_ctx_switches() -> u64 {
    let status =
        fs::read_to_string("/proc/thread-self/status").expect("read /proc/thread-self/status");
    parse_ctx_switches(&status).expect("ctxt_switches in /proc/thread-self/status")
}

/// Context switches of every live thread of this process, by thread id.
/// `/proc/<pid>/status` counts only the main thread, so the total has to
/// be summed over `/proc/self/task/*`. A thread that exits between two
/// snapshots drops out of both; callers account for their own
/// short-lived threads with [`thread_ctx_switches`].
pub fn task_ctx_switches() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        if let Ok(status) = fs::read_to_string(entry.path().join("status")) {
            if let Some(n) = parse_ctx_switches(&status) {
                out.insert(tid, n);
            }
        }
    }
    out
}

/// Switches made between two [`task_ctx_switches`] snapshots by the
/// threads present in both.
pub fn ctx_switch_delta(before: &HashMap<u64, u64>, after: &HashMap<u64, u64>) -> u64 {
    after
        .iter()
        .filter_map(|(tid, &n)| before.get(tid).map(|&b| n.saturating_sub(b)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench (x)) S 1 4242 4242 0 -1 4194560 1820 0 0 0 \
                        731 95 0 0 20 0 9 0 123456 987654321 4321 18446744073709551615";

    const STATUS: &str = "Name:\tperfbench\nState:\tS (sleeping)\nVmPeak:\t  912340 kB\n\
                          VmHWM:\t   48212 kB\nVmRSS:\t   40100 kB\nThreads:\t9\n\
                          voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t27\n";

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 95));
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn steal_is_the_eighth_counter_of_the_cpu_line() {
        let stat = "cpu  336797 0 52842 648196 227 0 13581 17914 0 0\n\
                    cpu0 168000 0 26000 324000 100 0 6700 9000 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(17_914));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn status_fields_parse_with_units() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(48_212));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(9));
        // `VmHWM` must not match a longer key that merely starts with it.
        assert_eq!(parse_status_field("VmHWMx:\t5 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_field(STATUS, "Missing"), None);
    }

    #[test]
    fn context_switches_sum_both_kinds() {
        assert_eq!(parse_ctx_switches(STATUS), Some(1527));
        assert_eq!(parse_ctx_switches("voluntary_ctxt_switches:\t3\n"), None);
    }

    #[test]
    fn switch_delta_counts_only_threads_seen_twice() {
        let before = HashMap::from([(1, 10), (2, 5)]);
        let after = HashMap::from([(1, 14), (3, 100)]);
        assert_eq!(ctx_switch_delta(&before, &after), 4);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_kb() > 0);
        assert!(thread_ctx_switches() < u64::MAX);
        assert!(!task_ctx_switches().is_empty());
        let _ = process_cpu_ticks();
        let _ = steal_ticks();
    }
}
