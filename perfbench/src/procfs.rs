//! Process and machine counters from `/proc`.
//!
//! CPU times in `/proc/<pid>/stat` and `/proc/stat` are in clock ticks
//! of `USER_HZ`, which Linux fixes at 100 for every user-visible
//! interface regardless of the kernel's internal tick rate.

use std::io;

/// `USER_HZ`: clock ticks per second in `/proc` CPU fields.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the *last* `)`.
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so field k is k - 3.
    let mut fields = rest.split_whitespace().skip(14 - 3);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Steal ticks (the eighth value of the aggregate `cpu` line) of a
/// `/proc/stat` text: time this VM's vCPUs were runnable but the
/// hypervisor ran someone else.
#[must_use]
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    stat.lines()
        .find(|line| line.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// The first `model name` of a `/proc/cpuinfo` text.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))?
        .split_once(':')
        .map(|(_, model)| model.trim().to_string())
}

fn read(path: &str) -> io::Result<String> {
    std::fs::read_to_string(path)
}

fn malformed(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {path}"))
}

/// User + system CPU of process `pid` (all its threads), in ms.
///
/// # Errors
///
/// When the process is gone or the file is unparsable.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/stat");
    let ticks = parse_stat_cpu_ticks(&read(&path)?).ok_or_else(|| malformed(&path))?;
    Ok(ticks as f64 * 1000.0 / TICKS_PER_SEC)
}

/// CPU time of the calling thread so far, in ms, from
/// `CLOCK_THREAD_CPUTIME_ID`: nanosecond resolution, where the `/proc`
/// fields of a running thread only advance at the scheduler tick.
///
/// # Panics
///
/// When the clock is unavailable, which Linux never reports.
#[must_use]
pub fn thread_cpu_ms() -> f64 {
    use std::os::raw::{c_int, c_long};

    /// `struct timespec` on 64-bit Linux, where `time_t` is a `long`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` for the call's whole
    // duration, and the clock id is a constant Linux defines.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set of process `pid`, in MiB.
///
/// # Errors
///
/// When the process is gone or the file is unparsable.
pub fn hwm_mb(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/status");
    let kb = parse_vm_hwm_kb(&read(&path)?).ok_or_else(|| malformed(&path))?;
    Ok(kb as f64 / 1024.0)
}

/// Machine-wide steal time so far, in ms (0 where unavailable).
#[must_use]
pub fn steal_ms() -> f64 {
    read("/proc/stat")
        .ok()
        .and_then(|text| parse_steal_ticks(&text))
        .map_or(0.0, |ticks| ticks as f64 * 1000.0 / TICKS_PER_SEC)
}

/// The CPU model string, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .ok()
        .and_then(|text| parse_cpu_model(&text))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_paren() {
        // A command name with a space and a `)` inside must not shift
        // the fields: utime = 250, stime = 75.
        let stat =
            "4242 (fq (x) serve) S 1 4242 4242 0 -1 4194560 1 0 0 0 250 75 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(325));
        assert_eq!(parse_stat_cpu_ticks("4242 (serve"), None);
        assert_eq!(parse_stat_cpu_ticks("4242 (serve) S 1"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status =
            "Name:\tserve\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("Name:\tkthreadd\n"), None);
    }

    #[test]
    fn machine_steal_and_cpu_model() {
        let stat = "cpu  100 2 30 4000 5 0 6 77 0 0\ncpu0 50 1 15 2000 2 0 3 40 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: AMD EPYC 7B13\nflags\t: fpu\n";
        assert_eq!(parse_cpu_model(cpuinfo).as_deref(), Some("AMD EPYC 7B13"));
    }

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).unwrap() >= 0.0);
        assert!(hwm_mb(pid).unwrap() > 0.0);
    }

    #[test]
    fn thread_cpu_advances_with_work_not_with_sleep() {
        let start = thread_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = thread_cpu_ms() - start;
        let busy_start = std::time::Instant::now();
        while busy_start.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::black_box(busy_start.elapsed());
        }
        let busy = thread_cpu_ms() - start - slept;
        assert!(slept < 5.0, "sleeping charged {slept} ms");
        assert!(busy > 1.0, "5 ms of spinning charged only {busy} ms");
    }
}
