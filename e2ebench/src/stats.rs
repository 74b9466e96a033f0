//! Order statistics and process counters (Linux `/proc`).

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`);
/// `0.0` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The geometric mean of `values`, all positive (`0.0` when empty): the
/// typical value of a figure whose units differ in cost by orders of
/// magnitude, and which averages the host's noise over every unit.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Reads a CPU-time clock, to the nanosecond.
fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the C library
    // std already links provides `clock_gettime`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds this process has used, every thread included (also
/// threads that have exited), from `CLOCK_PROCESS_CPUTIME_ID`.
/// (`/proc/self/stat` counts 10 ms ticks, and a running thread's
/// `schedstat` lags by up to a scheduler tick.)
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used, from
/// `CLOCK_THREAD_CPUTIME_ID`.
pub fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Hands freed heap back to the kernel (glibc `malloc_trim`), so that a
/// following [`rss_mib`] reading counts live memory rather than freed
/// heap the allocator kept.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // memory; the C library std already links provides it.
    unsafe {
        malloc_trim(0);
    }
}

/// A `/proc/self/status` size field (`VmRSS`, `VmHWM`, …) in MiB.
fn status_mib(field: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Resident set size of this process now, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// High-water resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}
