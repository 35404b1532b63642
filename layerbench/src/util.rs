//! Small shared pieces: sample statistics, process memory probes, seed
//! derivation, the panic guard every timed operation runs under, and the
//! metric/JSON plumbing the result line is printed with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed (`mix(seed, tag)`), so one `--seed` fixes every input.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated sample quantile (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the `q`-quantile — the tail percentiles are only
/// reported where at least ten samples lie beyond them.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(id, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process. Unlike wall
/// time it leaves out the time a shared host keeps the CPUs from the
/// process (steal and preemption), which is what makes it steady there.
pub fn process_cpu_secs() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far (or since the last
/// [`reset_peak_rss`]), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resets the resident high-water mark to the current RSS, so the next
/// [`peak_rss_mib`] reads the peak of the code run in between. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `op`, turning a panic into `None` (the operation counts as
/// failed; the benchmark carries on with the next one).
pub fn guarded<T>(op: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).ok()
}

/// Attempted/failed operation tally behind `ok_frac` and the result line.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    /// Adds `value` to an existing metric (or creates it) — for layers
    /// summed over several instances.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let prev = self.get(name).unwrap_or(0.0);
        self.put(name, prev + value, unit);
    }

    /// Keeps the larger of the stored and the new value (peaks).
    pub fn max(&mut self, name: &str, value: f64, unit: &'static str) {
        let prev = self.get(name).unwrap_or(0.0);
        self.put(name, prev.max(value), unit);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// Free-form detail values (sample counts, spec strings, flags) printed
/// beside the metrics.
#[derive(Debug, Default)]
pub struct Detail(pub BTreeMap<String, String>);

impl Detail {
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.insert(key.to_owned(), json_num(v));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        self.0.insert(key.to_owned(), json_str(v));
    }

    pub fn flag(&mut self, key: &str, v: bool) {
        self.0.insert(key.to_owned(), v.to_string());
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_owned()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(beyond(&s, 0.5), 2);
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(0.25), "0.25");
        let mut m = Metrics::default();
        m.put("x_s", 1.5, "s");
        m.add("x_s", 1.0, "s");
        assert_eq!(m.to_json(), "{\"x_s\": {\"value\": 2.5, \"unit\": \"s\"}}");
    }
}
