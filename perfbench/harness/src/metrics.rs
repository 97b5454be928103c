//! Named metric values and the peak-memory reader. Units and directions
//! are not kept here: `BENCHMARK.json` lists them, and `run.py` attaches
//! them to the values the harness reports.

use serde::Value;

/// Named values collected during a run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The recorded names, in insertion order.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|(n, _)| *n).collect()
    }

    /// `{"name": value, ...}`, in insertion order.
    pub fn to_json(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, v)| (name.to_string(), Value::F64(*v)))
                .collect(),
        )
    }
}

/// `VmHWM` of this process from `/proc/self/status`, in MB (2^20
/// bytes): the peak resident set, which only ever rises.
///
/// # Panics
///
/// Panics if the status file or its `VmHWM` line is missing.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// `VmRSS` of this process from `/proc/self/status`, in MB (2^20 bytes):
/// the resident set now.
///
/// # Panics
///
/// Panics if the status file or its `VmRSS` line is missing.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kb / 1024.0
}
