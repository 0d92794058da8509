//! Wall-clock timing sidecars: the `pif-lab-profile/v1` document.
//!
//! Sweep reports are a byte-identity contract — the same `(spec, scale)`
//! must serialize to the same bytes across threads, schedules, and
//! cache states — so wall-clock data can **never** live inside a
//! [`crate::SweepReport`]. Profiling therefore rides in a separate
//! sidecar document: [`crate::run_spec_profiled`] collects per-cell
//! execution timings into a [`SweepProfile`], and `piflab run --profile`
//! writes it *next to* the report (`<report>.profile.json`), leaving the
//! report bytes untouched.

use crate::json::escape;

/// One cell's timing in a [`SweepProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProfile {
    /// Grid index (matches the report cell of the same index).
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// Prefetcher label, when the spec sweeps prefetchers.
    pub prefetcher: Option<&'static str>,
    /// Axis point label.
    pub point: String,
    /// Whether the cell was replayed from the result cache.
    pub cached: bool,
    /// Wall-clock microseconds spent simulating the cell (0 when
    /// `cached` — replay cost is not simulation cost). Cells that ran as
    /// one job (the history-capacity lanes of one workload) each get an
    /// equal share of the job's wall time, so the cells' `exec_us` add
    /// up to the pool's busy time.
    pub exec_us: u64,
}

/// Per-cell wall-clock timings of one sweep run.
///
/// Schedule- and machine-dependent by nature: two runs of the same spec
/// produce identical reports but different profiles. Diagnostics only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepProfile {
    /// The spec that ran.
    pub spec: String,
    /// Pool worker count of the run.
    pub threads: usize,
    /// One entry per grid cell, ordered by cell index.
    pub cells: Vec<CellProfile>,
}

impl SweepProfile {
    /// Total simulation time across cells, saturating, in microseconds.
    pub fn total_exec_us(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.exec_us))
    }

    /// Serializes the `pif-lab-profile/v1` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"schema\": \"pif-lab-profile/v1\",\n  \"spec\": \"{}\",\n  \
             \"threads\": {},\n  \"total_exec_us\": {},\n  \"cells\": [",
            escape(&self.spec),
            self.threads,
            self.total_exec_us()
        ));
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"index\": {}, \"workload\": \"{}\", \"prefetcher\": {}, \
                 \"point\": \"{}\", \"cached\": {}, \"exec_us\": {}}}",
                c.index,
                escape(&c.workload),
                match c.prefetcher {
                    Some(p) => format!("\"{}\"", escape(p)),
                    None => "null".to_string(),
                },
                escape(&c.point),
                c.cached,
                c.exec_us
            ));
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{registry, run_spec, run_spec_profiled, RunOptions, Scale};

    fn sample() -> SweepProfile {
        SweepProfile {
            spec: "fig10".to_string(),
            threads: 2,
            cells: vec![
                CellProfile {
                    index: 0,
                    workload: "OLTP-DB2".to_string(),
                    prefetcher: Some("PIF"),
                    point: "default".to_string(),
                    cached: false,
                    exec_us: 1234,
                },
                CellProfile {
                    index: 1,
                    workload: "Web-Apache".to_string(),
                    prefetcher: None,
                    point: "default".to_string(),
                    cached: true,
                    exec_us: 0,
                },
            ],
        }
    }

    #[test]
    fn profile_json_parses_and_carries_schema() {
        let p = sample();
        let j = Json::parse(&p.to_json()).expect("profile JSON parses");
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("pif-lab-profile/v1")
        );
        assert_eq!(j.get("total_exec_us").and_then(Json::as_f64), Some(1234.0));
        let cells = j.get("cells").and_then(Json::as_arr).expect("cells array");
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].get("prefetcher").and_then(Json::as_str),
            Some("PIF")
        );
        assert_eq!(cells[1].get("prefetcher"), Some(&Json::Null));
        assert_eq!(cells[1].get("cached").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn profiled_run_report_is_byte_identical_to_plain_run() {
        let spec = registry::table1();
        let opts = RunOptions::new()
            .scale(Scale::tiny())
            .threads(2)
            .smoke(true);
        let plain = run_spec(&spec, &opts);
        let (profiled, stats, profile) = run_spec_profiled(&spec, &opts);
        assert_eq!(
            plain.to_json().unwrap(),
            profiled.to_json().unwrap(),
            "profiling must not perturb report bytes"
        );
        assert_eq!(stats.executed_cells, spec.grid_len());
        assert_eq!(profile.cells.len(), spec.grid_len());
        assert_eq!(profile.threads, 2);
        for cell in &profile.cells {
            assert!(!cell.cached, "no cache attached");
            assert!(cell.exec_us > 0, "executed cell {} untimed", cell.index);
        }
    }

    #[test]
    fn lane_jobs_split_their_time_equally_over_their_cells() {
        let spec = registry::fig9_history();
        let opts = RunOptions::new().scale(Scale::tiny()).threads(2);
        let (_, stats, profile) = run_spec_profiled(&spec, &opts);
        assert_eq!(stats.executed_cells, spec.grid_len());
        // One job per workload: its cells' shares differ by at most the
        // microsecond of remainder.
        for job in profile.cells.chunks(registry::FIG9_HISTORY_SIZES.len()) {
            let us: Vec<u64> = job.iter().map(|c| c.exec_us).collect();
            let (lo, hi) = (us.iter().min().unwrap(), us.iter().max().unwrap());
            assert!(*lo > 0 && hi - lo <= 1, "{}: {us:?}", job[0].workload);
        }
    }
}
