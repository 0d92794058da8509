//! Plain-text rendering of a [`SweepReport`]: the figure tables `piflab
//! run` prints to stdout.
//!
//! The renderer is generic over the registry. It looks only at the grid's
//! shape, the metric names its cells carry, and the spec's [`Measure`],
//! never at a spec's name, so a new spec prints sensibly with no code
//! here. Rows are the report's workloads, in report order.
//!
//! * A grid with several (prefetcher, point) coordinates prints one
//!   workload × coordinate table per headline metric its cells carry;
//!   the `uipc_speedup_vs_none` table closes with a geometric-mean row.
//! * A single-coordinate grid prints its cells' metrics as columns: the
//!   scalar metrics in one table, and each bucketed metric family
//!   (`density_*`, `runs_*`, `offset_*`, `jump_cdf_*`, `len_cdf_*`) in
//!   its own.
//! * [`Measure::Static`] grids also print the system and PIF halves of
//!   Table I, rendered from the spec's base configurations.

use pif_core::PifConfig;
use pif_sim::EngineConfig;

use crate::report::{Cell, SweepReport};
use crate::spec::{Measure, SweepSpec};
use crate::tablefmt::{pct, speedup, Table};

/// Formats one metric value for a table cell.
type Format = fn(f64) -> String;

/// The metrics a multi-coordinate grid prints, one table each, in this
/// order, with the formatter of their values.
const HEADLINE: [(&str, Format); 11] = [
    ("miss_coverage", pct),
    ("miss_coverage_tl0", pct),
    ("miss_coverage_tl1", pct),
    ("predictor_coverage", pct),
    ("hit_rate", pct),
    ("uipc", fixed),
    ("uipc_mean", fixed),
    ("uipc_ci95", fixed),
    ("uipc_rel_err", pct),
    ("sampled_fraction", pct),
    (SPEEDUP, speedup),
];

/// The headline metric whose table ends in a geometric-mean row.
const SPEEDUP: &str = "uipc_speedup_vs_none";

/// Bucketed metric families (distributions and CDFs, so every value is a
/// fraction) that a single-coordinate grid prints one table each.
const FAMILIES: [&str; 5] = ["density_", "runs_", "offset_", "jump_cdf_", "len_cdf_"];

/// Four decimals: the format of every ratio that is not a fraction.
fn fixed(x: f64) -> String {
    format!("{x:.4}")
}

/// Renders `report` (produced from `spec`) as titled plain-text tables.
pub fn render(spec: &SweepSpec, report: &SweepReport) -> String {
    let scale = &report.scale;
    let mut out = format!(
        "{} ({} instrs/workload, footprint x{}, warmup {})\n",
        report.title, scale.instructions, scale.footprint, scale.warmup_fraction
    );
    let mut section = |heading: &str, table: &Table| {
        out.push_str(&format!("\n{heading}\n{table}"));
    };
    if spec.measure == Measure::Static {
        section("system parameters", &system_table(&spec.engine_base));
        section("PIF design point", &pif_table(&spec.pif_base));
    }
    let coordinates = report.prefetchers.len().max(1) * report.points.len();
    let tables = if coordinates > 1 {
        coordinate_tables(report)
    } else {
        metric_tables(report)
    };
    for (heading, table) in &tables {
        section(heading, table);
    }
    out
}

/// One workload × coordinate table per headline metric the cells carry.
/// A coordinate becomes a column when its cells carry the metric (the
/// `None` baseline has no speedup over itself).
fn coordinate_tables(report: &SweepReport) -> Vec<(String, Table)> {
    let Some(first) = report.workloads.first() else {
        return Vec::new();
    };
    let label = |c: &Cell| match (report.prefetchers.len() > 1, report.points.len() > 1) {
        (true, true) => format!("{}/{}", c.prefetcher.unwrap_or("-"), c.point),
        (true, false) => c.prefetcher.unwrap_or("-").to_string(),
        _ => c.point.clone(),
    };
    let mut tables = Vec::new();
    for (name, format) in HEADLINE {
        let columns: Vec<&Cell> = report
            .workload_cells(first)
            .filter(|c| c.metric(name).is_some())
            .collect();
        if columns.is_empty() {
            continue;
        }
        let mut table = Table::new(
            std::iter::once("Workload".to_string())
                .chain(columns.iter().map(|c| label(c)))
                .collect(),
        );
        let mut by_column: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
        for w in &report.workloads {
            let mut row = vec![w.clone()];
            for (column, c) in by_column.iter_mut().zip(&columns) {
                let v = report
                    .cell(w, c.prefetcher, &c.point)
                    .and_then(|cell| cell.metric(name));
                column.extend(v);
                row.push(v.map(format).unwrap_or_default());
            }
            table.row(row);
        }
        if name == SPEEDUP {
            let mut row = vec!["geomean".to_string()];
            row.extend(by_column.iter().map(|vs| format(geomean(vs))));
            table.row(row);
        }
        tables.push((name.to_string(), table));
    }
    tables
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// A single-coordinate grid: one row per cell, its metrics as columns.
/// Scalar metrics share one table; each bucketed family gets its own,
/// headed by the family and with the prefix stripped from its columns.
fn metric_tables(report: &SweepReport) -> Vec<(String, Table)> {
    let Some(first) = report.cells.first() else {
        return Vec::new();
    };
    // (family prefix, "" for scalars; member metric names), in emission
    // order.
    let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
    for (name, _) in &first.metrics {
        let family = FAMILIES
            .into_iter()
            .find(|f| name.starts_with(f))
            .unwrap_or("");
        match groups.iter_mut().find(|(f, _)| *f == family) {
            Some((_, names)) => names.push(name),
            None => groups.push((family, vec![name])),
        }
    }
    groups
        .into_iter()
        .map(|(family, names)| {
            let mut table = Table::new(
                std::iter::once("Workload")
                    .chain(names.iter().map(|n| &n[family.len()..]))
                    .collect(),
            );
            for cell in &report.cells {
                let mut row = vec![cell.workload.clone()];
                row.extend(names.iter().map(|&n| {
                    match (cell.metric_u64(n), cell.metric(n)) {
                        (Some(count), _) => count.to_string(),
                        (None, Some(v)) if !family.is_empty() => pct(v),
                        (None, Some(v)) => HEADLINE
                            .iter()
                            .find(|(h, _)| *h == n)
                            .map_or_else(|| fixed(v), |(_, format)| format(v)),
                        (None, None) => String::new(),
                    }
                }));
                table.row(row);
            }
            let heading = if family.is_empty() {
                "metrics".to_string()
            } else {
                format!("{family}*")
            };
            (heading, table)
        })
        .collect()
}

/// The system half of Table I, rendered from the simulated configuration
/// so the printed table always matches what the grids simulate.
fn system_table(config: &EngineConfig) -> Table {
    let mut t = Table::new(vec!["Component", "Configuration"]);
    t.row(vec![
        "Processing nodes".into(),
        format!(
            "{}-wide OoO, {}-entry ROB model",
            config.timing.dispatch_width, config.frontend.retire_delay_instrs
        ),
    ]);
    t.row(vec![
        "L1-I cache".into(),
        format!(
            "{}KB, {}-way, 64B blocks, {}-cycle load-to-use",
            config.icache.capacity_bytes / 1024,
            config.icache.ways,
            config.icache.latency_cycles
        ),
    ]);
    t.row(vec![
        "Branch predictor".into(),
        format!(
            "hybrid {}K gshare + {}K bimodal",
            config.frontend.gshare_entries / 1024,
            config.frontend.bimodal_entries / 1024
        ),
    ]);
    t.row(vec![
        "L2 (instruction)".into(),
        format!(
            "{}MB NUCA aggregate, {}-way, {}-cycle hit",
            config.l2.capacity_bytes / (1024 * 1024),
            config.l2.ways,
            config.l2.hit_latency_cycles
        ),
    ]);
    t.row(vec![
        "Main memory".into(),
        format!("{}-cycle access", config.l2.memory_latency_cycles),
    ]);
    t
}

/// The PIF half of Table I: the prefetcher's design point.
fn pif_table(config: &PifConfig) -> Table {
    let mut t = Table::new(vec!["PIF structure", "Configuration"]);
    t.row(vec![
        "Spatial region".into(),
        format!(
            "{} preceding + trigger + {} succeeding blocks",
            config.geometry.preceding(),
            config.geometry.succeeding()
        ),
    ]);
    t.row(vec![
        "Temporal compactor".into(),
        format!("{} MRU records", config.temporal_entries),
    ]);
    t.row(vec![
        "History buffer".into(),
        format!("{}K regions per trap level", config.history_capacity / 1024),
    ]);
    t.row(vec![
        "Index table".into(),
        format!(
            "{}K entries, {}-way",
            config.index_entries / 1024,
            config.index_ways
        ),
    ]);
    t.row(vec![
        "Stream address buffers".into(),
        format!(
            "{} SABs x {}-region window",
            config.sab_count, config.sab_window
        ),
    ]);
    t.row(vec![
        "Approx. storage".into(),
        format!("{} KB", config.approx_storage_bytes() / 1024),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;
    use crate::{registry, run_spec, RunOptions, Scale};

    /// A report over `cells`, whose workloads appear in cell order.
    fn report(prefetchers: Vec<&'static str>, cells: Vec<Cell>) -> SweepReport {
        let mut workloads: Vec<String> = cells.iter().map(|c| c.workload.clone()).collect();
        workloads.dedup();
        SweepReport {
            spec: "test".into(),
            title: "A test grid".into(),
            smoke: true,
            scale: Scale::tiny(),
            tolerance: 1e-9,
            workloads,
            prefetchers,
            axis: "unit".into(),
            points: vec!["-".into()],
            config: Vec::new(),
            cells,
        }
    }

    fn cell(index: usize, workload: &str, prefetcher: &'static str, uipc: f64) -> Cell {
        let mut c = Cell {
            index,
            workload: workload.into(),
            prefetcher: Some(prefetcher),
            point: "-".into(),
            metrics: vec![("uipc".into(), Metric::F64(uipc))],
        };
        if prefetcher != "None" {
            c.push(SPEEDUP, Metric::F64(uipc));
        }
        c
    }

    #[test]
    fn tables_render_with_paper_values() {
        let sys = system_table(&EngineConfig::paper_default()).to_string();
        assert!(sys.contains("64KB, 2-way"));
        assert!(sys.contains("16K gshare + 16K bimodal"));

        let pif = pif_table(&PifConfig::paper_default()).to_string();
        assert!(pif.contains("2 preceding + trigger + 5 succeeding"));
        assert!(pif.contains("32K regions"));
        assert!(pif.contains("4 SABs x 7-region window"));

        // The static grid prints both halves, then one row per workload.
        let spec = registry::table1();
        let report = run_spec(&spec, &RunOptions::new().scale(Scale::tiny()));
        let text = render(&spec, &report);
        assert!(text.contains("64KB, 2-way") && text.contains("32K regions"));
        assert!(text.contains("num_transaction_types"));
        let workload_rows = text
            .lines()
            .filter(|l| report.workloads.iter().any(|w| l.starts_with(w.as_str())))
            .count();
        assert_eq!(workload_rows, 6);
    }

    #[test]
    fn coordinate_grids_print_one_table_per_headline_metric() {
        let report = report(
            vec!["None", "PIF"],
            vec![
                cell(0, "A", "None", 1.0),
                cell(1, "A", "PIF", 2.0),
                cell(2, "B", "None", 1.0),
                cell(3, "B", "PIF", 8.0),
            ],
        );
        let text = render(&registry::fig10(), &report);
        let uipc = text.split("\nuipc\n").nth(1).expect("uipc table");
        assert!(uipc.starts_with("Workload  None    PIF"), "{text}");
        // The speedup table has no `None` column and ends in the
        // geometric mean of 2x and 8x.
        let speedups = text.split(&format!("\n{SPEEDUP}\n")).nth(1).unwrap();
        assert!(!speedups.lines().next().unwrap().contains("None"));
        assert_eq!(
            speedups.lines().last().unwrap().trim_end(),
            "geomean   4.00x"
        );
    }

    #[test]
    fn single_coordinate_grids_group_metric_families() {
        let report = report(
            Vec::new(),
            vec![Cell {
                index: 0,
                workload: "OLTP-DB2".into(),
                prefetcher: None,
                point: "-".into(),
                metrics: vec![
                    ("total_regions".into(), Metric::U64(12)),
                    ("density_1_1".into(), Metric::F64(0.25)),
                    ("density_2_2".into(), Metric::F64(0.75)),
                ],
            }],
        );
        let text = render(&registry::fig3(), &report);
        assert!(
            text.contains("\nmetrics\nWorkload  total_regions\n"),
            "{text}"
        );
        assert!(
            text.contains("\ndensity_*\nWorkload  1_1    2_2  \n"),
            "{text}"
        );
        assert!(text.contains("OLTP-DB2  25.0%  75.0%"), "{text}");
    }
}
