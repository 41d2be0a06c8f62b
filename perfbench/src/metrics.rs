//! End-to-end and per-layer metrics derived from a run's passes, and
//! the result line.

use crate::measure::{Pass, References, Spans};
use crate::probes;
use crate::workload::Cell;
use apps::Version;
use treadmarks::DsmStats;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A ratio whose base is empty reads as 0, not NaN; an empty sum
    // reads as 0, not -0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    Metric { name, value, unit }
}

/// Median as `statistics.median` defines it (mean of the middle two).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's resident-memory high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The seven end-to-end metrics of a run's timing passes.
pub fn end_to_end(refs: &References, passes: &[Pass]) -> Vec<Metric> {
    let first = &passes[0];
    let facts = || {
        first
            .records
            .iter()
            .filter_map(|r| r.facts.as_ref().map(|f| (r, f)))
    };
    let logs: Vec<f64> = facts()
        .map(|(r, f)| (refs.get(r.cell.app).time_us / f.time_us).ln())
        .collect();
    let records = || passes.iter().flat_map(|p| &p.records);
    let attempted = records().count() as f64;
    let ok = records().filter(|r| !r.failed()).count() as f64;
    let host: Vec<f64> = passes.iter().map(Pass::host_s).collect();
    vec![
        metric("host_s", median(&host), "s"),
        metric("setup_s", median(&refs.setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        metric(
            "speedup_gm",
            (logs.iter().sum::<f64>() / logs.len() as f64).exp(),
            "x",
        ),
        metric(
            "messages",
            facts().map(|(_, f)| f.stats.total_messages() as f64).sum(),
            "count",
        ),
        metric(
            "kbytes",
            facts()
                .map(|(_, f)| f.stats.total_bytes() as f64)
                .sum::<f64>()
                / 1024.0,
            "KB",
        ),
        metric("ok_share", ok / attempted, "ratio"),
    ]
}

fn dsm_sum(pass: &Pass, pred: impl Fn(&Cell) -> bool) -> DsmStats {
    let mut total = DsmStats::default();
    for r in pass.records.iter().filter(|r| pred(&r.cell)) {
        if let Some(f) = &r.facts {
            total.merge(&f.dsm);
        }
    }
    total
}

fn is_version(v: Version) -> impl Fn(&Cell) -> bool {
    move |c: &Cell| c.version == v
}

fn is_mp(c: &Cell) -> bool {
    matches!(c.version, Version::Xhpf | Version::Pvme)
}

/// Per cell: its label and its median host seconds over the untraced
/// and over the traced passes. Medians per cell keep one slow run from
/// deciding the recorder's overhead.
pub fn cell_host_medians(untraced: &[&Pass], traced: &[&Pass]) -> Vec<(String, f64, f64)> {
    let cell_median = |passes: &[&Pass], i: usize| {
        median(
            &passes
                .iter()
                .map(|p| p.records[i].host_s)
                .collect::<Vec<_>>(),
        )
    };
    traced[0]
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                r.cell.label(),
                cell_median(untraced, i),
                cell_median(traced, i),
            )
        })
        .collect()
}

/// Per-layer metrics from the traced passes (counters, the benchmark's
/// spans and the recorder's analysis), the untraced passes of the same
/// cells (for the recorder's overhead), and the layer probes, which run
/// here at the densities and payloads the traced pass observed.
pub fn per_layer(
    refs: &References,
    untraced: &[&Pass],
    traced: &[&Pass],
    page_words: usize,
    seed: u64,
    spans: &mut Spans,
) -> Vec<Metric> {
    let first = traced[0];
    let host = |pred: &dyn Fn(&Cell) -> bool| {
        median(
            &traced
                .iter()
                .map(|p| p.run_host_s(pred))
                .collect::<Vec<_>>(),
        )
    };
    let all_host = host(&|_| true);
    let dsm_host = host(&|c| c.is_dsm());
    let dsm = dsm_sum(first, Cell::is_dsm);
    let spf = dsm_sum(first, |c| {
        matches!(c.version, Version::Spf | Version::SpfCri)
    });
    let cri = dsm_sum(first, is_version(Version::SpfCri));

    let facts: Vec<_> = first
        .records
        .iter()
        .filter_map(|r| r.facts.as_ref())
        .collect();
    let messages: u64 = facts.iter().map(|f| f.stats.total_messages()).sum();
    let bytes: u64 = facts.iter().map(|f| f.stats.total_bytes()).sum();
    let kb = |f: &dyn Fn(&crate::measure::Facts) -> u64| {
        facts.iter().map(|x| f(x)).sum::<u64>() as f64 / 1024.0
    };
    let traces: Vec<_> = first
        .records
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .collect();
    let vt = |f: &dyn Fn(&crate::measure::TraceFacts) -> f64| {
        traces.iter().map(|t| f(t)).sum::<f64>() * 1e-6
    };
    let cp_shares: Vec<f64> = traces.iter().filter_map(|t| t.cp_wait_share).collect();
    let cells = cell_host_medians(untraced, traced);
    let overhead = cells.iter().map(|c| c.2).sum::<f64>() / cells.iter().map(|c| c.1).sum::<f64>();
    let analyze_s = median(
        &traced
            .iter()
            .map(|p| p.records.iter().map(|r| r.analyze_s).sum())
            .collect::<Vec<_>>(),
    );

    let density = dsm.diff_words_created as f64 / (dsm.diffs_created as f64 * page_words as f64);
    let id = spans.begin("probe.diff", format!("density {density:.4}"), None);
    let (create_ns, apply_ns) = probes::diff_ns(
        if density.is_finite() { density } else { 0.0 },
        page_words,
        seed,
    );
    spans.end(id);
    let payload_words = (bytes / messages.max(1) / 8).max(1) as usize;
    let id = spans.begin("probe.ring", format!("{payload_words} words"), None);
    let msg_ns = probes::msg_ns(payload_words);
    spans.end(id);

    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    vec![
        metric("treadmarks.host_s", host(&is_version(Version::Tmk)), "s"),
        metric("treadmarks.faults", dsm.faults as f64, "count"),
        metric("treadmarks.twins", dsm.twins as f64, "count"),
        metric(
            "treadmarks.diffs_created",
            dsm.diffs_created as f64,
            "count",
        ),
        metric(
            "treadmarks.diff_words",
            dsm.diff_words_created as f64,
            "count",
        ),
        metric(
            "treadmarks.diffs_applied",
            dsm.diffs_applied as f64,
            "count",
        ),
        metric("treadmarks.page_fetches", dsm.page_fetches as f64, "count"),
        metric(
            "treadmarks.home_flush_pages",
            dsm.home_flush_pages as f64,
            "count",
        ),
        metric(
            "treadmarks.arena_hit_ratio",
            ratio(dsm.arena_hits, dsm.arena_hits + dsm.arena_misses),
            "ratio",
        ),
        metric(
            "treadmarks.host_us_per_fault",
            dsm_host * 1e6 / dsm.faults as f64,
            "us",
        ),
        metric("treadmarks.diff_create_ns", create_ns, "ns"),
        metric("treadmarks.diff_apply_ns", apply_ns, "ns"),
        metric(
            "treadmarks.diff_share_est",
            (create_ns * dsm.diffs_created as f64 + apply_ns * dsm.diffs_applied as f64) * 1e-9
                / dsm_host,
            "ratio",
        ),
        metric("spf.host_s", host(&is_version(Version::Spf)), "s"),
        metric("spf.forks", spf.forks as f64, "count"),
        metric("spf.barriers", spf.barriers as f64, "count"),
        metric("cri.host_s", host(&is_version(Version::SpfCri)), "s"),
        metric("cri.validates", cri.validates as f64, "count"),
        metric("cri.validate_pages", cri.validate_pages as f64, "count"),
        metric("cri.pages_pushed", cri.pages_pushed as f64, "count"),
        metric("cri.direct_reduces", cri.direct_reduces as f64, "count"),
        metric("inspector.inspections", cri.inspections as f64, "count"),
        metric(
            "inspector.schedule_reuse",
            cri.schedule_reuse as f64,
            "count",
        ),
        metric(
            "inspector.reuse_ratio",
            ratio(cri.schedule_reuse, cri.schedule_reuse + cri.inspections),
            "ratio",
        ),
        metric("inspector.inspect_sim_s", cri.inspect_us as f64 * 1e-6, "s"),
        metric(
            "sp2sim.miss_round_trips",
            facts.iter().map(|f| f.miss_round_trips as f64).sum(),
            "count",
        ),
        metric("sp2sim.data_kbytes", kb(&|f| f.stats.data_bytes()), "KB"),
        metric("sp2sim.flush_kbytes", kb(&|f| f.flush_bytes), "KB"),
        metric(
            "sp2sim.host_us_per_msg",
            all_host * 1e6 / messages as f64,
            "us",
        ),
        metric("sp2sim.msg_ns", msg_ns, "ns"),
        metric(
            "sp2sim.msg_share_est",
            msg_ns * messages as f64 * 1e-9 / all_host,
            "ratio",
        ),
        metric("mpl.host_s", host(&is_mp), "s"),
        metric("apps.seq_host_s", median(&refs.setup_s), "s"),
        metric("trace.overhead", overhead, "ratio"),
        metric(
            "trace.events",
            traces.iter().map(|t| t.events as f64).sum(),
            "count",
        ),
        metric("harness.analyze_s", analyze_s, "s"),
        metric("vt.compute_s", vt(&|t| t.compute_us), "s"),
        metric("vt.wait_s", vt(&|t| t.wait_us), "s"),
        metric("vt.service_s", vt(&|t| t.service_us), "s"),
        metric("vt.wire_s", vt(&|t| t.wire_us), "s"),
        metric(
            "cp.wait_share",
            cp_shares.iter().sum::<f64>() / cp_shares.len() as f64,
            "ratio",
        ),
    ]
}

/// The result line: the last line of the benchmark's standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
