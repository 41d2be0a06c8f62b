//! `dsm analyze`: causal bottleneck analysis of one application run —
//! the critical path through the cross-node happens-before DAG plus
//! the sharing diagnostics (page heatmap, false-sharing candidates,
//! lock contention) that name *which* pages and locks the time goes to.
//!
//! The run is executed with tracing *and* race-detection provenance on
//! (both pure observers — simulated results are bit-identical either
//! way, pinned by the trace/race overhead gates). On the sequential
//! engine the path length equals the max final virtual clock bitwise
//! ("exact identity"); `--gate-identity` turns any deviation — or a
//! lossy trace, or a malformed DAG — into a gate failure. `--out FILE`
//! writes the analysis as a stable `analyze/v1` JSON document, and
//! `--check FILE` re-validates such a document's shape and internal
//! consistency.

use std::cmp::Reverse;

use apps::RunResult;
use sp2sim::Category;
use treadmarks::{FalseSharingReport, LockProfile, PageProfile, SharingProfile};

use super::tools::traced_run;
use super::{read, write, Args, Error, Out, RunSpec};
use crate::critical_path::{self, CriticalPath, DagCheck};
use crate::report::{f1 as us, render_table, Table};
use crate::trace_analysis::{msg_label, obj};
use crate::{Json, SegmentKind};

fn pct(part: f64, whole: f64) -> String {
    format!("{:.1}%", 100.0 * part / whole.max(f64::MIN_POSITIVE))
}

fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

/// Everything the text report and the JSON document are built from.
struct Report<'a> {
    spec: RunSpec,
    run: &'a RunResult,
    cp: CriticalPath,
    dag: DagCheck,
    /// The max final virtual clock over nodes.
    t_max: f64,
    dropped: u64,
    /// Path length == `t_max`, bitwise, on a complete walk.
    exact: bool,
    sharing: Sharing<'a>,
    top: usize,
}

/// The sharing diagnostics, each ranked strongest first. Ties go to the
/// lower page id, writer pair or lock id, so the order is total and the
/// first row of each table is the one to look at.
struct Sharing<'a> {
    /// Pages by descending fault count.
    pages: Vec<(usize, &'a PageProfile)>,
    /// False-sharing candidates by descending pair count.
    false_sharing: Vec<&'a FalseSharingReport>,
    /// Locks by descending blocked time.
    locks: Vec<(u32, &'a LockProfile)>,
}

pub(super) fn analyze(a: &Args, out: Out) -> Result<(), Error> {
    if let Some(path) = a.get("--check") {
        let doc = Json::parse(&read(path)?).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        let summary = check_report(&doc).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        return Ok(writeln!(
            out,
            "{path}: valid analyze/v1 report ({summary})"
        )?);
    }
    let top = match a.get("--top") {
        Some(v) => v
            .parse()
            .map_err(|_| Error::Usage(format!("analyze: bad --top {v}")))?,
        None => 8,
    };
    let (run, trace, dropped) = traced_run(&a.spec, true)?;
    let cp = critical_path::compute(&trace).ok_or_else(|| Error::Io("empty trace".into()))?;
    let t_max = trace
        .final_us
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let r = Report {
        spec: a.spec,
        run: &run,
        exact: cp.exact() && cp.length_us().to_bits() == t_max.to_bits(),
        dag: critical_path::check_dag(&trace),
        cp,
        t_max,
        dropped,
        sharing: Sharing::rank(&run.sharing, &run.false_sharing),
        top,
    };
    r.render(out)?;
    if let Some(path) = a.get("--out") {
        write(path, &r.to_json().render())?;
        writeln!(out, "\nwrote {path}")?;
    }
    if a.has("--gate-identity") {
        if !r.exact || !r.dag.ok() || dropped > 0 {
            return Err(Error::Gate(format!(
                "analyze --gate-identity: FAILED (exact={} dag_ok={} dropped={dropped})",
                r.exact,
                r.dag.ok()
            )));
        }
        writeln!(
            out,
            "analyze --gate-identity: ok (path length == max final clock, bitwise)"
        )?;
    }
    Ok(())
}

impl Report<'_> {
    fn render(&self, out: Out) -> Result<(), Error> {
        let (s, r, cp, dag, top) = (&self.spec, self.run, &self.cp, &self.dag, self.top);
        let (len, t_max) = (cp.length_us(), self.t_max);
        writeln!(
            out,
            "{} / {} / {}: {} nodes, scale {}, virtual time {:.3} s",
            s.app.name(),
            s.version.name(),
            s.protocol,
            r.nprocs,
            s.scale,
            t_max / 1e6,
        )?;

        // ---- critical path ---------------------------------------------
        let identity = if self.exact {
            "exact identity".to_string()
        } else {
            format!(
                "INEXACT: contiguous={} unresolved={} lossy={} end={}",
                cp.contiguous, cp.unresolved, cp.lossy, cp.end_us
            )
        };
        writeln!(
            out,
            "\nCritical path: {} us, {} of the {} us final clock ({identity})",
            us(len),
            pct(len, t_max),
            us(t_max),
        )?;
        writeln!(
            out,
            "  ends on node {} after {} segments; wait share {}",
            cp.start_node,
            cp.segments.len(),
            pct(cp.wait_share() * len, len),
        )?;
        let cats: Vec<String> = cp
            .by_category()
            .iter()
            .map(|(c, v)| format!("{} {} ({})", c.label(), us(*v), pct(*v, len)))
            .collect();
        writeln!(out, "  by category: {}", cats.join(", "))?;
        let mut t = Table::new(vec!["contributor", "path_us", "share"]);
        for (l, v) in cp.by_label().iter().take(top) {
            t.row(vec![l.to_string(), us(*v), pct(*v, len)]);
        }
        writeln!(
            out,
            "\nTop critical-path contributors:\n\n{}",
            render_table(&t)
        )?;
        let msgs = cp.by_message();
        if !msgs.is_empty() {
            let mut t = Table::new(vec!["message", "wire_us", "share"]);
            for (code, v) in msgs.iter().take(top) {
                t.row(vec![msg_label(*code).to_string(), us(*v), pct(*v, len)]);
            }
            writeln!(
                out,
                "Wire time on the path, by message kind:\n\n{}",
                render_table(&t)
            )?;
        }
        let mut t = Table::new(vec!["node", "epoch", "path_us", "share"]);
        for ((n, e), v) in cp.by_node_epoch().iter().take(top) {
            t.row(vec![n.to_string(), e.to_string(), us(*v), pct(*v, len)]);
        }
        writeln!(
            out,
            "Hottest (node, epoch) on the path:\n\n{}",
            render_table(&t)
        )?;
        let slack: Vec<String> = cp.slack_us.iter().map(|s| us(*s)).collect();
        writeln!(out, "Per-node slack (us): [{}]", slack.join(", "))?;
        writeln!(
            out,
            "DAG: {} recvs ({} send-matched, {} edge-matched, {} self), {} edges, {} violations",
            dag.recvs,
            dag.matched_send,
            dag.matched_edge,
            dag.self_delivered,
            dag.edges,
            dag.violations.len(),
        )?;
        for v in dag.violations.iter().take(5) {
            writeln!(out, "  violation: {v}")?;
        }

        self.sharing.render(top, out)?;
        if !r.race_report.is_empty() {
            writeln!(
                out,
                "WARNING: {} racing interval pair(s) detected",
                r.race_report.len()
            )?;
        }
        Ok(())
    }

    /// The `analyze/v1` document.
    fn to_json(&self) -> Json {
        let (s, r, cp, dag, top) = (&self.spec, self.run, &self.cp, &self.dag, self.top);
        let cats = cp.by_category();
        let cat_obj = obj(cats.iter().map(|(c, v)| (c.label(), num(*v))).collect());
        let labels = cp
            .by_label()
            .into_iter()
            .map(|(l, v)| obj(vec![("label", Json::Str(l.into())), ("us", num(v))]));
        let labels = Json::Arr(labels.collect());
        let msgs = cp.by_message().into_iter().map(|(c, v)| {
            obj(vec![
                ("msg", Json::Str(msg_label(c).into())),
                ("us", num(v)),
            ])
        });
        let msgs = Json::Arr(msgs.collect());
        let hot = cp
            .by_node_epoch()
            .into_iter()
            .take(top)
            .map(|((n, e), v)| obj(vec![("node", num(n)), ("epoch", num(e)), ("us", num(v))]));
        let hot = Json::Arr(hot.collect());
        let wire_hops = cp
            .segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Wire { .. }))
            .count();
        let pages = self.sharing.pages.iter().take(top).map(|(page, p)| {
            obj(vec![
                ("page", num(*page as u32)),
                ("faults", num(p.faults as f64)),
                ("page_fetches", num(p.page_fetches as f64)),
                ("diffs_created", num(p.diffs_created as f64)),
                ("diff_words_created", num(p.diff_words_created as f64)),
                ("diffs_applied", num(p.diffs_applied as f64)),
                ("writers", num(p.writers())),
                ("max_epoch_writers", num(p.max_epoch_writers)),
            ])
        });
        let false_sharing = self.sharing.false_sharing.iter().take(top).map(|f| {
            let writers = Json::Arr(vec![num(f.writers.0 as u32), num(f.writers.1 as u32)]);
            obj(vec![
                ("page", num(f.page as u32)),
                ("writers", writers),
                ("pairs", num(f.pairs as f64)),
                ("words_a", num(f.words_a as f64)),
                ("words_b", num(f.words_b as f64)),
            ])
        });
        let locks = self.sharing.locks.iter().map(|(lock, l)| {
            obj(vec![
                ("lock", num(*lock)),
                ("acquires", num(l.acquires as f64)),
                ("local_hits", num(l.local_hits as f64)),
                ("wait_us", num(l.wait_us)),
                ("handoffs", num(l.handoffs as f64)),
                ("max_chain", num(l.max_chain)),
            ])
        });
        obj(vec![
            ("schema", Json::Str("analyze/v1".into())),
            ("app", Json::Str(s.app.name().into())),
            ("version", Json::Str(s.version.name().into())),
            ("protocol", Json::Str(s.protocol.to_string())),
            ("engine", Json::Str(s.engine.to_string())),
            ("nprocs", num(r.nprocs as u32)),
            ("scale", num(s.scale)),
            ("max_final_us", num(self.t_max)),
            ("dropped", num(self.dropped as f64)),
            (
                "critical_path",
                obj(vec![
                    ("length_us", num(cp.length_us())),
                    ("exact", Json::Bool(self.exact)),
                    ("wait_share", num(cp.wait_share())),
                    ("start_node", num(cp.start_node)),
                    ("segments", num(cp.segments.len() as u32)),
                    ("wire_hops", num(wire_hops as u32)),
                    ("by_category", cat_obj),
                    ("by_label", labels),
                    ("by_message", msgs),
                    ("hot_node_epochs", hot),
                    (
                        "slack_us",
                        Json::Arr(cp.slack_us.iter().map(|s| num(*s)).collect()),
                    ),
                ]),
            ),
            (
                "dag",
                obj(vec![
                    ("recvs", num(dag.recvs as f64)),
                    ("matched_send", num(dag.matched_send as f64)),
                    ("matched_edge", num(dag.matched_edge as f64)),
                    ("self_delivered", num(dag.self_delivered as f64)),
                    ("edges", num(dag.edges as f64)),
                    ("violations", num(dag.violations.len() as u32)),
                ]),
            ),
            ("pages", Json::Arr(pages.collect())),
            ("false_sharing", Json::Arr(false_sharing.collect())),
            ("locks", Json::Arr(locks.collect())),
            ("races", num(r.race_report.len() as u32)),
        ])
    }
}

impl<'a> Sharing<'a> {
    fn rank(profile: &'a SharingProfile, false_sharing: &'a [FalseSharingReport]) -> Self {
        let mut false_sharing: Vec<_> = false_sharing.iter().collect();
        false_sharing.sort_by_key(|f| (Reverse(f.pairs), f.page, f.writers));
        Sharing {
            pages: profile.hot_pages(),
            false_sharing,
            locks: profile.hot_locks(),
        }
    }

    /// The page heatmap, false-sharing and lock tables, `top` rows each.
    fn render(&self, top: usize, out: Out) -> Result<(), Error> {
        if !self.pages.is_empty() {
            let mut t = Table::new(vec![
                "page", "faults", "fetches", "diffs", "dwords", "applied", "writers", "epoch_w",
            ]);
            for (page, p) in self.pages.iter().take(top) {
                t.row(vec![
                    page.to_string(),
                    p.faults.to_string(),
                    p.page_fetches.to_string(),
                    p.diffs_created.to_string(),
                    p.diff_words_created.to_string(),
                    p.diffs_applied.to_string(),
                    p.writers().to_string(),
                    p.max_epoch_writers.to_string(),
                ]);
            }
            writeln!(
                out,
                "Page heatmap (top {} of {} by faults; epoch_w = max writers in one epoch):\n\n{}",
                top.min(self.pages.len()),
                self.pages.len(),
                render_table(&t)
            )?;
        }
        if self.false_sharing.is_empty() {
            writeln!(out, "False sharing: none detected")?;
        } else {
            let mut t = Table::new(vec!["page", "writers", "pairs", "words_a", "words_b"]);
            for f in self.false_sharing.iter().take(top) {
                t.row(vec![
                    f.page.to_string(),
                    format!("{}/{}", f.writers.0, f.writers.1),
                    f.pairs.to_string(),
                    f.words_a.to_string(),
                    f.words_b.to_string(),
                ]);
            }
            writeln!(
                out,
                "False-sharing candidates (concurrent writers, disjoint words):\n\n{}",
                render_table(&t)
            )?;
        }
        if self.locks.is_empty() {
            writeln!(out, "Locks: none used")?;
        } else {
            let mut t = Table::new(vec![
                "lock", "acquires", "local", "wait_us", "handoffs", "chain",
            ]);
            for (lock, l) in self.locks.iter().take(top) {
                t.row(vec![
                    lock.to_string(),
                    l.acquires.to_string(),
                    l.local_hits.to_string(),
                    us(l.wait_us),
                    l.handoffs.to_string(),
                    l.max_chain.to_string(),
                ]);
            }
            writeln!(out, "Lock contention:\n\n{}", render_table(&t))?;
        }
        Ok(())
    }
}

/// Validate a written `analyze/v1` report: every field the schema
/// promises is present and well-typed, and the redundant quantities
/// agree (the four by-category sums telescope to the path length; the
/// slack vector covers every node; an "exact" path length equals the
/// recorded final clock bitwise). Returns a one-line summary.
fn check_report(doc: &Json) -> Result<String, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != "analyze/v1" {
        return Err(format!("schema {schema:?}, expected \"analyze/v1\""));
    }
    for key in ["app", "version", "protocol", "engine"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("missing {key}"))?;
    }
    fn field(v: &Json, path: &str, k: &str) -> Result<f64, String> {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("missing {path}{k}"))
    }
    fn list<'a>(v: &'a Json, path: &str, k: &str) -> Result<&'a [Json], String> {
        v.get(k)
            .and_then(Json::as_arr)
            .ok_or(format!("missing {path}{k}"))
    }
    let nprocs = field(doc, "", "nprocs")?;
    let t_max = field(doc, "", "max_final_us")?;
    let dropped = field(doc, "", "dropped")?;
    if nprocs < 1.0 || !t_max.is_finite() || t_max <= 0.0 || dropped < 0.0 {
        return Err("implausible nprocs/max_final_us/dropped".into());
    }
    let cp = doc.get("critical_path").ok_or("missing critical_path")?;
    let len = field(cp, "critical_path.", "length_us")?;
    let wait_share = field(cp, "critical_path.", "wait_share")?;
    let segments = field(cp, "critical_path.", "segments")?;
    let Some(&Json::Bool(exact)) = cp.get("exact") else {
        return Err("missing critical_path.exact".into());
    };
    if !len.is_finite() || len <= 0.0 || segments < 1.0 || !(0.0..=1.0).contains(&wait_share) {
        return Err("implausible critical_path length/segments/wait_share".into());
    }
    if exact && len.to_bits() != t_max.to_bits() {
        return Err(format!(
            "claims exact but length_us {len} != max_final_us {t_max}"
        ));
    }
    let cats = cp.get("by_category").ok_or("missing by_category")?;
    let mut cat_sum = 0.0;
    for c in Category::ALL {
        cat_sum += field(cats, "by_category.", c.label())?;
    }
    if (cat_sum - len).abs() > 1e-6 * len.max(1.0) {
        return Err(format!("by_category sums to {cat_sum}, path length {len}"));
    }
    let slack = list(cp, "", "slack_us")?;
    if slack.len() != nprocs as usize {
        return Err(format!(
            "slack_us has {} entries for {nprocs} nodes",
            slack.len()
        ));
    }
    for key in ["by_label", "by_message", "hot_node_epochs"] {
        list(cp, "critical_path.", key)?;
    }
    let dag = doc.get("dag").ok_or("missing dag")?;
    for key in [
        "recvs",
        "matched_send",
        "matched_edge",
        "edges",
        "violations",
    ] {
        field(dag, "dag.", key)?;
    }
    let n_pages = list(doc, "", "pages")?.len();
    let n_fs = list(doc, "", "false_sharing")?.len();
    list(doc, "", "locks")?;
    field(doc, "", "races")?;
    Ok(format!(
        "path {len:.1} us, exact={exact}, {n_pages} pages, {n_fs} false-sharing candidates"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(page: usize, writers: (usize, usize), pairs: u64) -> FalseSharingReport {
        FalseSharingReport {
            page,
            writers,
            pairs,
            words_a: 1,
            words_b: 1,
        }
    }

    #[test]
    fn sharing_ranks_strongest_first_with_id_tie_breaks() {
        let page = |faults| {
            let mut p = PageProfile::default();
            p.faults = faults;
            p
        };
        let lock = |wait_us| {
            let mut l = LockProfile::default();
            l.acquires = 1;
            l.wait_us = wait_us;
            l
        };
        let profile = SharingProfile {
            pages: vec![(0, page(1)), (1, page(5)), (2, page(5))],
            locks: vec![(1, lock(5.0)), (2, lock(9.0)), (3, lock(9.0))],
        };
        let candidates = [
            fs(0, (1, 2), 1),
            fs(2, (2, 3), 3),
            fs(1, (0, 2), 3),
            fs(1, (0, 1), 3),
        ];
        let s = Sharing::rank(&profile, &candidates);
        let pages: Vec<_> = s.pages.iter().map(|(p, _)| *p).collect();
        assert_eq!(pages, [1, 2, 0]);
        let fs: Vec<_> = s
            .false_sharing
            .iter()
            .map(|f| (f.page, f.writers))
            .collect();
        assert_eq!(fs, [(1, (0, 1)), (1, (0, 2)), (2, (2, 3)), (0, (1, 2))]);
        let locks: Vec<_> = s.locks.iter().map(|(l, _)| *l).collect();
        assert_eq!(locks, [2, 3, 1]);

        // With one row per table, each table shows its top entry.
        let mut out = Vec::new();
        s.render(1, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().take(2).collect())
            .collect();
        assert_eq!(rows, [["1", "5"], ["1", "0/1"], ["2", "1"]], "{text}");
    }
}
