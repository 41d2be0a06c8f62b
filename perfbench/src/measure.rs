//! Timed passes over a workload's cells, the benchmark's own spans
//! around each call into the program, and the determinism gate.

use crate::oracle;
use crate::workload::{run_seq, Cell, Workload};
use apps::{AppId, RunResult};
use harness::{critical_path, trace_analysis, Json};
use sp2sim::{SplitMix64, StatsSnapshot, TraceData};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use treadmarks::{DsmStats, TmkConfig};

/// One timed call, recorded by the benchmark around a public entry
/// point of the program.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called: `setup`, `seq`, `pass`, `run`, `analyze`,
    /// `critical_path` or a probe.
    pub name: &'static str,
    /// The cell or app the call was for.
    pub label: String,
    /// The span this call ran inside.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one benchmark process, kept in memory until it ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    pub fn begin(&mut self, name: &'static str, label: String, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            label,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), num(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as u64)),
                        ),
                        ("name".into(), Json::Str(s.name.into())),
                        ("label".into(), Json::Str(s.label.clone())),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Everything simulated one run reports: its virtual time, message
/// statistics, DSM counters and checksum. Must repeat bitwise.
#[derive(Clone, Debug)]
pub struct Facts {
    pub time_us: f64,
    pub stats: StatsSnapshot,
    pub dsm: DsmStats,
    pub checksum: Vec<f64>,
    /// `RunResult::miss_round_trips` (derived from `stats`).
    pub miss_round_trips: u64,
    /// `RunResult::flush_bytes` (derived from `stats`).
    pub flush_bytes: u64,
}

impl Facts {
    pub fn of(r: &RunResult) -> Facts {
        Facts {
            time_us: r.time_us,
            stats: r.stats,
            dsm: r.dsm,
            checksum: r.checksum.clone(),
            miss_round_trips: r.miss_round_trips(),
            flush_bytes: r.flush_bytes(),
        }
    }

    /// The first field that differs bitwise from `other`, if any.
    pub fn drift(&self, other: &Facts) -> Option<&'static str> {
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if self.time_us.to_bits() != other.time_us.to_bits() {
            Some("time_us")
        } else if self.stats != other.stats {
            Some("message stats")
        } else if self.dsm != other.dsm {
            Some("DSM counters")
        } else if bits(&self.checksum) != bits(&other.checksum) {
            Some("checksum")
        } else {
            None
        }
    }
}

/// What the harness's analyzers derive from one trace. Virtual
/// quantities, so they must repeat bitwise too.
#[derive(Clone, Debug)]
pub struct TraceFacts {
    pub events: u64,
    pub compute_us: f64,
    pub wait_us: f64,
    pub service_us: f64,
    pub wire_us: f64,
    /// Share of the critical path not spent computing; `None` when the
    /// trace yields no path.
    pub cp_wait_share: Option<f64>,
}

impl TraceFacts {
    fn of(data: &TraceData, a: &trace_analysis::TraceAnalysis, cp: Option<f64>) -> TraceFacts {
        TraceFacts {
            events: data.event_count() as u64,
            compute_us: a.nodes.iter().map(|n| n.compute_us()).sum(),
            wait_us: a.wait_us(),
            service_us: a.service_us(),
            wire_us: a.wire_us(),
            cp_wait_share: cp,
        }
    }

    fn same(&self, other: &TraceFacts) -> bool {
        let bits = |t: &TraceFacts| {
            (
                t.events,
                [t.compute_us, t.wait_us, t.service_us, t.wire_us].map(f64::to_bits),
                t.cp_wait_share.map(f64::to_bits),
            )
        };
        bits(self) == bits(other)
    }
}

/// How a run ended, judged against the Seq reference.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Ok,
    /// The checksum disagrees with Seq beyond the app's tolerance.
    Mismatch {
        max_rel_diff: f64,
    },
    /// The run panicked (the sequential engine also panics on deadlock).
    Panicked(String),
}

/// One run of one cell in one pass.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub cell: Cell,
    /// Host seconds of the `run_with_cfg_on` call.
    pub host_s: f64,
    /// Host seconds of `trace_analysis::analyze` plus
    /// `critical_path::compute` on the run's trace (0 when untraced).
    pub analyze_s: f64,
    pub outcome: Outcome,
    /// `None` when the run panicked.
    pub facts: Option<Facts>,
    pub trace: Option<TraceFacts>,
}

impl RunRecord {
    /// Judge a finished (or panicked) run against its Seq checksum.
    pub fn judge(
        cell: Cell,
        host_s: f64,
        result: &Result<RunResult, String>,
        reference: &[f64],
    ) -> RunRecord {
        let (outcome, facts) = match result {
            Ok(r) if oracle::matches(cell.app, &r.checksum, reference) => {
                (Outcome::Ok, Some(Facts::of(r)))
            }
            Ok(r) => {
                let max_rel_diff = if r.checksum.len() == reference.len() {
                    oracle::max_rel_diff(&r.checksum, reference)
                } else {
                    f64::INFINITY
                };
                (Outcome::Mismatch { max_rel_diff }, Some(Facts::of(r)))
            }
            Err(msg) => (Outcome::Panicked(msg.clone()), None),
        };
        RunRecord {
            cell,
            host_s,
            analyze_s: 0.0,
            outcome,
            facts,
            trace: None,
        }
    }

    pub fn failed(&self) -> bool {
        self.outcome != Outcome::Ok
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Seq reference outputs of a workload's apps. The benchmark builds them
/// several times over a run; every build must agree with the first.
#[derive(Default)]
pub struct References {
    pub seq: Vec<(AppId, Facts)>,
    /// Host seconds of each build (all apps' Seq runs).
    pub setup_s: Vec<f64>,
    /// Builds whose Seq output differed from the first.
    pub drift: Vec<String>,
}

impl References {
    /// Build the references `reps` more times.
    pub fn build(&mut self, w: Workload, reps: usize, spans: &mut Spans) {
        for _ in 0..reps {
            let build = self.setup_s.len();
            let setup = spans.begin("setup", w.name().into(), None);
            for &app in w.apps() {
                let id = spans.begin("seq", app.name().into(), Some(setup));
                let facts = Facts::of(&run_seq(app, w.scale()));
                spans.end(id);
                match self.seq.iter().find(|(a, _)| *a == app) {
                    None => self.seq.push((app, facts)),
                    Some((_, first)) => {
                        if let Some(field) = first.drift(&facts) {
                            let name = app.name();
                            self.drift
                                .push(format!("{name} Seq build {build}: {field}"));
                        }
                    }
                }
            }
            self.setup_s.push(spans.end(setup));
        }
    }

    pub fn get(&self, app: AppId) -> &Facts {
        &self
            .seq
            .iter()
            .find(|(a, _)| *a == app)
            .expect("reference built")
            .1
    }
}

/// One pass: every cell of the workload once, in a seeded order.
pub struct Pass {
    pub traced: bool,
    /// Records in the workload's canonical cell order (not run order).
    pub records: Vec<RunRecord>,
}

impl Pass {
    pub fn run(
        w: Workload,
        refs: &References,
        traced: bool,
        order: &[usize],
        spans: &mut Spans,
    ) -> Pass {
        let cells = w.cells();
        let kind = if traced { "traced" } else { "untraced" };
        let pass = spans.begin("pass", format!("{} {kind}", w.name()), None);
        let mut records: Vec<Option<RunRecord>> = vec![None; cells.len()];
        for &i in order {
            let cell = cells[i];
            let cfg = TmkConfig::default().with_trace(traced);
            let id = spans.begin("run", cell.label(), Some(pass));
            let result =
                catch_unwind(AssertUnwindSafe(|| cell.run(w.scale(), cfg))).map_err(panic_message);
            let host_s = spans.end(id);
            let mut rec = RunRecord::judge(cell, host_s, &result, &refs.get(cell.app).checksum);
            if let Some(data) = result.as_ref().ok().and_then(|r| r.trace.as_ref()) {
                let id = spans.begin("analyze", cell.label(), Some(pass));
                let a = trace_analysis::analyze(data);
                rec.analyze_s = spans.end(id);
                let id = spans.begin("critical_path", cell.label(), Some(pass));
                let cp = critical_path::compute(data).map(|cp| cp.wait_share());
                rec.analyze_s += spans.end(id);
                rec.trace = Some(TraceFacts::of(data, &a, cp));
            }
            records[i] = Some(rec);
        }
        spans.end(pass);
        Pass {
            traced,
            records: records
                .into_iter()
                .map(|r| r.expect("order covers every cell"))
                .collect(),
        }
    }

    /// Host seconds of the pass: runs plus trace analysis.
    pub fn host_s(&self) -> f64 {
        self.records.iter().map(|r| r.host_s + r.analyze_s).sum()
    }

    /// Host seconds of the runs alone that satisfy `pred`.
    pub fn run_host_s(&self, pred: impl Fn(&Cell) -> bool) -> f64 {
        self.records
            .iter()
            .filter(|r| pred(&r.cell))
            .map(|r| r.host_s)
            .sum()
    }
}

/// The run order of pass `index`: a permutation of `0..n` drawn from
/// `seed`. The seed changes nothing else.
pub fn run_order(n: usize, seed: u64, index: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The determinism gate: every cell's simulated facts must be bitwise
/// identical across all passes, traced or not, and its trace facts
/// across all traced passes. Returns one line per drift.
pub fn drift(passes: &[Pass]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(first) = passes.first() else {
        return out;
    };
    let first_traced = passes.iter().find(|p| p.traced);
    for (k, pass) in passes.iter().enumerate() {
        for (i, rec) in pass.records.iter().enumerate() {
            let label = rec.cell.label();
            match (&first.records[i].facts, &rec.facts) {
                (Some(a), Some(b)) => {
                    if let Some(field) = a.drift(b) {
                        out.push(format!(
                            "{label}: {field} differs between pass 0 and pass {k}"
                        ));
                    }
                }
                (None, None) => {}
                _ => out.push(format!(
                    "{label}: panicked in only one of pass 0 and pass {k}"
                )),
            }
            let reference = first_traced.and_then(|p| p.records[i].trace.as_ref());
            if let (Some(a), Some(b)) = (reference, &rec.trace) {
                if !a.same(b) {
                    out.push(format!("{label}: trace analysis differs in pass {k}"));
                }
            }
        }
    }
    out
}
