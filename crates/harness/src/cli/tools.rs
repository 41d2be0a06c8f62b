//! The gates and tools that are not paper tables: the race-detection
//! gate, the perf-trajectory sweep and the trace exporter, plus the
//! traced side run `trace` and `analyze` share.

use apps::runner::{run_with_cfg_on, tmk_config_for_protocol};
use apps::{AppId, RunResult, Version};
use sp2sim::{Cluster, ClusterConfig, EngineKind, TraceData};
use treadmarks::{race, ProtocolMode, RaceLog, Tmk, TmkConfig};

use super::{read, write, Args, Error, Out, RunSpec};
use crate::bench_sweep::{full_grid, smoke_grid, CellSpec, SCHEMA};
use crate::report::{f1, render_table, Table};
use crate::trace_analysis::{analyze, to_chrome_trace_with_path, validate_chrome_trace};
use crate::{longest_first, sweep_map, Json, SweepDoc};

/// Run `spec` once more with tracing on — and race-detection provenance
/// too when `races` — returning the result, its trace and the number of
/// events the ring buffers dropped (warned about on stderr; a lossy
/// trace makes every derived number a lower bound). Both observers are
/// pure: the simulated results are bit-identical to an untraced run.
pub(super) fn traced_run(s: &RunSpec, races: bool) -> Result<(RunResult, TraceData, u64), Error> {
    let cfg = tmk_config_for_protocol(s.version, s.protocol)
        .with_trace(true)
        .with_race_detection(races);
    let mut r = run_with_cfg_on(s.engine, s.app, s.version, s.nprocs, s.scale, cfg);
    let trace = r
        .trace
        .take()
        .ok_or_else(|| Error::Io("run produced no trace (engine returned none)".into()))?;
    let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        eprintln!(
            "warning: trace dropped {dropped} events (ring-buffer overflow); \
             everything derived from it is a lower bound"
        );
    }
    Ok((r, trace, dropped))
}

/// The race-detection gate: every application under both protocols
/// with detection on must be race-free (the multiple-writer contract,
/// "concurrent intervals write disjoint words", end to end).
/// `--seeded` instead checks that the detector flags a deliberately
/// racy program with the exact writer pair.
pub(super) fn races(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    if a.has("--seeded") {
        return seeded_race(s.engine, out);
    }
    let mut races = 0usize;
    for app in AppId::ALL {
        for protocol in ProtocolMode::ALL {
            let cfg = tmk_config_for_protocol(Version::Spf, protocol).with_race_detection(true);
            let r = run_with_cfg_on(s.engine, app, Version::Spf, s.nprocs, s.scale, cfg);
            let n = r.race_report.len();
            writeln!(
                out,
                "{:<10} {:<5} {} ({n} interval pair{})",
                app.name(),
                protocol.to_string(),
                if n == 0 { "race-free" } else { "RACES" },
                if n == 1 { "" } else { "s" },
            )?;
            for report in &r.race_report {
                writeln!(out, "  {report}")?;
            }
            races += n;
        }
    }
    if races > 0 {
        return Err(Error::Gate(format!(
            "races: {races} racing interval pair(s) found"
        )));
    }
    Ok(writeln!(
        out,
        "races: all applications race-free under both protocols"
    )?)
}

/// Two nodes write word 0 of the same page inside the same barrier
/// epoch — a race by construction. The detector must name page 0,
/// word 0, writers (0, 1).
fn seeded_race(engine: EngineKind, out: Out) -> Result<(), Error> {
    let run = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
        let tmk = Tmk::new(node, TmkConfig::default().with_race_detection(true));
        let a = tmk.malloc_f64(8);
        tmk.write_one(a, 0, (tmk.proc_id() + 1) as f64);
        tmk.barrier(0);
        tmk.finish();
        tmk.take_race_log().expect("detection was on")
    });
    let logs: Vec<RaceLog> = run.results.to_vec();
    let report = race::detect(&logs);
    for r in &report {
        writeln!(out, "{r}")?;
    }
    if !report
        .iter()
        .any(|r| r.page == 0 && r.word == 0 && r.writers == (0, 1))
    {
        return Err(Error::Gate(format!(
            "races --seeded: seeded race NOT detected ({report:?})"
        )));
    }
    Ok(writeln!(
        out,
        "races --seeded: detector flagged the seeded race"
    )?)
}

/// The perf trajectory: every application × protocol × engine × scale ×
/// page-size cell (`--smoke`: the reduced sequential CI grid), written
/// as a `bench_sweep` document to `--out` (default `BENCH_sweep.json`).
/// Positionals are a scale multiplier and nprocs. `--check FILE` runs
/// nothing; it parses and re-derives every aggregate of a document.
pub(super) fn sweep(a: &Args, out: Out) -> Result<(), Error> {
    if let Some(path) = a.get("--check") {
        let doc = SweepDoc::parse(&read(path)?).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        eprintln!("sweep: {path} is a valid {SCHEMA} document");
        return sweep_summary(&doc, out);
    }
    let (s, smoke) = (a.spec, a.has("--smoke"));
    let cells = if smoke {
        smoke_grid(s.nprocs, s.scale)
    } else {
        full_grid(s.nprocs, s.scale)
    };
    eprintln!(
        "sweep: {} cells ({}), nprocs {}, scale x{}",
        cells.len(),
        if smoke { "smoke grid" } else { "full grid" },
        s.nprocs,
        s.scale,
    );
    // Sequential-engine cells fan out across cores, longest expected
    // first; threaded-engine cells each spawn a thread per node already
    // and run one after another.
    let (mut seq, thr): (Vec<CellSpec>, Vec<CellSpec>) = cells
        .iter()
        .partition(|c| c.engine == EngineKind::Sequential);
    longest_first(&mut seq, CellSpec::expected_cost);
    let run = |c: &CellSpec| (c.file_key(), c.run());
    let mut all = sweep_map(EngineKind::Sequential, seq, |c| run(&c));
    all.extend(thr.iter().map(run));
    all.sort_by_key(|(key, _)| *key);
    let doc = SweepDoc {
        cells: all.into_iter().map(|(_, cell)| cell).collect(),
    };
    let path = a.get("--out").unwrap_or("BENCH_sweep.json");
    write(path, &doc.render())?;
    sweep_summary(&doc, out)?;
    eprintln!("sweep: wrote {path}");
    Ok(())
}

fn sweep_summary(doc: &SweepDoc, out: Out) -> Result<(), Error> {
    writeln!(
        out,
        "cells {}  simulated {:.1} s  host {:.1} s  throughput {:.2} sim-s/host-s  arena hit rate {:.1}%",
        doc.cells.len(),
        doc.total_time_us() / 1e6,
        doc.total_wall_us() as f64 / 1e6,
        doc.sims_per_sec(),
        100.0 * doc.arena_hit_rate(),
    )?;
    writeln!(
        out,
        "breakdown: wait {:.1} s  service {:.1} s (virtual, summed over nodes and cells)",
        doc.total_wait_us() / 1e6,
        doc.total_service_us() / 1e6,
    )?;
    writeln!(
        out,
        "causal: critical path {:.1} s (summed over cells)",
        doc.total_critical_path_us() / 1e6,
    )?;
    Ok(())
}

/// Record a virtual-time event trace of one run; `--breakdown` prints
/// the per-node and per-epoch time breakdown, `--out FILE` exports
/// Chrome/Perfetto trace-event JSON (with the critical path as its own
/// process) for `chrome://tracing` or <https://ui.perfetto.dev>.
/// `--check FILE` re-parses an export and checks the Perfetto
/// invariants.
pub(super) fn trace(a: &Args, out: Out) -> Result<(), Error> {
    if let Some(path) = a.get("--check") {
        let json = Json::parse(&read(path)?).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        validate_chrome_trace(&json).map_err(|e| Error::Io(format!("{path}: {e}")))?;
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        return Ok(writeln!(out, "{path}: ok ({events} events)")?);
    }
    let s = a.spec;
    let (r, trace, dropped) = traced_run(&s, false)?;
    let analysis = analyze(&trace);
    writeln!(
        out,
        "{} / {} / {:?}: {} nodes, {} events, virtual time {:.1} us{}",
        s.app.name(),
        s.version.name(),
        s.protocol,
        r.nprocs,
        trace.event_count(),
        r.time_us,
        if dropped > 0 {
            " (LOSSY: ring overflow)"
        } else {
            ""
        },
    )?;
    if a.has("--breakdown") {
        let mut t = Table::new(vec![
            "node", "total_us", "compute", "covered", "wait", "service", "wire", "svc_loop",
        ]);
        for n in &analysis.nodes {
            let times = [
                n.total_us,
                n.compute_us(),
                n.covered_compute_us,
                n.wait_us,
                n.service_us,
                n.wire_us,
                n.svc_track_us,
            ];
            t.row(
                std::iter::once(n.node.to_string())
                    .chain(times.map(f1))
                    .collect(),
            );
        }
        writeln!(
            out,
            "\nPer-node breakdown (virtual us; svc_loop overlaps the rest):\n"
        )?;
        writeln!(out, "{}", render_table(&t))?;
        if !analysis.epochs.is_empty() {
            let mut t = Table::new(vec!["epoch", "compute", "wait", "service", "wire", "spans"]);
            for e in &analysis.epochs {
                let times = [e.compute_us, e.wait_us, e.service_us, e.wire_us].map(f1);
                let cells = std::iter::once(e.index.to_string()).chain(times);
                t.row(cells.chain([e.spans.to_string()]).collect());
            }
            writeln!(out, "Per-epoch breakdown (summed over nodes):\n")?;
            writeln!(out, "{}", render_table(&t))?;
        }
    }
    if let Some(path) = a.get("--out") {
        let cp = crate::critical_path::compute(&trace);
        let json = to_chrome_trace_with_path(&trace, cp.as_ref());
        match validate_chrome_trace(&json) {
            Ok(()) => {}
            // A lossy trace fails validation by design (the
            // dropped-events instant); still write the partial data.
            Err(e) if dropped > 0 && e.contains("dropped") => eprintln!("warning: {e}"),
            Err(e) => return Err(Error::Io(format!("exported trace failed validation: {e}"))),
        }
        write(path, &json.render())?;
        writeln!(
            out,
            "wrote {path} (load in chrome://tracing or https://ui.perfetto.dev)"
        )?;
    }
    Ok(())
}
