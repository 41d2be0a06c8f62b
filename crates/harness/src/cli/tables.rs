//! The paper's tables and figures plus the extension studies, rendered
//! as aligned text — one function per `dsm` command, in `all` order.

use apps::{AppId, RunResult, Version};
use treadmarks::TmkConfig;

use super::{Args, Error, Out, RunSpec};
use crate::baseline::Baseline;
use crate::experiments::{speedup_rows, SpeedupRow};
use crate::report::{f1, f2, render_table, Table};

/// Print a rendered table followed by a blank line.
fn emit(out: Out, t: &Table) -> Result<(), Error> {
    Ok(writeln!(out, "{}", render_table(t))?)
}

/// `lead` followed by one column per [`Version::SWEEP`] version.
fn sweep_header(lead: &[&str]) -> Vec<String> {
    let versions = Version::SWEEP.iter().map(|v| v.name());
    lead.iter()
        .copied()
        .chain(versions)
        .map(Into::into)
        .collect()
}

/// Tables 2 and 3: message totals, then data totals (KB), one row per
/// application and one column per sweep version.
fn totals(rows: &[SpeedupRow]) -> Table {
    let mut t = Table::new(sweep_header(&["", "Program"]));
    for (label, data) in [("Message", false), ("Data", true)] {
        for (k, row) in rows.iter().enumerate() {
            let lead = if k == 0 { label } else { "" };
            let mut cells = vec![lead.to_string(), row.app.name().to_string()];
            let total = |r: &RunResult| if data { r.kbytes } else { r.messages };
            cells.extend(row.results.iter().map(|r| total(r).to_string()));
            t.row(cells);
        }
    }
    t
}

/// The spec a gated command runs at — the baseline's recorded
/// configuration when `--check-baseline` is given — and the baseline.
fn gated(a: &Args, what: &str) -> Result<(RunSpec, Option<Baseline>), Error> {
    let mut spec = a.spec;
    let baseline = a
        .get("--check-baseline")
        .map(|p| Baseline::read(p, what))
        .transpose()?;
    if let Some(b) = &baseline {
        b.pin(&mut spec);
    }
    Ok((spec, baseline))
}

/// Table 1: data-set sizes and sequential execution times.
pub(super) fn table1(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, engine) = (s.scale, s.engine);
    writeln!(
        out,
        "Table 1: Data Set Sizes and Sequential Execution Time (scale {scale})\n"
    )?;
    let mut t = Table::new(vec!["Program", "Problem Size", "Time (sec.)"]);
    for row in crate::table1(scale, engine) {
        t.row(vec![row.app.name().to_string(), row.size, f1(row.secs)]);
    }
    emit(out, &t)
}

/// Figure 1: speedups of the regular applications (SPF/Tmk, hand-coded
/// TreadMarks, XHPF, PVMe).
pub(super) fn figure1(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Figure 1: {nprocs}-Processor Speedups, Regular Applications \
         (scale {scale}, {engine} engine, {protocol} protocol)\n"
    )?;
    let mut t = Table::new(vec!["Program", "SPF/Tmk", "Tmk", "XHPF", "PVMe"]);
    for row in crate::figure1(nprocs, scale, engine, protocol) {
        let mut cells = vec![row.app.name().to_string()];
        cells.extend((0..4).map(|i| f2(row.speedup(i))));
        t.row(cells);
    }
    emit(out, &t)
}

/// Table 2: message and data totals of the regular applications, with
/// the hinted SPF+CRI column folded in.
pub(super) fn table2(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Table 2: {nprocs}-Processor Message Totals and Data Totals (KB), \
         Regular Applications (scale {scale}, {protocol} protocol)\n"
    )?;
    let (apps, versions) = (&AppId::REGULAR, &Version::SWEEP);
    let rows = speedup_rows(apps, versions, nprocs, scale, engine, protocol);
    emit(out, &totals(&rows))
}

/// Figure 2 and Table 3: the irregular applications, with the SPF+CRI
/// (inspector/executor) column and its amortized inspector cost.
pub(super) fn figure2_table3(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    let rows = crate::figure2_table3(nprocs, scale, engine, protocol);
    writeln!(
        out,
        "Figure 2: {nprocs}-Processor Speedups, Irregular Applications (scale {scale})\n"
    )?;
    let mut t = Table::new(sweep_header(&["Program"]));
    for row in &rows {
        let mut cells = vec![row.app.name().to_string()];
        cells.extend((0..Version::SWEEP.len()).map(|i| f2(row.speedup(i))));
        t.row(cells);
    }
    emit(out, &t)?;
    writeln!(
        out,
        "Table 3: Message Totals and Data Totals (KB), Irregular Applications\n"
    )?;
    emit(out, &totals(&rows))?;
    for row in &rows {
        let (cri, spf) = (row.get(Version::SpfCri), row.get(Version::Spf));
        writeln!(
            out,
            "{}: inspector cost {:.4}s amortized over {} schedule reuses \
             ({} inspections); SPF+CRI sends {:.1}% fewer messages than SPF",
            row.app.name(),
            cri.dsm.inspect_us as f64 / 1e6,
            cri.dsm.schedule_reuse,
            cri.dsm.inspections,
            100.0 * (1.0 - cri.messages as f64 / spf.messages.max(1) as f64),
        )?;
    }
    Ok(())
}

/// §5 "Results of Hand Optimizations".
pub(super) fn handopt(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Section 5: Results of Hand Optimizations (scale {scale}, {nprocs} procs)\n"
    )?;
    let mut t = Table::new(vec![
        "Program",
        "Optimization",
        "Base",
        "Optimized",
        "Reference",
        "(vs)",
    ]);
    for r in crate::handopt(nprocs, scale, engine, protocol) {
        t.row(vec![
            r.app.name().to_string(),
            r.what.to_string(),
            f2(r.base),
            f2(r.opt),
            f2(r.reference),
            r.ref_name.to_string(),
        ]);
    }
    emit(out, &t)
}

/// §2.3: the improved fork-join interface (2(n-1) messages per loop)
/// against the original full-barrier scheme (8(n-1)).
pub(super) fn interface_ablation(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Section 2.3: Fork-Join Interface Ablation (scale {scale}, {nprocs} procs)\n"
    )?;
    let mut t = Table::new(vec![
        "Program",
        "Improved msgs",
        "Original msgs",
        "Improved time(s)",
        "Original time(s)",
        "Slowdown",
    ]);
    for (app, imp, orig) in crate::interface_ablation(nprocs, scale, engine, protocol) {
        t.row(vec![
            app.name().to_string(),
            imp.messages.to_string(),
            orig.messages.to_string(),
            f2(imp.time_us / 1e6),
            f2(orig.time_us / 1e6),
            format!("{:.1}%", (orig.time_us / imp.time_us - 1.0) * 100.0),
        ]);
    }
    emit(out, &t)
}

/// The paper's conclusion: SPF vs SPF+CRI vs hand-coded PVMe for all
/// six applications, with the irregular rows' inspector columns. With
/// `--check-baseline FILE` (`scale nprocs max_msgs`), the `--app` row's
/// hinted run (default jacobi) must not exceed `max_msgs` and must stay
/// ≥ 30% below SPF.
pub(super) fn compiler_opt(a: &Args, out: Out) -> Result<(), Error> {
    let (s, baseline) = gated(a, "max_msgs")?;
    if a.has("--app") && baseline.is_none() {
        return Err(Error::Usage(
            "compiler_opt: --app selects the row --check-baseline gates".into(),
        ));
    }
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Compiler-runtime interface: closing the SPF gap (scale {scale}, {nprocs} procs)\n"
    )?;
    let rows = crate::compiler_opt(nprocs, scale, engine, protocol);
    let mut t = Table::new(vec![
        "Program", "Version", "Time (s)", "Speedup", "Msgs", "KBytes", "Insp", "Reuse", "Insp (s)",
    ]);
    for r in &rows {
        for (name, run) in [("SPF", &r.spf), ("SPF+CRI", &r.cri), ("PVMe", &r.mpl)] {
            let mut cells = vec![
                r.app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(r.seq_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
            ];
            if name == "SPF+CRI" && run.dsm.inspections > 0 {
                cells.extend([
                    run.dsm.inspections.to_string(),
                    run.dsm.schedule_reuse.to_string(),
                    f2(r.inspect_secs()),
                ]);
            } else {
                cells.extend(["-", "-", "-"].map(String::from));
            }
            t.row(cells);
        }
    }
    emit(out, &t)?;
    for r in &rows {
        writeln!(
            out,
            "{}: CRI eliminates {:.1}% of SPF's messages \
             (validates {}, pages pushed {}, direct reduces {})",
            r.app.name(),
            100.0 * r.message_reduction(),
            r.cri.dsm.validates,
            r.cri.dsm.pages_pushed,
            r.cri.dsm.direct_reduces,
        )?;
    }
    let Some(b) = baseline else { return Ok(()) };
    let row = rows
        .iter()
        .find(|r| r.app == s.app)
        .ok_or_else(|| Error::Usage(format!("compiler_opt has no {} row", s.app.name())))?;
    let (msgs, reduction) = (row.cri.messages, row.message_reduction());
    writeln!(
        out,
        "\nbaseline check (scale {}, {} procs): hinted {} {msgs} msgs \
         (recorded max {}), reduction {:.1}% (required >= 30%)",
        b.scale,
        b.nprocs,
        row.app.name(),
        b.max_count,
        100.0 * reduction
    )?;
    if msgs > b.max_count || reduction < 0.30 {
        let app = row.app.name();
        return Err(Error::Gate(format!(
            "REGRESSION: hinted {app} message count above baseline"
        )));
    }
    Ok(writeln!(out, "baseline check passed")?)
}

/// LRC vs home-based LRC for the SPF programs: time, messages, bytes,
/// access-miss round trips and eager-flush traffic. With
/// `--check-baseline FILE` (`scale nprocs max_round_trips`), HLRC
/// Jacobi must not exceed `max_round_trips` and must stay strictly
/// below LRC's.
pub(super) fn protocol_compare(a: &Args, out: Out) -> Result<(), Error> {
    let (s, baseline) = gated(a, "max_round_trips")?;
    let (scale, nprocs, engine) = (s.scale, s.nprocs, s.engine);
    writeln!(
        out,
        "Protocol comparison: LRC vs home-based LRC (scale {scale}, {nprocs} procs)\n"
    )?;
    let rows = crate::protocol_compare(nprocs, scale, engine);
    let mut t = Table::new(vec![
        "Program", "Protocol", "Time (s)", "Speedup", "Msgs", "KBytes", "Miss RTs", "Flush KB",
    ]);
    for r in &rows {
        for (name, run) in [("LRC", &r.lrc), ("HLRC", &r.hlrc)] {
            t.row(vec![
                r.app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(r.seq_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                run.miss_round_trips().to_string(),
                (run.flush_bytes() / 1024).to_string(),
            ]);
        }
    }
    emit(out, &t)?;
    for r in &rows {
        writeln!(
            out,
            "{}: HLRC eliminates {:.1}% of LRC's access-miss round trips \
             (pages flushed {}, pages fetched {}, stale flushes dropped {})",
            r.app.name(),
            100.0 * r.round_trip_reduction(),
            r.hlrc.dsm.home_flush_pages,
            r.hlrc.dsm.page_fetches,
            r.hlrc.dsm.stale_flush_drops,
        )?;
    }
    let Some(b) = baseline else { return Ok(()) };
    let jacobi = rows
        .iter()
        .find(|r| r.app == AppId::Jacobi)
        .expect("Jacobi row");
    let (hlrc_rts, lrc_rts) = (
        jacobi.hlrc.miss_round_trips(),
        jacobi.lrc.miss_round_trips(),
    );
    writeln!(
        out,
        "\nbaseline check (scale {}, {} procs): HLRC Jacobi {hlrc_rts} round trips \
         (recorded max {}), LRC {lrc_rts}",
        b.scale, b.nprocs, b.max_count
    )?;
    if hlrc_rts > b.max_count || hlrc_rts >= lrc_rts {
        return Err(Error::Gate(
            "REGRESSION: HLRC Jacobi access-miss round trips above baseline".into(),
        ));
    }
    Ok(writeln!(out, "baseline check passed")?)
}

/// Extension: speedups at 1, 2, 4, ... up to nprocs processors for
/// every application and sweep version.
pub(super) fn scaling(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Scaling study (scale {scale}, up to {nprocs} procs, {protocol} protocol)\n"
    )?;
    let rows = crate::scaling(nprocs, scale, &AppId::ALL, engine, protocol);
    let mut header = vec!["Program".to_string(), "Version".to_string()];
    let counts = (0..).map(|k| 1 << k).take_while(|&np| np <= nprocs);
    header.extend(counts.map(|np| format!("{np}p")));
    let mut t = Table::new(header);
    for r in rows {
        let mut cells = vec![r.app.name().to_string(), r.version.name().to_string()];
        cells.extend(r.points.iter().map(|(_, sp)| f2(*sp)));
        t.row(cells);
    }
    emit(out, &t)
}

/// Extension: sensitivity of hand-coded TreadMarks to the page size
/// (larger pages amortize fault and message overheads but amplify false
/// sharing and transfer volume).
pub(super) fn page_size(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, engine, protocol) = (s.scale, s.nprocs, s.engine, s.protocol);
    writeln!(
        out,
        "Page-size ablation, hand-coded TreadMarks (scale {scale}, {nprocs} procs)\n"
    )?;
    let mut t = Table::new(vec!["Program", "Page", "Speedup", "Messages", "Data KB"]);
    for app in [AppId::Jacobi, AppId::IGrid] {
        let seq = apps::runner::run_on(engine, app, Version::Seq, 1, scale).time_us;
        for page_words in [128usize, 256, 512, 1024, 2048] {
            let cfg = TmkConfig {
                page_words,
                ..TmkConfig::default()
            }
            .with_protocol(protocol);
            let r = apps::runner::run_with_cfg_on(engine, app, Version::Tmk, nprocs, scale, cfg);
            t.row(vec![
                app.name().to_string(),
                format!("{} B", page_words * 8),
                f2(r.speedup_vs(seq)),
                r.messages.to_string(),
                r.kbytes.to_string(),
            ]);
        }
    }
    emit(out, &t)
}
