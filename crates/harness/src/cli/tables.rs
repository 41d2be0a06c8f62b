//! The paper's tables and figures plus the extension studies, rendered
//! as aligned text — one function per `dsm` command, in `all` order.
//! Each command lists the simulations it needs as jobs, runs them with
//! [`run_jobs`] and renders the results.

use apps::runner::{run_with_cfg_on, tmk_config_for_protocol};
use apps::{AppId, RunResult, Version};
use treadmarks::{ProtocolMode, TmkConfig};

use super::{Args, Error, Out, RunSpec};
use crate::baseline::Baseline;
use crate::report::{f1, f2, render_table, Table};
use crate::sweep::sweep_map;

/// One simulation: application, version, processor count and DSM
/// configuration.
type Job = (AppId, Version, usize, TmkConfig);

/// `app` in version `v` on `nprocs` processors, in the configuration
/// the version runs with under `s.protocol`.
fn job(s: &RunSpec, app: AppId, v: Version, nprocs: usize) -> Job {
    (app, v, nprocs, tmk_config_for_protocol(v, s.protocol))
}

/// Run `jobs` at `s`'s scale on `s`'s engine, in parallel where the
/// engine allows (see [`sweep_map`]); results come back in job order.
fn run_jobs(s: &RunSpec, jobs: Vec<Job>) -> Vec<RunResult> {
    sweep_map(s.engine, jobs, |(app, v, np, cfg)| {
        run_with_cfg_on(s.engine, app, v, np, s.scale, cfg)
    })
}

/// For each of `apps`, its sequential baseline and then `versions` on
/// `s.nprocs` processors: one chunk of `1 + versions.len()` results per
/// application.
fn with_baseline(s: &RunSpec, apps: &[AppId], versions: &[Version]) -> Vec<RunResult> {
    let mut jobs = Vec::new();
    for &app in apps {
        jobs.push(job(s, app, Version::Seq, 1));
        jobs.extend(versions.iter().map(|&v| job(s, app, v, s.nprocs)));
    }
    run_jobs(s, jobs)
}

/// Fraction of `base`'s count that `new` eliminated (0 when `base` is
/// 0; negative when `new` is larger).
fn reduction(new: u64, base: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    1.0 - new as f64 / base as f64
}

/// Workload descriptions, matching the paper's Table 1.
fn size_desc(app: AppId, scale: f64) -> String {
    match app {
        AppId::Jacobi => {
            let p = apps::jacobi::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Shallow => {
            let p = apps::shallow::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Mgs => {
            let p = apps::mgs::params(scale);
            format!("{0} x {0}", p.n)
        }
        AppId::Fft3d => {
            let p = apps::fft3d::params(scale);
            format!("{}x{}x{}, {} iterations", p.n1, p.n2, p.n3, p.iters)
        }
        AppId::IGrid => {
            let p = apps::igrid::params(scale);
            format!("{}, {} iterations", p.n, p.iters)
        }
        AppId::Nbf => {
            let p = apps::nbf::params(scale);
            format!("{} molecules, {} iterations", p.m, p.iters)
        }
    }
}

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

/// Figures 1 and 2: one row per application, its speedup in each
/// version of its [`with_baseline`] chunk.
fn speedups(header: Vec<String>, apps: &[AppId], results: &[RunResult]) -> Table {
    let mut t = Table::new(header);
    for (app, runs) in apps.iter().zip(results.chunks(results.len() / apps.len())) {
        let mut cells = vec![app.name().to_string()];
        cells.extend(runs[1..].iter().map(|r| f2(r.speedup_vs(runs[0].time_us))));
        t.row(cells);
    }
    t
}

/// Tables 2 and 3: message totals, then data totals (KB), one row per
/// application and one column per sweep version, from
/// [`with_baseline`] results over [`Version::SWEEP`].
fn totals(apps: &[AppId], results: &[RunResult]) -> Table {
    let mut t = Table::new(sweep_header(&["", "Program"]));
    for (label, data) in [("Message", false), ("Data", true)] {
        let per_app = results.chunks(1 + Version::SWEEP.len());
        for (k, (app, runs)) in apps.iter().zip(per_app).enumerate() {
            let lead = if k == 0 { label } else { "" };
            let mut cells = vec![lead.to_string(), app.name().to_string()];
            let total = |r: &RunResult| if data { r.kbytes } else { r.messages };
            cells.extend(runs[1..].iter().map(|r| total(r).to_string()));
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
    let s = &a.spec;
    writeln!(
        out,
        "Table 1: Data Set Sizes and Sequential Execution Time (scale {})\n",
        s.scale
    )?;
    let mut t = Table::new(vec!["Program", "Problem Size", "Time (sec.)"]);
    for (app, r) in AppId::ALL.iter().zip(with_baseline(s, &AppId::ALL, &[])) {
        let secs = f1(r.time_us / 1e6);
        t.row(vec![app.name().to_string(), size_desc(*app, s.scale), secs]);
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
    let header = ["Program", "SPF/Tmk", "Tmk", "XHPF", "PVMe"].map(String::from);
    let results = with_baseline(&s, &AppId::REGULAR, &Version::FIGURE);
    emit(out, &speedups(header.to_vec(), &AppId::REGULAR, &results))
}

/// Table 2: message and data totals of the regular applications, with
/// the hinted SPF+CRI column folded in.
pub(super) fn table2(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, protocol) = (s.scale, s.nprocs, s.protocol);
    writeln!(
        out,
        "Table 2: {nprocs}-Processor Message Totals and Data Totals (KB), \
         Regular Applications (scale {scale}, {protocol} protocol)\n"
    )?;
    let results = with_baseline(&s, &AppId::REGULAR, &Version::SWEEP);
    emit(out, &totals(&AppId::REGULAR, &results))
}

/// Figure 2 and Table 3: the irregular applications, with the SPF+CRI
/// (inspector/executor) column and its amortized inspector cost.
pub(super) fn figure2_table3(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs) = (s.scale, s.nprocs);
    let apps = &AppId::IRREGULAR;
    let results = with_baseline(&s, apps, &Version::SWEEP);
    writeln!(
        out,
        "Figure 2: {nprocs}-Processor Speedups, Irregular Applications (scale {scale})\n"
    )?;
    emit(out, &speedups(sweep_header(&["Program"]), apps, &results))?;
    writeln!(
        out,
        "Table 3: Message Totals and Data Totals (KB), Irregular Applications\n"
    )?;
    emit(out, &totals(apps, &results))?;
    for (app, runs) in apps.iter().zip(results.chunks(1 + Version::SWEEP.len())) {
        // Version::SWEEP starts with SPF/Tmk and SPF+CRI.
        let (spf, cri) = (&runs[1], &runs[2]);
        writeln!(
            out,
            "{}: inspector cost {:.4}s amortized over {} schedule reuses \
             ({} inspections); SPF+CRI sends {:.1}% fewer messages than SPF",
            app.name(),
            cri.dsm.inspect_us as f64 / 1e6,
            cri.dsm.schedule_reuse,
            cri.dsm.inspections,
            100.0 * (1.0 - cri.messages as f64 / spf.messages.max(1) as f64),
        )?;
    }
    Ok(())
}

/// §5 "Results of Hand Optimizations": per application, the optimized
/// version, the version the paper optimized and the reference it
/// compares against.
const HANDOPT: [(AppId, &str, Version, Version, &str); 4] = [
    (
        AppId::Jacobi,
        "SPF + data aggregation",
        Version::Spf,
        Version::Pvme,
        "PVMe",
    ),
    (
        AppId::Shallow,
        "SPF + merged loops + aggregation",
        Version::Spf,
        Version::Tmk,
        "Tmk",
    ),
    (
        AppId::Mgs,
        "Tmk + broadcast, merged sync+data",
        Version::Tmk,
        Version::Pvme,
        "PVMe",
    ),
    (
        AppId::Fft3d,
        "SPF + data aggregation",
        Version::Spf,
        Version::Pvme,
        "PVMe",
    ),
];

/// §5 "Results of Hand Optimizations", plus the compiler-described
/// counterpart of MGS's §5.3 broadcast: the CRI triangular sections and
/// the master's sequential-producer declaration push the pivot with the
/// rendezvous, compared against the hand broadcast it imitates.
pub(super) fn handopt(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs) = (s.scale, s.nprocs);
    writeln!(
        out,
        "Section 5: Results of Hand Optimizations (scale {scale}, {nprocs} procs)\n"
    )?;
    let mut jobs = Vec::new();
    for (app, _, base, reference, _) in HANDOPT {
        jobs.push(job(&s, app, Version::Seq, 1));
        let versions = [base, Version::HandOpt, reference];
        jobs.extend(versions.map(|v| job(&s, app, v, nprocs)));
    }
    jobs.extend([Version::Spf, Version::SpfCri].map(|v| job(&s, AppId::Mgs, v, nprocs)));
    let results = run_jobs(&s, jobs);
    let (runs, mgs_cri) = results.split_at(4 * HANDOPT.len());
    let mut t = Table::new(vec![
        "Program",
        "Optimization",
        "Base",
        "Optimized",
        "Reference",
        "(vs)",
    ]);
    for ((app, what, _, _, ref_name), runs) in HANDOPT.iter().zip(runs.chunks(4)) {
        let mut row = |what: &str, [base, opt, reference]: [&RunResult; 3], ref_name: &str| {
            let speedup = |r: &RunResult| f2(r.speedup_vs(runs[0].time_us));
            t.row(vec![
                app.name().to_string(),
                what.to_string(),
                speedup(base),
                speedup(opt),
                speedup(reference),
                ref_name.to_string(),
            ]);
        };
        row(what, [&runs[1], &runs[2], &runs[3]], ref_name);
        if *app == AppId::Mgs {
            let what = "SPF + CRI pivot push (triangular sections)";
            row(what, [&mgs_cri[0], &mgs_cri[1], &runs[2]], "Tmk+bcast");
        }
    }
    emit(out, &t)
}

/// §2.3: the improved fork-join interface (2(n-1) messages per loop)
/// against the original full-barrier scheme (8(n-1)), on the SPF
/// versions.
pub(super) fn interface_ablation(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, protocol) = (s.scale, s.nprocs, s.protocol);
    writeln!(
        out,
        "Section 2.3: Fork-Join Interface Ablation (scale {scale}, {nprocs} procs)\n"
    )?;
    let apps = [AppId::Jacobi, AppId::Fft3d];
    let mut jobs = Vec::new();
    for app in apps {
        for cfg in [TmkConfig::default(), TmkConfig::legacy_forkjoin()] {
            jobs.push((app, Version::Spf, nprocs, cfg.with_protocol(protocol)));
        }
    }
    let mut t = Table::new(vec![
        "Program",
        "Improved msgs",
        "Original msgs",
        "Improved time(s)",
        "Original time(s)",
        "Slowdown",
    ]);
    for (app, runs) in apps.iter().zip(run_jobs(&s, jobs).chunks(2)) {
        let (imp, orig) = (&runs[0], &runs[1]);
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

/// The paper's conclusion: SPF vs SPF+CRI (regular-section hints driving
/// aggregated validate, barrier-time push and direct reduction; the
/// inspector/executor for the irregular apps) vs hand-coded PVMe for all
/// six applications, with the irregular rows' amortized inspector
/// columns. With `--check-baseline FILE` (`scale nprocs max_msgs`), the
/// `--app` row's hinted run (default jacobi) must not exceed `max_msgs`
/// and must stay ≥ 30% below SPF.
pub(super) fn compiler_opt(a: &Args, out: Out) -> Result<(), Error> {
    let (s, baseline) = gated(a, "max_msgs")?;
    if a.has("--app") && baseline.is_none() {
        return Err(Error::Usage(
            "compiler_opt: --app selects the row --check-baseline gates".into(),
        ));
    }
    let (scale, nprocs) = (s.scale, s.nprocs);
    writeln!(
        out,
        "Compiler-runtime interface: closing the SPF gap (scale {scale}, {nprocs} procs)\n"
    )?;
    let versions = [Version::Spf, Version::SpfCri, Version::Pvme];
    let results = with_baseline(&s, &AppId::ALL, &versions);
    let per_app = || AppId::ALL.iter().zip(results.chunks(4));
    let mut t = Table::new(vec![
        "Program", "Version", "Time (s)", "Speedup", "Msgs", "KBytes", "Insp", "Reuse", "Insp (s)",
    ]);
    for (app, runs) in per_app() {
        for (name, run) in ["SPF", "SPF+CRI", "PVMe"].iter().zip(&runs[1..]) {
            let mut cells = vec![
                app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(runs[0].time_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
            ];
            if *name == "SPF+CRI" && run.dsm.inspections > 0 {
                cells.extend([
                    run.dsm.inspections.to_string(),
                    run.dsm.schedule_reuse.to_string(),
                    f2(run.dsm.inspect_us as f64 / 1e6),
                ]);
            } else {
                cells.extend(["-", "-", "-"].map(String::from));
            }
            t.row(cells);
        }
    }
    emit(out, &t)?;
    for (app, runs) in per_app() {
        let cri = &runs[2].dsm;
        writeln!(
            out,
            "{}: CRI eliminates {:.1}% of SPF's messages \
             (validates {}, pages pushed {}, direct reduces {})",
            app.name(),
            100.0 * reduction(runs[2].messages, runs[1].messages),
            cri.validates,
            cri.pages_pushed,
            cri.direct_reduces,
        )?;
    }
    let Some(b) = baseline else { return Ok(()) };
    let (app, runs) = per_app()
        .find(|(app, _)| **app == s.app)
        .ok_or_else(|| Error::Usage(format!("compiler_opt has no {} row", s.app.name())))?;
    let msgs = runs[2].messages;
    let cut = reduction(msgs, runs[1].messages);
    writeln!(
        out,
        "\nbaseline check (scale {}, {} procs): hinted {} {msgs} msgs \
         (recorded max {}), reduction {:.1}% (required >= 30%)",
        b.scale,
        b.nprocs,
        app.name(),
        b.max_count,
        100.0 * cut
    )?;
    if msgs > b.max_count || cut < 0.30 {
        let app = app.name();
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
    let (scale, nprocs) = (s.scale, s.nprocs);
    writeln!(
        out,
        "Protocol comparison: LRC vs home-based LRC (scale {scale}, {nprocs} procs)\n"
    )?;
    let mut jobs = Vec::new();
    for app in AppId::REGULAR {
        jobs.push(job(&s, app, Version::Seq, 1));
        for protocol in ProtocolMode::ALL {
            jobs.push(job(&RunSpec { protocol, ..s }, app, Version::Spf, nprocs));
        }
    }
    let results = run_jobs(&s, jobs);
    let per_app = || AppId::REGULAR.iter().zip(results.chunks(3));
    let mut t = Table::new(vec![
        "Program", "Protocol", "Time (s)", "Speedup", "Msgs", "KBytes", "Miss RTs", "Flush KB",
    ]);
    for (app, runs) in per_app() {
        for (name, run) in ["LRC", "HLRC"].iter().zip(&runs[1..]) {
            t.row(vec![
                app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(runs[0].time_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                run.miss_round_trips().to_string(),
                (run.flush_bytes() / 1024).to_string(),
            ]);
        }
    }
    emit(out, &t)?;
    for (app, runs) in per_app() {
        let (lrc, hlrc) = (&runs[1], &runs[2]);
        writeln!(
            out,
            "{}: HLRC eliminates {:.1}% of LRC's access-miss round trips \
             (pages flushed {}, pages fetched {}, stale flushes dropped {})",
            app.name(),
            100.0 * reduction(hlrc.miss_round_trips(), lrc.miss_round_trips()),
            hlrc.dsm.home_flush_pages,
            hlrc.dsm.page_fetches,
            hlrc.dsm.stale_flush_drops,
        )?;
    }
    let Some(b) = baseline else { return Ok(()) };
    // Jacobi is the first regular application.
    let (hlrc_rts, lrc_rts) = (results[2].miss_round_trips(), results[1].miss_round_trips());
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
    let (scale, nprocs, protocol) = (s.scale, s.nprocs, s.protocol);
    writeln!(
        out,
        "Scaling study (scale {scale}, up to {nprocs} procs, {protocol} protocol)\n"
    )?;
    let counts: Vec<usize> = (0..)
        .map(|k| 1 << k)
        .take_while(|&np| np <= nprocs)
        .collect();
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        jobs.push(job(&s, app, Version::Seq, 1));
        for v in Version::SWEEP {
            jobs.extend(counts.iter().map(|&np| job(&s, app, v, np)));
        }
    }
    let mut header = vec!["Program".to_string(), "Version".to_string()];
    header.extend(counts.iter().map(|np| format!("{np}p")));
    let mut t = Table::new(header);
    let per_app = 1 + Version::SWEEP.len() * counts.len();
    for (app, runs) in AppId::ALL.iter().zip(run_jobs(&s, jobs).chunks(per_app)) {
        let seq_us = runs[0].time_us;
        for (v, points) in Version::SWEEP.iter().zip(runs[1..].chunks(counts.len())) {
            let mut cells = vec![app.name().to_string(), v.name().to_string()];
            cells.extend(points.iter().map(|r| f2(r.speedup_vs(seq_us))));
            t.row(cells);
        }
    }
    emit(out, &t)
}

/// Extension: sensitivity of hand-coded TreadMarks to the page size
/// (larger pages amortize fault and message overheads but amplify false
/// sharing and transfer volume).
pub(super) fn page_size(a: &Args, out: Out) -> Result<(), Error> {
    let s = a.spec;
    let (scale, nprocs, protocol) = (s.scale, s.nprocs, s.protocol);
    writeln!(
        out,
        "Page-size ablation, hand-coded TreadMarks (scale {scale}, {nprocs} procs)\n"
    )?;
    let (apps, page_words) = (
        [AppId::Jacobi, AppId::IGrid],
        [128usize, 256, 512, 1024, 2048],
    );
    let mut jobs = Vec::new();
    for app in apps {
        jobs.push(job(&s, app, Version::Seq, 1));
        jobs.extend(page_words.map(|page_words| {
            let cfg = TmkConfig {
                page_words,
                ..TmkConfig::default()
            };
            (app, Version::Tmk, nprocs, cfg.with_protocol(protocol))
        }));
    }
    let mut t = Table::new(vec!["Program", "Page", "Speedup", "Messages", "Data KB"]);
    for (app, runs) in apps.iter().zip(run_jobs(&s, jobs).chunks(6)) {
        for (page_words, r) in page_words.iter().zip(&runs[1..]) {
            t.row(vec![
                app.name().to_string(),
                format!("{} B", page_words * 8),
                f2(r.speedup_vs(runs[0].time_us)),
                r.messages.to_string(),
                r.kbytes.to_string(),
            ]);
        }
    }
    emit(out, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::EngineKind;

    fn spec(nprocs: usize, protocol: ProtocolMode) -> RunSpec {
        RunSpec {
            app: AppId::Jacobi,
            version: Version::Spf,
            protocol,
            engine: EngineKind::Sequential,
            scale: 0.03,
            nprocs,
        }
    }

    #[test]
    fn table1_covers_all_apps() {
        let s = spec(1, ProtocolMode::Lrc);
        let results = with_baseline(&s, &AppId::ALL, &[]);
        assert_eq!(results.len(), 6);
        for (app, r) in AppId::ALL.iter().zip(&results) {
            assert!(r.time_us > 0.0, "{app:?} has positive sequential time");
            assert!(!size_desc(*app, s.scale).is_empty());
        }
    }

    #[test]
    fn compiler_opt_covers_all_apps_and_reduces_messages() {
        let versions = [Version::Spf, Version::SpfCri, Version::Pvme];
        for protocol in ProtocolMode::ALL {
            let results = with_baseline(&spec(4, protocol), &AppId::ALL, &versions);
            assert_eq!(results.len(), 6 * 4);
            for (app, runs) in AppId::ALL.iter().zip(results.chunks(4)) {
                let (spf, cri) = (&runs[1], &runs[2]);
                assert!(runs[0].time_us > 0.0);
                assert!(
                    cri.messages < spf.messages,
                    "{protocol}/{app:?}: cri {} vs spf {}",
                    cri.messages,
                    spf.messages
                );
                assert!(reduction(cri.messages, spf.messages) > 0.0);
                // The irregular rows amortize a real, nonzero inspector cost.
                if AppId::IRREGULAR.contains(app) {
                    assert!(cri.dsm.inspections > 0, "{app:?}");
                    assert!(cri.dsm.schedule_reuse > 0, "{app:?}");
                    assert!(cri.dsm.inspect_us > 0, "{app:?}");
                }
            }
        }
    }

    #[test]
    fn baseline_chunks_follow_the_version_order() {
        let s = spec(2, ProtocolMode::Lrc);
        let results = with_baseline(&s, &AppId::IRREGULAR, &Version::SWEEP);
        let per_app = 1 + Version::SWEEP.len();
        assert_eq!(results.len(), 2 * per_app);
        for runs in results.chunks(per_app) {
            assert_eq!(runs[0].version, Version::Seq);
            for (r, v) in runs[1..].iter().zip(Version::SWEEP) {
                assert_eq!(r.version, v);
                assert!(r.speedup_vs(runs[0].time_us) > 0.0);
            }
        }
    }

    #[test]
    fn protocol_compare_shape() {
        let s = spec(4, ProtocolMode::Lrc);
        let jobs = AppId::REGULAR.iter().flat_map(|&app| {
            ProtocolMode::ALL.map(|protocol| job(&RunSpec { protocol, ..s }, app, Version::Spf, 4))
        });
        let results = run_jobs(&s, jobs.collect());
        assert_eq!(results.len(), 4 * 2);
        for (app, runs) in AppId::REGULAR.iter().zip(results.chunks(2)) {
            let (lrc, hlrc) = (&runs[0], &runs[1]);
            assert_eq!(lrc.checksum, hlrc.checksum, "{app:?}: protocols must agree");
            assert!(
                hlrc.miss_round_trips() < lrc.miss_round_trips(),
                "{app:?}: HLRC {} vs LRC {} round trips",
                hlrc.miss_round_trips(),
                lrc.miss_round_trips()
            );
            assert!(hlrc.flush_bytes() > 0, "{app:?}: eager flushes");
            assert_eq!(lrc.flush_bytes(), 0);
        }
    }
}
