//! Self-tests of the benchmark: the checksum oracle counts a perturbed
//! result as failed, the determinism gate reports drift, and the
//! benchmark's call path reproduces committed `BENCH_sweep.json` cells.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use apps::{AppId, Version};
use harness::SweepDoc;
use perfbench::measure::{self, Outcome, Pass, References, RunRecord};
use perfbench::metrics;
use perfbench::workload::{run_seq, Cell, Workload, NPROCS};
use sp2sim::EngineKind;
use treadmarks::{ProtocolMode, TmkConfig};

const SCALE: f64 = 0.05;

fn cell(app: AppId, version: Version) -> Cell {
    Cell {
        app,
        version,
        protocol: ProtocolMode::Lrc,
    }
}

fn record(c: Cell, reference: &[f64], perturb: impl Fn(&mut Vec<f64>)) -> RunRecord {
    let mut r = c.run(SCALE, TmkConfig::default());
    perturb(&mut r.checksum);
    RunRecord::judge(c, 0.0, &Ok(r), reference)
}

#[test]
fn perturbed_checksum_is_counted_as_failed() {
    // Jacobi is compared bitwise: one ulp fails. 3-D FFT has a 1e-9
    // relative tolerance: 1e-6 fails, 1e-12 passes.
    let jacobi = cell(AppId::Jacobi, Version::Spf);
    let fft = cell(AppId::Fft3d, Version::Tmk);
    let jacobi_ref = run_seq(AppId::Jacobi, SCALE);
    let fft_ref = run_seq(AppId::Fft3d, SCALE);
    let ulp = |c: &mut Vec<f64>| c[0] = f64::from_bits(c[0].to_bits() + 1);
    let scale_by = |k: f64| move |c: &mut Vec<f64>| c[0] *= 1.0 + k;

    let records = vec![
        record(jacobi, &jacobi_ref.checksum, |_| {}),
        record(jacobi, &jacobi_ref.checksum, ulp),
        record(fft, &fft_ref.checksum, scale_by(1e-12)),
        record(fft, &fft_ref.checksum, scale_by(1e-6)),
    ];
    let failed: Vec<bool> = records.iter().map(RunRecord::failed).collect();
    assert_eq!(failed, [false, true, false, true]);
    assert!(
        matches!(records[3].outcome, Outcome::Mismatch { max_rel_diff } if max_rel_diff > 1e-9)
    );

    // The failures reach the end-to-end `ok_share`.
    let refs = References {
        seq: vec![
            (AppId::Jacobi, measure::Facts::of(&jacobi_ref)),
            (AppId::Fft3d, measure::Facts::of(&fft_ref)),
        ],
        ..References::default()
    };
    let pass = Pass {
        traced: false,
        records,
    };
    let m = metrics::end_to_end(&refs, &[pass]);
    let ok_share = m.iter().find(|m| m.name == "ok_share").unwrap().value;
    assert_eq!(ok_share, 0.5);
}

#[test]
fn determinism_gate_reports_drift() {
    let c = cell(AppId::Jacobi, Version::Tmk);
    let reference = run_seq(AppId::Jacobi, SCALE).checksum;
    let pass = || Pass {
        traced: false,
        records: vec![record(c, &reference, |_| {})],
    };
    let mut passes = vec![pass(), pass()];
    assert!(
        measure::drift(&passes).is_empty(),
        "{:?}",
        measure::drift(&passes)
    );
    passes[1].records[0].facts.as_mut().unwrap().time_us += 1e-9;
    let drift = measure::drift(&passes);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].contains("time_us"), "{drift:?}");
}

#[test]
fn traced_and_untraced_runs_agree_bitwise() {
    let c = Cell {
        app: AppId::Mgs,
        version: Version::Spf,
        protocol: ProtocolMode::Hlrc,
    };
    let facts = |trace| measure::Facts::of(&c.run(SCALE, TmkConfig::default().with_trace(trace)));
    assert_eq!(facts(false).drift(&facts(true)), None);
}

/// The committed trajectory's sequential cells, reproduced through the
/// benchmark's own `Cell::run`: simulated time, messages and bytes
/// must match bitwise.
#[test]
fn reproduces_committed_trajectory_cells() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sweep.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_sweep.json");
    let doc = SweepDoc::parse(&text).expect("valid trajectory");
    let mut checked = 0;
    // One sequential cell per app at the smallest scale, alternating
    // protocol and page size so both paths are covered.
    for (i, app) in AppId::ALL.into_iter().enumerate() {
        let protocol = ProtocolMode::ALL[i % 2];
        let page_words = [256, 512][(i / 2) % 2];
        let want = doc
            .cells
            .iter()
            .filter(|s| s.engine == EngineKind::Sequential && s.app == app.name())
            .filter(|s| s.protocol == protocol && s.page_words == page_words)
            .min_by(|a, b| a.scale.total_cmp(&b.scale))
            .expect("trajectory has the cell");
        assert_eq!(want.nprocs, NPROCS);
        let version = [Version::Spf, Version::SpfCri, Version::Tmk]
            .into_iter()
            .find(|v| v.name() == want.version)
            .expect("a DSM version");
        let c = Cell {
            app,
            version,
            protocol,
        };
        let cfg = TmkConfig {
            page_words,
            ..TmkConfig::default()
        };
        let r = c.run(want.scale, cfg);
        let label = format!("{} scale {} page {}", c.label(), want.scale, page_words);
        assert_eq!(
            r.time_us.to_bits(),
            want.time_us.to_bits(),
            "{label}: time_us"
        );
        assert_eq!(r.messages, want.messages, "{label}: messages");
        assert_eq!(r.stats.total_bytes(), want.bytes, "{label}: bytes");
        checked += 1;
    }
    assert_eq!(checked, AppId::ALL.len());
}

#[test]
fn workloads_have_the_documented_cells() {
    let count = |w: Workload| w.cells().len();
    assert_eq!(count(Workload::RegularLrc), 20);
    assert_eq!(count(Workload::RegularHlrc), 12);
    assert_eq!(count(Workload::Irregular), 16);
    assert_eq!(count(Workload::Traced), 4);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    // The known-defective cell stays in the irregular pass.
    let defect = Cell {
        app: AppId::IGrid,
        version: Version::SpfCri,
        protocol: ProtocolMode::Lrc,
    };
    assert!(Workload::Irregular.cells().contains(&defect));
}

#[test]
fn run_order_is_a_seeded_permutation() {
    let a = measure::run_order(20, 7, 0);
    let mut sorted = a.clone();
    sorted.sort();
    assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    assert_eq!(a, measure::run_order(20, 7, 0));
    assert_ne!(a, measure::run_order(20, 8, 0));
    assert_ne!(a, measure::run_order(20, 7, 1));
}
