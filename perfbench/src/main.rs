//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload's passes for about `S` seconds on the sequential
//! engine, checks every run against its Seq reference, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object.

use perfbench::measure::{self, Outcome, Pass, References, Spans};
use perfbench::metrics::{self, median};
use perfbench::workload::Workload;
use std::process::exit;
use std::time::Instant;
use treadmarks::TmkConfig;

/// Seq reference builds before the first pass. One more follows each
/// round of passes, so the `setup_s` samples span the whole run.
const SETUP_REPS: usize = 3;
/// Fewest timing passes, so the determinism gate always compares two.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage: perfbench --workload regular-lrc|regular-hlrc|irregular|traced \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    let w = args.workload;
    let cells = w.cells().len();
    let mut spans = Spans::default();
    let mut refs = References::default();
    refs.build(w, SETUP_REPS, &mut spans);

    // One warm-up pass first: the first pass of a process runs up to a
    // fifth slower while the heap grows, so it is not timed.
    let start = Instant::now();
    let order = measure::run_order(cells, args.seed, 0);
    Pass::run(w, &refs, args.trace || w.traced(), &order, &mut spans);

    // Timing passes: untraced (traced on `traced`) with `--trace 0`;
    // untraced and traced passes with `--trace 1`, alternating which
    // runs first from round to round.
    let mut passes: Vec<Pass> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    loop {
        let round = Instant::now();
        let kinds = match (args.trace, rounds.len() % 2) {
            (false, _) => vec![w.traced()],
            (true, 0) => vec![false, true],
            (true, _) => vec![true, false],
        };
        for traced in kinds {
            let order = measure::run_order(cells, args.seed, passes.len() + 1);
            passes.push(Pass::run(w, &refs, traced, &order, &mut spans));
        }
        refs.build(w, 1, &mut spans);
        rounds.push(round.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed + median(&rounds) > args.seconds {
            break;
        }
    }

    let mut drift = refs.drift.clone();
    drift.extend(measure::drift(&passes));
    for d in &drift {
        println!("DETERMINISM DRIFT (benchmark error): {d}");
    }

    let records = || passes.iter().flat_map(|p| &p.records);
    let attempted = records().count();
    let failed = records().filter(|r| r.failed()).count();
    let mut named: Vec<String> = Vec::new();
    for r in records().filter(|r| r.failed()) {
        let label = r.cell.label();
        if named.contains(&label) {
            continue;
        }
        let runs = records().filter(|x| x.failed() && x.cell == r.cell).count();
        let what = match &r.outcome {
            Outcome::Mismatch { max_rel_diff } => {
                let tol = perfbench::oracle::tolerance(r.cell.app)
                    .map_or("bitwise".into(), |t| format!("tolerance {t:e}"));
                format!("checksum differs from Seq (max relative diff {max_rel_diff:e}, {tol})")
            }
            Outcome::Panicked(msg) => format!("panicked: {msg}"),
            Outcome::Ok => unreachable!(),
        };
        println!("FAILED {label}: {what}; {runs} of {} passes", passes.len());
        named.push(label);
    }

    let host: Vec<f64> = passes.iter().map(Pass::host_s).collect();
    println!(
        "{}: {} cells x {} passes at scale {}, 8 nodes, sequential engine, seed {}",
        w.name(),
        cells,
        passes.len(),
        w.scale(),
        args.seed
    );
    println!(
        "pass host s: min {:.4} median {:.4} max {:.4} (n = {}); setup s: median {:.4} (n = {})",
        host.iter().cloned().fold(f64::INFINITY, f64::min),
        median(&host),
        host.iter().cloned().fold(0.0, f64::max),
        host.len(),
        median(&refs.setup_s),
        refs.setup_s.len()
    );

    let metrics = if args.trace {
        let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
        for (label, untraced_s, traced_s) in metrics::cell_host_medians(&untraced, &traced) {
            println!("recorder overhead {label}: {:.3}", traced_s / untraced_s);
        }
        let page_words = TmkConfig::default().page_words;
        metrics::per_layer(&refs, &untraced, &traced, page_words, args.seed, &mut spans)
    } else {
        metrics::end_to_end(&refs, &passes)
    };
    for m in &metrics {
        println!("{:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = format!("perfbench/spans/{}-seed{}.json", w.name(), args.seed);
        let written = std::fs::create_dir_all("perfbench/spans")
            .and_then(|_| std::fs::write(&path, spans.to_json().render()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!(
        "{}",
        metrics::result_line(drift.is_empty(), attempted, failed, &metrics)
    );
}
