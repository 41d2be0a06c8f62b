//! Layer probes: per-call host cost of `treadmarks::Diff` and of an
//! `sp2sim` message, at the sizes a workload actually produces.

use crate::workload::NPROCS;
use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind, SplitMix64};
use std::hint::black_box;
use std::time::Instant;
use treadmarks::Diff;

/// Repetitions of each probe; the probe reports their median.
const REPS: usize = 7;

fn median_of(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median host ns per `Diff::create` and per `Diff::apply` on pages of
/// `page_words` words in which a `density` share of the words changed.
/// The pages' contents come from `seed`.
pub fn diff_ns(density: f64, page_words: usize, seed: u64) -> (f64, f64) {
    const PAGES: usize = 64;
    const ROUNDS: usize = 40;
    let mut rng = SplitMix64::new(seed);
    let dirty = ((density * page_words as f64).round() as usize).clamp(1, page_words);
    let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..PAGES)
        .map(|_| {
            let old: Vec<u64> = (0..page_words).map(|_| rng.next_u64()).collect();
            // Apps write array sections, so the dirty words form one
            // contiguous run at a random offset.
            let mut new = old.clone();
            let at = rng.below((page_words - dirty + 1) as u64) as usize;
            for w in &mut new[at..at + dirty] {
                *w = !*w;
            }
            (old, new)
        })
        .collect();
    let diffs: Vec<Diff> = pairs.iter().map(|(o, n)| Diff::create(o, n)).collect();
    let mut page = vec![0u64; page_words];
    let calls = (PAGES * ROUNDS) as f64;
    let (mut create, mut apply) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for (old, new) in &pairs {
                black_box(Diff::create(black_box(old), black_box(new)));
            }
        }
        create.push(t.elapsed().as_nanos() as f64 / calls);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for d in &diffs {
                d.apply(black_box(&mut page));
            }
        }
        apply.push(t.elapsed().as_nanos() as f64 / calls);
    }
    (median_of(create), median_of(apply))
}

/// Median host ns per message of an 8-node `Cluster::run` ring on the
/// sequential engine, each message carrying `payload_words` words.
pub fn msg_ns(payload_words: usize) -> f64 {
    const ROUNDS: usize = 500;
    const TAG: u32 = 7;
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            Cluster::run(
                ClusterConfig::sp2_on(NPROCS, EngineKind::Sequential),
                |node| {
                    let n = node.nprocs();
                    let prev = (node.id() + n - 1) % n;
                    for _ in 0..ROUNDS {
                        node.send(
                            (node.id() + 1) % n,
                            TAG,
                            MsgKind::Data,
                            vec![0; payload_words],
                        );
                        black_box(node.recv_match(|p| p.tag == TAG && p.src == prev));
                    }
                },
            );
            t.elapsed().as_nanos() as f64 / (NPROCS * ROUNDS) as f64
        })
        .collect();
    median_of(samples)
}
