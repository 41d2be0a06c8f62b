//! Benchmarks of the compiler–runtime interface's three mechanisms
//! against the unhinted protocol paths they replace: aggregated
//! validate vs demand fault-in, barrier-time push vs demand pull, and
//! direct tree reduction vs lock-and-shared-page folding — plus the
//! host cost of the inspector's run-list compaction.

use cri::DynSection;
use criterion::{criterion_group, criterion_main, Criterion};
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{Tmk, TmkConfig};

const PAGES: usize = 16;
const PW: usize = 512;

/// One writer fills `PAGES` pages; the reader brings them in — by
/// faulting page by page, or by one aggregated validate.
fn bench_validate_vs_fault(c: &mut Criterion) {
    let mut g = c.benchmark_group("cri");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let run = |validate: bool| {
        Cluster::run(
            ClusterConfig::sp2_on(2, EngineKind::Sequential),
            move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let a = tmk.malloc_f64(PW * PAGES);
                if tmk.proc_id() == 0 {
                    let mut w = tmk.write(a, 0..PW * PAGES);
                    for (i, x) in w.slice_mut().iter_mut().enumerate() {
                        *x = i as f64;
                    }
                }
                tmk.barrier(0);
                if tmk.proc_id() == 1 {
                    if validate {
                        tmk.validate(&[(a, 0..PW * PAGES)]);
                    }
                    let r = tmk.read(a, 0..PW * PAGES);
                    std::hint::black_box(r.slice()[PW]);
                }
                tmk.barrier(1);
                tmk.finish();
            },
        )
    };
    g.bench_function("fault_in_16_pages", |b| b.iter(|| run(false)));
    g.bench_function("validate_16_pages", |b| b.iter(|| run(true)));
    g.finish();
}

/// The same producer/consumer exchange over a barrier — with the
/// consumer pulling on demand, or the producer pushing at the barrier.
fn bench_push_vs_pull(c: &mut Criterion) {
    let mut g = c.benchmark_group("cri");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let run = |push: bool| {
        Cluster::run(
            ClusterConfig::sp2_on(2, EngineKind::Sequential),
            move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let a = tmk.malloc_f64(PW * PAGES);
                for round in 0..4u32 {
                    if tmk.proc_id() == 0 {
                        let mut w = tmk.write(a, 0..PW * PAGES);
                        for (i, x) in w.slice_mut().iter_mut().enumerate() {
                            *x = (i + round as usize) as f64;
                        }
                        drop(w);
                        if push {
                            tmk.push_at_next_sync(1, a, 0..PW * PAGES);
                        }
                    }
                    tmk.barrier(round);
                    if tmk.proc_id() == 1 {
                        let r = tmk.read(a, 0..PW * PAGES);
                        std::hint::black_box(r.slice()[PW]);
                    }
                    tmk.barrier(100 + round);
                }
                tmk.finish();
            },
        )
    };
    g.bench_function("pull_16_pages_4_rounds", |b| b.iter(|| run(false)));
    g.bench_function("push_16_pages_4_rounds", |b| b.iter(|| run(true)));
    g.finish();
}

/// Scalar sum reduction on 8 nodes: the SPF lock-and-shared-page fold
/// vs the direct binomial-tree combine.
fn bench_reduce_direct_vs_lock(c: &mut Criterion) {
    let mut g = c.benchmark_group("cri");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let run = |direct: bool| {
        Cluster::run(
            ClusterConfig::sp2_on(8, EngineKind::Sequential),
            move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let var = tmk.malloc_f64(1);
                let me = tmk.proc_id() as f64;
                for round in 0..3u32 {
                    if direct {
                        let t = tmk.reduce(&[me + 1.0]);
                        std::hint::black_box(t[0]);
                    } else {
                        if tmk.proc_id() == 0 {
                            tmk.write_one(var, 0, 0.0);
                        }
                        tmk.barrier(round);
                        tmk.acquire(1);
                        let cur = tmk.read_one(var, 0);
                        tmk.write_one(var, 0, cur + me + 1.0);
                        tmk.release(1);
                        tmk.barrier(100 + round);
                        std::hint::black_box(tmk.read_one(var, 0));
                    }
                }
                tmk.finish();
            },
        )
    };
    g.bench_function("reduce_lock_fold_8p", |b| b.iter(|| run(false)));
    g.bench_function("reduce_direct_tree_8p", |b| b.iter(|| run(true)));
    g.finish();
}

/// `DynSection::from_indices` on the two walks the irregular apps'
/// inspectors produce at the paper's size, for one node's block: IGrid's
/// 9-point stencil reads of 62 columns × 498 interior rows through a
/// near-identity map over a 500×500 (250k-word) grid, and NBF's 4096
/// atoms × (self + 60 partners within ±2000) over 32768 words.
fn bench_dynsection_from_indices(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynsection_from_indices");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    // A deterministic hash for map jitter and partner choice.
    let mix = |x: usize| {
        let z = (x as u64 ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 31)) as usize
    };
    let n = 500;
    let igrid: Vec<usize> = (186..248)
        .flat_map(|j| (1..n - 1).map(move |i| (i, j)))
        .flat_map(|(i, j)| {
            // The map moves the stencil centre by up to one cell.
            let mi = (i + mix(j * n + i) % 3).clamp(2, n - 1) - 1;
            let mj = (j + mix(j * n + i + 1) % 3).clamp(2, n - 1) - 1;
            (0..9).map(move |s| (mj + s / 3 - 1) * n + mi + s % 3 - 1)
        })
        .collect();
    let (m, w, k) = (32768, 2000, 60);
    let nbf: Vec<usize> = (4096..8192)
        .flat_map(|i| {
            let (lo, hi) = (i - w, (i + w).min(m - 1) + 1);
            std::iter::once(i).chain((0..k).map(move |p| lo + mix(i * k + p) % (hi - lo)))
        })
        .collect();
    g.bench_function("igrid_block_walk", |b| {
        b.iter(|| DynSection::from_indices(igrid.iter().copied()))
    });
    g.bench_function("nbf_block_walk", |b| {
        b.iter(|| DynSection::from_indices(nbf.iter().copied()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_validate_vs_fault,
    bench_push_vs_pull,
    bench_reduce_direct_vs_lock,
    bench_dynsection_from_indices
);
criterion_main!(benches);
