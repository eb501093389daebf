//! Compute-core benchmarks: the sparse operator-form Chebyshev conv stack
//! vs. the legacy dense materialized-basis path, swept across cascade
//! sizes and edge densities so the crossover point stays visible in CI
//! output — at toy sizes the dense n×n matmul is competitive; on
//! representative sparse cascades the operator form wins by the
//! O(K·n²·d) → O(K·nnz·d) margin the kernel layer promises.

use cascn_autograd::Tape;
use cascn_graph::{DiGraph, IncrementalSpectral, SpectralBasis};
use cascn_nn::ChebOperands;
use cascn_tensor::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const K: usize = 2;
const D: usize = 32;

/// A synthetic cascade DAG over `n` nodes: a random-parent diffusion tree
/// plus `extra` additional cross edges (earlier → later), deterministic in
/// the simple LCG so every run benchmarks the identical structure.
fn cascade_graph(n: usize, extra: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    let mut state = 0x9e3779b97f4a7c15u64 ^ (n as u64) << 8 ^ extra as u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for v in 1..n {
        g.add_edge(next() % v, v, 1.0);
    }
    let mut added = 0;
    while added < extra {
        let v = 1 + next() % (n - 1);
        let u = next() % v;
        g.add_edge(u, v, 1.0);
        added += 1;
    }
    g
}

/// The production directed pipeline: teleportation makes the scaled
/// Laplacian itself dense, so the basis carries a sparse adjacency core
/// plus a rank-1 teleport correction (`from_laplacian` on the dense matrix
/// would hand the "sparse" kernel an n² operator and benchmark nothing).
fn basis_for(g: &DiGraph) -> SpectralBasis {
    SpectralBasis::directed(g, 0.85, None, K)
}

fn features(n: usize) -> Matrix {
    Matrix::from_fn(n, D, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5)
}

/// Sparse vs. dense conv-stack across cascade sizes (diffusion trees, the
/// typical per-cascade structure: nnz ≈ 2n−1).
fn bench_conv_stack_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_stack");
    for n in [10usize, 20, 40, 80, 160] {
        let g = cascade_graph(n, 0);
        let basis = basis_for(&g);
        let feat = features(n);
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::sparse(&basis);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
        let bases = basis.materialize();
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::dense(&mut tape, &bases);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
    }
    group.finish();
}

/// Fixed size, rising edge density: as extra cross edges push nnz toward
/// n², the sparse operator's advantage shrinks — the crossover the dense
/// fallback kernel exists for.
fn bench_conv_stack_density(c: &mut Criterion) {
    let n = 80usize;
    let mut group = c.benchmark_group("conv_stack_density");
    for extra in [0usize, n, 4 * n, 16 * n] {
        let g = cascade_graph(n, extra);
        let basis = basis_for(&g);
        let feat = features(n);
        let label = format!("nnz~{}", n + g.edge_count());
        group.bench_with_input(BenchmarkId::new("sparse", &label), &extra, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::sparse(&basis);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
        let bases = basis.materialize();
        group.bench_with_input(BenchmarkId::new("dense", &label), &extra, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::dense(&mut tape, &bases);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
    }
    group.finish();
}

/// One streamed adoption event vs. registering the cascade from scratch —
/// the `/observe` economics. The incremental arm pays a state clone plus
/// one `push_child`; the cold arm pays `from_graph`. Both run the same
/// sparse builder, so the arms should match: a gap opening up here means
/// the streaming path grew work of its own.
fn bench_incremental_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe_update");
    for n in [20usize, 80, 160] {
        let g = cascade_graph(n, 0);
        // Warm state one node short of `n`; the benched event appends the
        // final node, exactly what one `/observe` does at steady state.
        let prefix = {
            let mut p = DiGraph::new(n - 1);
            for (u, v, w) in g.edges().filter(|&(_, v, _)| v < n - 1) {
                p.add_edge(u, v, w);
            }
            p
        };
        let parent = g
            .edges()
            .find(|&(_, v, _)| v == n - 1)
            .map(|(u, _, _)| u)
            .expect("last node has a parent");
        let warm = IncrementalSpectral::from_graph(&prefix, 0.85, None, K);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let mut inc = warm.clone();
                inc.push_child(parent);
                std::hint::black_box(inc.basis())
            })
        });
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let inc = IncrementalSpectral::from_graph(&g, 0.85, None, K);
                std::hint::black_box(inc.basis())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conv_stack_sizes, bench_conv_stack_density, bench_incremental_vs_cold);
criterion_main!(benches);
