//! Micro-benchmarks of the spectral machinery: the sparse spectral basis
//! builder (φ, λ_max and the scaled operator from the edge list), exact
//! λ_max vs. the ≈2 shortcut (the Table V cost trade-off), and Chebyshev
//! basis expansion as K grows (the Table V "bigger K costs more" claim).

use cascn_graph::{laplacian, DiGraph, SpectralBasis};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random cascade tree with `n` nodes.
fn random_cascade(n: usize, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for child in 1..n {
        let parent = rng.random_range(0..child);
        g.add_edge(parent, child, 1.0);
    }
    g
}

fn bench_spectral_basis(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_basis");
    for &n in &[10usize, 30, 100] {
        let g = random_cascade(n, 7);
        group.bench_with_input(BenchmarkId::new("directed", n), &g, |b, g| {
            b.iter(|| SpectralBasis::directed(std::hint::black_box(g), 0.85, None, 2))
        });
        group.bench_with_input(BenchmarkId::new("undirected", n), &g, |b, g| {
            b.iter(|| SpectralBasis::undirected(std::hint::black_box(g), None, 2))
        });
    }
    group.finish();
}

fn bench_lambda_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("lambda_max");
    for &n in &[10usize, 30, 100] {
        let g = random_cascade(n, 11);
        for (name, pin) in [("exact_power_iteration", None), ("approx_2", Some(2.0))] {
            group.bench_with_input(BenchmarkId::new(name, n), &g, |b, g| {
                b.iter(|| SpectralBasis::directed(std::hint::black_box(g), 0.85, pin, 2))
            });
        }
    }
    group.finish();
}

fn bench_chebyshev(c: &mut Criterion) {
    let mut group = c.benchmark_group("chebyshev_bases");
    let g = random_cascade(30, 13);
    let scaled = SpectralBasis::directed(&g, 0.85, None, 2).scaled_dense();
    for k in [1usize, 2, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| laplacian::chebyshev_bases(std::hint::black_box(&scaled), k))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spectral_basis, bench_lambda_max, bench_chebyshev);
criterion_main!(benches);
