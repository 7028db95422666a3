//! E6/E7-scale: the §IV-C semantic checker vs. region count. Formula
//! (7) is pairwise — O(n²) disjointness constraints — and the paper
//! leans on incremental solving to keep it tractable; this measures
//! both the clean (SAT) and colliding (UNSAT + witness extraction)
//! cases, and the sweep-line prefilter against the exhaustive
//! encoding (the paper's formulation) at matching sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llhsc::SemanticChecker;
use llhsc_bench::regions;

fn bench_clean(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantic/clean");
    group.sample_size(10);
    for &n in &[4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let refs = regions(n, false);
            let mut checker = SemanticChecker::new();
            b.iter(|| std::hint::black_box(checker.check_regions(&refs).len()));
        });
    }
    group.finish();
}

fn bench_with_collision(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantic/one_collision");
    group.sample_size(10);
    for &n in &[4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let refs = regions(n, true);
            let mut checker = SemanticChecker::new();
            b.iter(|| {
                let collisions = checker.check_regions(&refs);
                assert_eq!(collisions.len(), 1);
                std::hint::black_box(collisions[0].witness)
            });
        });
    }
    group.finish();
}

fn bench_paper_cases(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantic/paper");
    group.sample_size(20);
    // §I-A: uart vs memory bank.
    let clash = llhsc_dts::parse(
        r#"/ {
            #address-cells = <2>;
            #size-cells = <2>;
            memory@40000000 {
                device_type = "memory";
                reg = <0x0 0x40000000 0x0 0x20000000
                       0x0 0x60000000 0x0 0x20000000>;
            };
            uart@60000000 { reg = <0x0 0x60000000 0x0 0x1000>; };
        };"#,
    )
    .expect("parses");
    group.bench_function("uart_clash", |b| {
        let mut checker = SemanticChecker::new();
        b.iter(|| {
            let (report, _) = checker.check_tree(&clash).expect("decodes");
            assert_eq!(report.collisions.len(), 1);
            std::hint::black_box(report.collisions[0].witness)
        });
    });
    // §IV-C: the truncation misparse (four banks at 0x0).
    let truncated = llhsc_dts::parse(
        r#"/ {
            #address-cells = <1>;
            #size-cells = <1>;
            memory@40000000 {
                device_type = "memory";
                reg = <0x0 0x40000000 0x0 0x20000000
                       0x0 0x60000000 0x0 0x20000000>;
            };
        };"#,
    )
    .expect("parses");
    group.bench_function("truncation", |b| {
        let mut checker = SemanticChecker::new();
        b.iter(|| {
            let (report, _) = checker.check_tree(&truncated).expect("decodes");
            assert_eq!(report.collisions.len(), 6);
            std::hint::black_box(report.collisions.len())
        });
    });
    group.finish();
}

/// The headline comparison: sweep-prefiltered (the default) vs the
/// exhaustive quadratic encoding, on clean boards (where the prefilter
/// removes every constraint) and boards with one collision (where it
/// leaves exactly one pair).
fn bench_prefilter_vs_exhaustive(c: &mut Criterion) {
    for &collide in &[false, true] {
        let label = if collide { "one_collision" } else { "clean" };
        let mut group = c.benchmark_group(format!("semantic/prefilter_vs_exhaustive/{label}"));
        group.sample_size(10);
        for &n in &[32usize, 64, 128, 256] {
            let refs = regions(n, collide);
            let mut checker = SemanticChecker::new();
            let expected = usize::from(collide);
            group.bench_with_input(BenchmarkId::new("prefiltered", n), &refs, |b, refs| {
                b.iter(|| {
                    let collisions = checker.check_regions(refs);
                    assert_eq!(collisions.len(), expected);
                    std::hint::black_box(collisions.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("exhaustive", n), &refs, |b, refs| {
                b.iter(|| {
                    let collisions = checker.check_regions_exhaustive(refs);
                    assert_eq!(collisions.len(), expected);
                    std::hint::black_box(collisions.len())
                });
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_clean,
    bench_with_collision,
    bench_paper_cases,
    bench_prefilter_vs_exhaustive
);
criterion_main!(benches);
