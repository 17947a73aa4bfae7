//! Criterion microbenchmarks for TAC's pre-process planners and the full
//! per-level pipelines (the components behind Fig. 13's timing story).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tac_amr::BlockGrid;
use tac_core::{
    compress_level_t, pad_ghost_shell, plan_akdtree, plan_nast, plan_opst, Strategy, TacConfig,
};
use tac_nyx::{entry, FieldKind};

fn bench_planners(c: &mut Criterion) {
    let ds = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 8, 7);
    let fine = &ds.levels()[0]; // 23% density
    let coarse = &ds.levels()[1]; // 77% density
    let grid_fine = BlockGrid::build(fine, 4);
    let grid_coarse = BlockGrid::build(coarse, 2);

    let mut group = c.benchmark_group("planners");
    group.bench_function("opst/sparse23", |b| {
        b.iter(|| plan_opst(black_box(&grid_fine)))
    });
    group.bench_function("opst/dense77", |b| {
        b.iter(|| plan_opst(black_box(&grid_coarse)))
    });
    group.bench_function("akdtree/sparse23", |b| {
        b.iter(|| plan_akdtree(black_box(&grid_fine)))
    });
    group.bench_function("akdtree/dense77", |b| {
        b.iter(|| plan_akdtree(black_box(&grid_coarse)))
    });
    group.bench_function("nast/sparse23", |b| {
        b.iter(|| plan_nast(black_box(&grid_fine)))
    });
    group.bench_function("gsp_pad/dense77", |b| {
        b.iter(|| pad_ghost_shell(black_box(coarse), black_box(&grid_coarse)))
    });
    group.finish();

    let cfg = TacConfig {
        unit: 4,
        ..Default::default()
    };
    let mut group = c.benchmark_group("level_pipeline");
    group.sample_size(10);
    for strategy in [Strategy::OpST, Strategy::AkdTree, Strategy::Gsp] {
        group.bench_function(format!("{strategy:?}/fine"), |b| {
            b.iter(|| compress_level_t(black_box(fine), strategy, 1e7, &cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planners);
criterion_main!(benches);
