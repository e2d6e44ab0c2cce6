//! Times every experiment of the evaluation at quick scale, seed 1, in the
//! order `repro all` runs them.
//!
//! Prints each experiment's text once, then times it under its name.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mfc_bench::experiments::EXPERIMENTS;
use mfc_bench::Scale;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for experiment in EXPERIMENTS {
        println!("\n{}", (experiment.run)(Scale::Quick, 1).text);
        group.bench_function(experiment.name, |b| {
            b.iter(|| (experiment.run)(Scale::Quick, black_box(1)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
