//! Criterion micro-benchmarks for the sharded cluster: one flush of mixed
//! int2float + adder traffic at 1 / 2 / 4 shards. The host does the same
//! total simulation work regardless of shard count (the modeled win —
//! wall MEM cycles — is what the `tests/end_to_end.rs` shard sweep
//! asserts); this bench guards the queue/scheduler overhead on top of it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimecc::prelude::*;
use pimecc_netlist::generators::{ripple_adder, Benchmark};

const N: usize = 255;
const M: usize = 5;
const PER_PROGRAM: usize = 64;

fn bench_cluster_flush(c: &mut Criterion) {
    let i2f_nor = Benchmark::Int2float.build().netlist.to_nor();
    let adder_nor = ripple_adder(8).to_nor();
    for shards in [1usize, 2, 4] {
        c.bench_function(&format!("cluster/mixed_flush_x{shards}"), |b| {
            let mut cluster = PimClusterBuilder::new(shards, N, M)
                .build()
                .expect("cluster");
            let pi = cluster.compile(&i2f_nor).expect("compiles");
            let pa = cluster.compile(&adder_nor).expect("compiles");
            b.iter(|| {
                for i in 0..PER_PROGRAM {
                    let x = (i * 37) as u32 & 0x7FF;
                    let _ = cluster
                        .submit(&pi, (0..11).map(|b| x >> b & 1 != 0).collect())
                        .expect("submits");
                    let y = (i * 73) as u32 & 0xFFFF;
                    let _ = cluster
                        .submit(&pa, (0..16).map(|b| y >> b & 1 != 0).collect())
                        .expect("submits");
                }
                black_box(cluster.flush().expect("flushes"))
            })
        });
    }
}

criterion_group!(benches, bench_cluster_flush);
criterion_main!(benches);
