//! Criterion microbenchmarks (real wall-clock) for the COW object store:
//! radix-tree updates, commit serialization, and whole μCheckpoints.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::Vt;
use msnap_store::{ObjectStore, RadixTree};

fn bench_radix(c: &mut Criterion) {
    c.bench_function("radix_set_1k_sparse", |b| {
        b.iter_batched(
            RadixTree::new,
            |mut tree| {
                for i in 0..1000u64 {
                    tree.set_entry((i * 7919) % 100_000, 100 + i, i as u32);
                }
                tree
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("radix_commit_1k", |b| {
        b.iter_batched(
            || {
                let mut tree = RadixTree::new();
                for i in 0..1000u64 {
                    tree.set_entry((i * 7919) % 100_000, 100 + i, i as u32);
                }
                tree
            },
            |mut tree| {
                let mut next = 1u64;
                let mut writes = Vec::new();
                tree.commit(
                    &mut || {
                        next += 1;
                        next
                    },
                    &mut writes,
                );
                writes
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_persist(c: &mut Criterion) {
    c.bench_function("store_persist_16_pages", |b| {
        let page = vec![7u8; BLOCK_SIZE];
        b.iter_batched(
            || {
                let mut disk = Disk::new(DiskConfig::fast());
                let mut store = ObjectStore::format(&mut disk);
                let mut vt = Vt::new(0);
                let obj = store.create(&mut vt, &mut disk, "obj").unwrap();
                (disk, store, vt, obj)
            },
            |(mut disk, mut store, mut vt, obj)| {
                let pages: Vec<(u64, &[u8])> = (0..16u64).map(|i| (i * 11, &page[..])).collect();
                store.persist(&mut vt, &mut disk, obj, &pages)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_radix, bench_persist);
criterion_main!(benches);
