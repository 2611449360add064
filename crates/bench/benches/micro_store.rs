//! Criterion microbenchmarks (real wall-clock) for the COW object store:
//! radix-tree updates, commit serialization, tree clones, the page
//! digest, and whole μCheckpoints.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::Vt;
use msnap_store::{digest32, ObjectStore, RadixTree};

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

/// A snapshot's retained tree is an O(1) Arc clone; a deep clone of the
/// same committed tree copies every node and grows with the object.
fn bench_clone(c: &mut Criterion) {
    for pages in [64u64, 4096] {
        let mut tree = RadixTree::new();
        for p in 0..pages {
            tree.set_entry(p, 1_000 + p, p as u32);
        }
        let mut next = 1u64;
        tree.commit(
            &mut || {
                next += 1;
                next
            },
            &mut Vec::new(),
        );
        c.bench_function(&format!("radix_arc_clone_{pages}"), |b| {
            b.iter(|| tree.clone())
        });
        c.bench_function(&format!("radix_deep_clone_{pages}"), |b| {
            b.iter(|| tree.deep_clone())
        });
    }
}

/// The host cost of one 4 KiB page digest, which the virtual
/// `costs::DIGEST_PAGE` charge models.
fn bench_digest(c: &mut Criterion) {
    let page = vec![7u8; BLOCK_SIZE];
    c.bench_function("digest32_page", |b| {
        b.iter(|| digest32(black_box(&page[..])))
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

criterion_group!(
    benches,
    bench_radix,
    bench_clone,
    bench_digest,
    bench_persist
);
criterion_main!(benches);
