//! Concurrent recording under a forced `PTE_THREADS=4` worker count:
//! four threads hammer one shared histogram and the count-conservation
//! law must hold exactly — no sample lost, no bucket drift. Own binary, so pinning `PTE_THREADS`
//! cannot race other tests' env reads.

use std::thread;

use pte_telemetry::{global, Histogram};

const PER_THREAD: u64 = 50_000;

fn forced_threads() -> usize {
    std::env::var("PTE_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

#[test]
fn concurrent_recording_conserves_every_sample() {
    std::env::set_var("PTE_THREADS", "4");
    let threads = forced_threads();
    assert_eq!(threads, 4);

    let shared = Histogram::new();
    let counter = global().counter("test_concurrent_samples_total");

    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let shared = shared.clone();
                let counter = counter.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread across unit buckets, octave buckets and
                        // the saturating top bucket.
                        let v = match i % 4 {
                            0 => 0,
                            1 => t as u64 * 7 + i % 13,
                            2 => 1 + (i % 24) * 1000,
                            _ => u64::MAX,
                        };
                        shared.record(v);
                        counter.inc();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread panicked");
        }
    });

    let expected = threads as u64 * PER_THREAD;
    assert_eq!(shared.count(), expected);
    assert_eq!(shared.bucket_total(), expected, "shared histogram lost or duplicated samples");
    assert_eq!(counter.get(), expected);
    assert_eq!(shared.max(), u64::MAX);

    std::env::remove_var("PTE_THREADS");
}
