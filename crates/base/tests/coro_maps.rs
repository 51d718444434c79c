//! Coroutine stacks are unmapped when a finished coroutine drops. Alone in
//! this file: the mapping count is process-wide, and tests of one binary
//! share a process.
#![cfg(all(target_os = "linux", not(miri)))]

use graphite_base::coro::{self, Coroutine};

fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("procfs").lines().count()
}

fn cycle() {
    let mut co = Coroutine::new(|| {
        let buf = std::hint::black_box([7u8; 512]);
        coro::suspend();
        std::hint::black_box(buf);
    });
    assert!(!co.resume());
    assert!(co.resume());
}

#[test]
fn ten_thousand_create_finish_cycles_leak_no_stack_mapping() {
    // Warm the allocator first, so heap growth does not count as a mapping.
    for _ in 0..100 {
        cycle();
    }
    let before = mapping_count();
    for _ in 0..10_000 {
        cycle();
    }
    assert_eq!(mapping_count(), before, "coroutine stacks outlived their coroutines");
}
