//! Host allocator policy for a simulator process.
//!
//! A simulation allocates its working set in one burst and frees it in
//! another: cache line storage follows the lines a guest touches, checkpoint
//! images and directory maps come and go in MiB-sized pieces, and a host
//! process (a benchmark, `graphite-serve`) builds simulators back to back.
//! glibc's defaults hand such memory back to the kernel on every free — heap
//! tops are trimmed, buffers over 128 KiB are `munmap`ped — so the next burst
//! page-faults it all in again, at ≈1.5 µs a page on a virtualized host.
//!
//! Kept heap is kept per malloc arena, and glibc gives each thread that
//! contends for one an arena of its own. Guest contexts migrate between
//! carrier threads, so what one carrier allocates another frees, and with
//! one arena per carrier every arena would keep its own retained heap (a
//! 64-tile LaxBarrier run grew 20 → 24 MiB, and back-to-back runs kept
//! growing). One arena keeps one retained heap; the simulator's hot path
//! does not call `malloc`, so the arena lock is not contended there.

/// Tells the allocator, once per process, to keep freed memory mapped, to
/// serve mid-sized buffers from the heap, and to use a single arena. A no-op
/// off glibc.
pub fn retain_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_ARENA_MAX: c_int = -8;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` takes two integers and is documented thread-safe;
        // all three parameters exist in every glibc this links against, and a
        // refused value (return 0) just leaves the default in force.
        ONCE.call_once(|| unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_ARENA_MAX, 1);
        });
    }
}
