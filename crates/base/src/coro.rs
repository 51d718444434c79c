//! Stackful coroutines: a body that runs on a stack of its own and can
//! suspend itself mid-call, to be resumed later — possibly by another host
//! thread.
//!
//! The guest scheduler runs every spawned guest context as one of these on a
//! small set of carrier threads, so a LaxBarrier quantum park is a stack
//! switch on the carrier instead of a host thread going to sleep and another
//! one waking up.
//!
//! * [`Coroutine::new`] maps the stack (nothing runs yet);
//! * [`Coroutine::resume`] switches onto it and returns when the body calls
//!   [`suspend`] (`false`) or finishes (`true`);
//! * [`suspend`] switches back to whoever called `resume`;
//! * [`in_coroutine`] says whether the calling code runs on a coroutine
//!   stack.
//!
//! A stack is an anonymous `MAP_NORESERVE` mapping with a `PROT_NONE` guard
//! page below it: the kernel commits pages only as the body touches them,
//! and nothing is written before the first resume. Running off the end hits
//! the guard page and kills the process with `SIGSEGV`, like a thread's
//! stack overflow.
//!
//! A panic in the body never unwinds through the switch: it is caught at the
//! coroutine's entry, and the coroutine reports finished.
//!
//! # Migration contract
//!
//! A suspended coroutine may be resumed on a different host thread than the
//! one it suspended on. Code that calls [`suspend`] must not hold a
//! thread-local borrow or a thread-affine guard across the call. The type
//! system does not check this (`Coroutine` is `Send` whatever its body keeps
//! on its stack), so it is a contract on callers: in this workspace the only
//! callers are the scheduler's park and sleep, reached from a sync model's
//! quantum boundary, an MCP call or a receive with no scheduler or inbox
//! lock held, and guest code holds at most `std`/`parking_lot` mutex
//! guards, which on Linux are futex words with no owner thread.
//!
//! Only x86_64 Linux has a switch routine; other targets fail to compile.
//!
//! # Examples
//!
//! ```
//! use graphite_base::coro::{self, Coroutine};
//!
//! let mut co = Coroutine::new(|| {
//!     assert!(coro::in_coroutine());
//!     coro::suspend(); // back to the resumer
//! });
//! assert!(!coro::in_coroutine());
//! assert!(!co.resume(), "suspended once");
//! assert!(co.resume(), "then finished");
//! ```

use std::cell::Cell;
use std::ffi::{c_int, c_long, c_void};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "graphite_base::coro: no stack-switch routine (`graphite_coro_switch`) for this target; \
     only x86_64 Linux is implemented"
);

/// Usable stack bytes per coroutine. Under 2 MiB so no transparent huge page
/// can back it: touching one byte commits 4 KiB, never 2 MiB.
pub const STACK_BYTES: usize = 1 << 20;
const GUARD_BYTES: usize = 4096;

// The switch saves the callee-saved registers of the SysV x86_64 ABI (rbp,
// rbx, r12–r15, the MXCSR and x87 control words) on the current stack,
// stores the stack pointer through `rdi`, loads the one in `rsi` and pops
// the same frame off the other stack. Everything else is caller-saved: the
// compiler already treats it as clobbered by the call.
//
// A new stack starts with a frame that "returns" into the trampoline with
// the entry function in r13 and its argument in r12. The trampoline marks
// the end of the call chain for unwinders and backtraces (`rip` undefined).
std::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl graphite_coro_switch",
    ".hidden graphite_coro_switch",
    ".type graphite_coro_switch,@function",
    "graphite_coro_switch:",
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    sub rsp, 8",
    "    stmxcsr [rsp]",
    "    fnstcw [rsp + 4]",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    ldmxcsr [rsp]",
    "    fldcw [rsp + 4]",
    "    add rsp, 8",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size graphite_coro_switch, . - graphite_coro_switch",
    "",
    ".balign 16",
    ".globl graphite_coro_trampoline",
    ".hidden graphite_coro_trampoline",
    ".type graphite_coro_trampoline,@function",
    "graphite_coro_trampoline:",
    "    .cfi_startproc",
    "    .cfi_undefined rip",
    "    mov rdi, r12",
    "    call r13",
    "    ud2",
    "    .cfi_endproc",
    ".size graphite_coro_trampoline, . - graphite_coro_trampoline",
);

extern "C" {
    /// Saves the current context, storing its stack pointer in `*save`, and
    /// continues the context whose stack pointer is `load`.
    fn graphite_coro_switch(save: *mut usize, load: usize);
    /// First code a new stack runs (never called directly).
    fn graphite_coro_trampoline();
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// Default MXCSR (all exceptions masked, round to nearest) and x87 control
/// word (extended precision, all exceptions masked), as a new thread gets.
const INITIAL_FP_WORDS: usize = 0x1F80 | (0x037F << 32);

/// State shared between the resumer and the body, at a fixed heap address.
struct Inner {
    /// The coroutine's stack pointer while it is suspended.
    sp: usize,
    /// The resumer's stack pointer while the coroutine runs.
    caller_sp: usize,
    /// Taken by the entry on first run.
    body: Option<Box<dyn FnOnce() + Send>>,
    started: bool,
    finished: bool,
    /// Lowest address of the mapping (the guard page).
    map: *mut c_void,
}

thread_local! {
    /// The coroutine running on this thread, null on a thread's own stack.
    static CURRENT: Cell<*mut Inner> = const { Cell::new(ptr::null_mut()) };
}

// The accessors are never inlined: a coroutine may suspend on one thread and
// continue on another, and LLVM may keep a thread-local's address across the
// opaque switch call in the caller's frame.
#[inline(never)]
fn current() -> *mut Inner {
    CURRENT.with(Cell::get)
}

#[inline(never)]
fn set_current(c: *mut Inner) -> *mut Inner {
    CURRENT.with(|cur| cur.replace(c))
}

/// Whether the calling code runs on a coroutine's stack.
pub fn in_coroutine() -> bool {
    !current().is_null()
}

/// A body on a stack of its own (see the module docs).
pub struct Coroutine {
    inner: *mut Inner,
}

// SAFETY: `inner` is the only field, and `Inner` is reached only by the
// `Coroutine`'s owner (`resume` takes `&mut self`, `drop` takes `self`) and
// by the body while that `resume` is on the call stack. Its fields: `body` is
// a `Box<dyn FnOnce() + Send>`; `sp`/`caller_sp`/`started`/`finished` are
// plain values; `map` is a mapping this coroutine alone owns, and any thread
// may unmap it. The stack behind `sp` holds only frames of the body's own
// code: moving a suspended coroutine moves plain memory, and what the type
// system cannot check — a thread-local borrow or thread-affine guard held
// across `suspend` — is the migration contract in the module docs.
unsafe impl Send for Coroutine {}

impl std::fmt::Debug for Coroutine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coroutine").finish_non_exhaustive()
    }
}

impl Coroutine {
    /// Maps a stack for `body`. Nothing runs until the first
    /// [`Coroutine::resume`].
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    pub fn new(body: impl FnOnce() + Send + 'static) -> Coroutine {
        let len = STACK_BYTES + GUARD_BYTES;
        // SAFETY: a fresh anonymous private mapping at an address the kernel
        // picks aliases nothing; the result is checked before use, and the
        // guard page lies inside it.
        let map = unsafe {
            let map = mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(map != MAP_FAILED, "coroutine stack mmap failed");
            assert!(mprotect(map, GUARD_BYTES, PROT_NONE) == 0, "coroutine guard page");
            map
        };
        let inner = Box::into_raw(Box::new(Inner {
            sp: 0,
            caller_sp: 0,
            body: Some(Box::new(body)),
            started: false,
            finished: false,
            map,
        }));
        Coroutine { inner }
    }

    /// Runs the body until it calls [`suspend`] or returns. Returns whether
    /// it finished; resuming a finished coroutine is a no-op returning
    /// `true`.
    pub fn resume(&mut self) -> bool {
        let inner = self.inner;
        // SAFETY: `inner` came from `Box::into_raw` and is freed only by
        // `drop`, which needs `self`. The initial frame is written inside
        // the mapping, below its page-aligned top. The switch stores this
        // thread's stack pointer in `caller_sp` and continues the body's;
        // the body hands control back only through `suspend` or the entry's
        // final switch, both of which reload `caller_sp`.
        unsafe {
            if (*inner).finished {
                return true;
            }
            if !(*inner).started {
                (*inner).started = true;
                let top = (*inner).map as usize + GUARD_BYTES + STACK_BYTES;
                // After the frame below is popped and `ret` runs, rsp is
                // `top - 16`: 16-byte aligned, as a `call` expects.
                let ret = top - 24;
                let sp = ret - 56;
                let frame = sp as *mut usize;
                frame.write(INITIAL_FP_WORDS);
                frame.add(1).write(0); // r15
                frame.add(2).write(0); // r14
                frame.add(3).write(coro_entry as *const () as usize); // r13
                frame.add(4).write(inner as usize); // r12
                frame.add(5).write(0); // rbx
                frame.add(6).write(0); // rbp
                frame.add(7).write(graphite_coro_trampoline as *const () as usize);
                (*inner).sp = sp;
            }
            let outer = set_current(inner);
            graphite_coro_switch(&raw mut (*inner).caller_sp, (*inner).sp);
            set_current(outer);
            (*inner).finished
        }
    }
}

/// Suspends the running coroutine: control returns from the
/// [`Coroutine::resume`] that is running it, and this call returns when the
/// coroutine is next resumed — possibly on another thread.
///
/// # Panics
///
/// Panics when called outside a coroutine.
pub fn suspend() {
    let inner = current();
    assert!(!inner.is_null(), "coro::suspend outside a coroutine");
    // SAFETY: `inner` is the live coroutine running on this thread (its
    // resumer set it and is blocked in the switch until this one returns),
    // and `caller_sp` is that resumer's saved stack pointer.
    unsafe { graphite_coro_switch(&raw mut (*inner).sp, (*inner).caller_sp) }
}

/// The first Rust frame on a coroutine stack.
extern "C" fn coro_entry(inner: *mut Inner) -> ! {
    // SAFETY: the trampoline passes the `Inner` that `resume` installed; the
    // resumer is blocked in the switch, so nothing else touches it.
    let body = unsafe { (*inner).body.take() };
    if let Some(body) = body {
        // The panic hook has already reported a panic; all that matters here
        // is that it stops before the switch.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    }
    // SAFETY: as above; this is the last switch off this stack, which is
    // never resumed again (`resume` checks `finished` first).
    unsafe {
        (*inner).finished = true;
        graphite_coro_switch(&raw mut (*inner).sp, (*inner).caller_sp);
    }
    std::process::abort()
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `inner` is ours (see `resume`). A stack that never started
        // or has finished holds no live frame and is unmapped. A suspended
        // stack may hold values other threads still point into (a scoped
        // thread's borrow, say); it is leaked instead, like `mem::forget`.
        unsafe {
            let inner = Box::from_raw(self.inner);
            if !inner.started || inner.finished {
                munmap(inner.map, STACK_BYTES + GUARD_BYTES);
            }
        }
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;

    #[test]
    fn suspend_and_resume_interleave() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&steps);
        let mut co = Coroutine::new(move || {
            for _ in 0..3 {
                s.fetch_add(1, Ordering::SeqCst);
                suspend();
            }
        });
        assert_eq!(steps.load(Ordering::SeqCst), 0, "nothing runs before resume");
        for i in 1..=3 {
            assert!(!co.resume());
            assert_eq!(steps.load(Ordering::SeqCst), i);
        }
        assert!(co.resume(), "body returned");
        assert!(co.resume(), "finished stays finished");
    }

    #[test]
    fn dropping_an_unstarted_coroutine_runs_nothing() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        drop(Coroutine::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(Arc::strong_count(&ran), 1, "the body was dropped");
    }

    #[test]
    fn float_state_survives_a_switch() {
        let out = Arc::new(std::sync::Mutex::new(0.0f64));
        let o = Arc::clone(&out);
        let mut co = Coroutine::new(move || {
            let x = std::hint::black_box(1.5f64);
            suspend();
            *o.lock().unwrap() = x * 3.0;
        });
        let y = std::hint::black_box(2.25f64);
        assert!(!co.resume());
        assert_eq!(y.sqrt(), 1.5);
        assert!(co.resume());
        assert_eq!(*out.lock().unwrap(), 4.5);
    }
}
