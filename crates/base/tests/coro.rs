//! The coroutine primitive under the conditions the guest scheduler puts it
//! in: resumed on different host threads, with bodies that panic.
#![cfg(not(miri))] // inline assembly

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use graphite_base::coro::{self, Coroutine};

#[test]
fn locals_survive_resumes_on_alternating_threads() {
    const ROUNDS: u64 = 200;
    let result = Arc::new(Mutex::new(None));
    let out = Arc::clone(&result);
    let co = Coroutine::new(move || {
        // Locals in registers and on the stack, live across every suspend.
        let mut acc = [0u64; 64];
        let tag = std::hint::black_box(0x5EED_F00D_u64);
        let mut fp = std::hint::black_box(1.0f64);
        for round in 0..ROUNDS {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = a.wrapping_mul(31).wrapping_add(i as u64 ^ round);
            }
            fp *= 1.5;
            coro::suspend();
            fp /= 1.5;
        }
        *out.lock().unwrap() = Some((acc.iter().fold(0u64, |h, &a| h ^ a), tag, fp));
    });

    // Two host threads pass the suspended coroutine back and forth; each
    // resumes it once per turn.
    let (to_b, from_a) = mpsc::channel::<Coroutine>();
    let (to_a, from_b) = mpsc::channel::<Coroutine>();
    let b = std::thread::spawn(move || {
        let mut resumed = 0u64;
        while let Ok(mut co) = from_a.recv() {
            resumed += 1;
            if co.resume() {
                return resumed;
            }
            to_a.send(co).unwrap();
        }
        resumed
    });
    let mut co = co;
    let mut resumed_a = 0u64;
    loop {
        resumed_a += 1;
        if co.resume() {
            break;
        }
        to_b.send(co).unwrap();
        match from_b.recv() {
            Ok(back) => co = back,
            Err(_) => break, // finished on thread B
        }
    }
    drop(to_b);
    let resumed_b = b.join().unwrap();
    assert_eq!(resumed_a + resumed_b, ROUNDS + 1, "one resume per suspend, plus the last");
    assert!(resumed_a >= ROUNDS / 2 && resumed_b >= ROUNDS / 2, "both threads resumed it");

    let mut expect = [0u64; 64];
    for round in 0..ROUNDS {
        for (i, a) in expect.iter_mut().enumerate() {
            *a = a.wrapping_mul(31).wrapping_add(i as u64 ^ round);
        }
    }
    let (hash, tag, fp) = result.lock().unwrap().take().expect("body ran to completion");
    assert_eq!(hash, expect.iter().fold(0u64, |h, &a| h ^ a));
    assert_eq!(tag, 0x5EED_F00D);
    assert_eq!(fp, 1.0);
}

#[test]
fn a_panicking_body_is_caught_and_reports_finished() {
    let reached = Arc::new(Mutex::new(0));
    let r = Arc::clone(&reached);
    let mut co = Coroutine::new(move || {
        *r.lock().unwrap() += 1;
        coro::suspend();
        *r.lock().unwrap() += 1;
        panic!("guest bug");
    });
    assert!(!co.resume(), "first leg suspends");
    assert!(co.resume(), "the panic finishes the coroutine instead of unwinding into us");
    assert!(co.resume(), "and it stays finished");
    assert_eq!(*reached.lock().unwrap(), 2);
    assert!(!coro::in_coroutine(), "the resumer is back on its own stack");
}
