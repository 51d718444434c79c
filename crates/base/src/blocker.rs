//! Host-thread blocking abstraction for guest execution scheduling.
//!
//! Guest contexts wait in a handful of places — joins, futex waits, message
//! receives, sync-model quanta, catch-up sleeps. Under thread-per-tile
//! execution those waits can simply block the calling OS thread. Under an
//! M:N scheduler the wait must first *release the tile's execution slot* so
//! another runnable context can use the host core, and reacquire a slot
//! afterwards.
//!
//! [`Blocker`] is that seam. The sync models call it at every blocking
//! point; the implementation decides whether the wait is a plain park
//! ([`InlineBlocker`], the thread-per-tile degenerate case) or a cooperative
//! yield into a run-queue (the core crate's `GuestScheduler`).

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::ids::TileId;

/// A policy for how a guest context blocks its host thread.
///
/// Every wait is completed by exactly one other party — the releaser names
/// each waiter explicitly, so a scheduler can requeue exactly the tiles that
/// became runnable instead of broadcasting:
///
/// * [`Blocker::park`] / [`Blocker::unpark`] — another tile (a barrier
///   release) or a service (the MCP's reply, a mailbox delivery) decides
///   when the waiter resumes;
/// * [`Blocker::sleep`] — the deadline does.
pub trait Blocker: Send + Sync {
    /// Releases the tile's slot and blocks until [`Blocker::unpark`] is
    /// called for this tile, then reacquires a slot. A token handed to
    /// `unpark` before `park` is not lost: the next `park` consumes it and
    /// returns immediately (futex-style one-shot semantics). Callers issue
    /// exactly one `unpark` per `park`: a stray token would end the tile's
    /// next, unrelated wait early.
    fn park(&self, tile: TileId);

    /// Grants `tile` a wakeup token, rousing a current or future `park`.
    fn unpark(&self, tile: TileId);

    /// Releases the tile's slot for `dur` of wall-clock time, then
    /// reacquires a slot.
    fn sleep(&self, tile: TileId, dur: Duration);
}

/// One park/unpark token per tile.
#[derive(Debug, Default)]
struct Token {
    lock: Mutex<bool>,
    cv: Condvar,
}

/// The degenerate [`Blocker`]: every wait blocks the calling OS thread in
/// place (thread-per-tile semantics). Used when no scheduler is attached —
/// standalone sync-model tests and `workers >= tiles` configurations behave
/// identically through it.
#[derive(Debug)]
pub struct InlineBlocker {
    tokens: Vec<Token>,
}

impl InlineBlocker {
    /// A blocker for `tiles` tiles.
    pub fn new(tiles: u32) -> Self {
        InlineBlocker { tokens: (0..tiles).map(|_| Token::default()).collect() }
    }
}

impl Blocker for InlineBlocker {
    fn park(&self, tile: TileId) {
        let t = &self.tokens[tile.0 as usize];
        let mut granted = t.lock.lock();
        while !*granted {
            t.cv.wait(&mut granted);
        }
        *granted = false;
    }

    fn unpark(&self, tile: TileId) {
        let t = &self.tokens[tile.0 as usize];
        *t.lock.lock() = true;
        t.cv.notify_one();
    }

    fn sleep(&self, _tile: TileId, dur: Duration) {
        std::thread::sleep(dur);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn sleep_blocks_in_place() {
        let b = InlineBlocker::new(2);
        let t0 = std::time::Instant::now();
        b.sleep(TileId(1), Duration::from_millis(2));
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn park_consumes_prior_unpark_token() {
        let b = InlineBlocker::new(1);
        b.unpark(TileId(0));
        b.park(TileId(0)); // must not block: token was banked
    }

    #[test]
    fn unpark_wakes_parked_thread() {
        let b = Arc::new(InlineBlocker::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.park(TileId(1)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        b.unpark(TileId(1));
        h.join().unwrap();
    }

    #[test]
    fn tokens_are_per_tile() {
        let b = Arc::new(InlineBlocker::new(2));
        b.unpark(TileId(0));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.park(TileId(1)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!h.is_finished(), "tile 1 must not consume tile 0's token");
        b.unpark(TileId(1));
        h.join().unwrap();
        b.park(TileId(0));
    }
}
