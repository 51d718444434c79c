//! The `graphite-serve` binary.
//!
//! ```text
//! graphite-serve [--addr 127.0.0.1:8080] [--data-dir DIR]
//!                [--workers N] [--quantum-ms MS] [--queue-depth N]
//!                [--drain-ms MS] [--log-level LEVEL] [--log-max-bytes N]
//!                [--hostprof]
//! ```
//!
//! SIGINT/SIGTERM trigger a graceful drain: running jobs are checkpointed at
//! their next quiesce point and the queue is persisted to
//! `DATA_DIR/queue.json`; a restarted server resumes exactly where this one
//! left off.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphite_config::{LogLevel, ServeConfig};
use graphite_serve::{serve, Service};

/// Set by the signal handler; the watcher thread turns it into a drain.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via the libc
/// `signal(2)` symbol directly — the repo vendors no `libc` crate.
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` is the C library's, declared with its C signature;
    // `on_signal` is an `extern "C"` function that only stores to an atomic,
    // which is async-signal-safe.
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: graphite-serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
         [--quantum-ms MS] [--queue-depth N] [--drain-ms MS] \
         [--log-level error|warn|info|debug] [--log-max-bytes N] [--hostprof]"
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = ServeConfig::default();
    let mut addr = "127.0.0.1:8080".to_owned();
    let mut data_dir =
        std::env::temp_dir().join("graphite-serve").into_os_string().into_string().unwrap();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--data-dir" => data_dir = value("--data-dir"),
            "--workers" => cfg.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--quantum-ms" => {
                cfg.quantum_ms = value("--quantum-ms").parse().unwrap_or_else(|_| usage());
            }
            "--queue-depth" => {
                cfg.queue_depth = value("--queue-depth").parse().unwrap_or_else(|_| usage());
            }
            "--drain-ms" => cfg.drain_ms = value("--drain-ms").parse().unwrap_or_else(|_| usage()),
            "--log-level" => {
                cfg.log_level = LogLevel::parse(&value("--log-level")).unwrap_or_else(|| usage());
            }
            "--log-max-bytes" => {
                cfg.log_max_bytes = value("--log-max-bytes").parse().unwrap_or_else(|_| usage());
            }
            "--hostprof" => cfg.hostprof = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    let svc = match Service::start(cfg, &data_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start service in {data_dir}: {e}");
            std::process::exit(1);
        }
    };

    install_signal_handlers();
    {
        let svc = Arc::clone(&svc);
        std::thread::Builder::new()
            .name("serve-signal-watch".into())
            .spawn(move || loop {
                if SIGNALED.load(Ordering::SeqCst) {
                    svc.logger()
                        .info("serve.signal", &[("drain_ms", svc.config().drain_ms.into())]);
                    svc.drain();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal watcher");
    }

    let svc_at_exit = Arc::clone(&svc);
    if let Err(e) = serve(svc, &addr) {
        svc_at_exit.logger().error("serve.error", &[("error", e.to_string().into())]);
        std::process::exit(1);
    }
    svc_at_exit.logger().info("serve.exit", &[("data_dir", data_dir.as_str().into())]);
}
