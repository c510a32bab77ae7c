//! SIGTERM stops an idle daemon at once. `serve` blocks SIGTERM and
//! SIGINT on every thread, and one thread takes them with `sigwait` and
//! wakes every event loop. An idle loop waits only for an event, a wake or
//! a deadline of its own, so no loop sleeps through the drain.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest time from sending SIGTERM to the daemon's exit.
const EXIT_WITHIN: Duration = Duration::from_millis(100);

/// The daemon under test, killed on drop so a failed assertion leaves
/// no process behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_stops_an_idle_two_loop_daemon_at_once() {
    // Signal offsets after boot, spread so that a loop that looked at the
    // drain flag only on a periodic timer would miss the bound in some.
    for (round, offset_ms) in [130u64, 310, 470, 620, 890].into_iter().enumerate() {
        let port_file =
            std::env::temp_dir().join(format!("serve-signals-{}-{round}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut daemon = Daemon(
            Command::new(env!("CARGO_BIN_EXE_serve"))
                .args(["--port", "0", "--corpus", "4", "--workers", "2", "--port-file"])
                .arg(&port_file)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn serve"),
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        while !std::fs::read_to_string(&port_file).is_ok_and(|text| text.ends_with('\n')) {
            assert!(Instant::now() < deadline, "round {round}: serve never wrote its port");
            assert!(daemon.0.try_wait().expect("poll serve").is_none(), "serve exited during boot");
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = std::fs::remove_file(&port_file);
        std::thread::sleep(Duration::from_millis(offset_ms));

        let sent = Instant::now();
        let killed = Command::new("kill")
            .args(["-TERM", &daemon.0.id().to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success());
        let status = loop {
            if let Some(status) = daemon.0.try_wait().expect("poll serve") {
                break status;
            }
            assert!(sent.elapsed() < Duration::from_secs(10), "round {round}: serve never exited");
            std::thread::sleep(Duration::from_millis(1));
        };
        let took = sent.elapsed();
        let mut log = String::new();
        daemon.0.stderr.take().expect("piped stderr").read_to_string(&mut log).expect("read log");
        assert!(status.success(), "round {round}: serve exited with {status}:\n{log}");
        assert!(log.contains("drained and stopped"), "round {round}: no drain logged:\n{log}");
        assert!(
            took <= EXIT_WITHIN,
            "round {round}: serve exited {took:?} after SIGTERM, {offset_ms} ms after boot"
        );
    }
}
