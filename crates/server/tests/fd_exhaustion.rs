//! A client that holds more connections than the daemon has file
//! descriptors must not stop the service. `serve` runs under
//! `ulimit -n 128` while the test holds 200 connections: accepting fails
//! with `EMFILE` once the descriptors run out, and the event loop must
//! neither exit nor spin on the backlog it cannot drain. Once the
//! connections close, the daemon answers again and drains on SIGTERM.

use server::client;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// in the kernel's user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the process has used so far.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesized command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// The daemon under test, killed on drop so a failed assertion leaves
/// no process behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    /// Wait up to `limit` for the daemon to exit.
    fn wait_exit(&mut self, limit: Duration) -> Option<std::process::ExitStatus> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(status) = self.0.try_wait().expect("poll serve") {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

#[test]
fn running_out_of_descriptors_keeps_the_daemon_serving() {
    let port_file =
        std::env::temp_dir().join(format!("serve-fd-exhaustion-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut daemon = Daemon(
        Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 128 && exec "$0" --port 0 --port-file "$1" --corpus 16"#)
            .arg(env!("CARGO_BIN_EXE_serve"))
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );
    let pid = daemon.0.id();
    let deadline = Instant::now() + Duration::from_secs(60);
    let port = loop {
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse::<u16>().ok())
        {
            break port;
        }
        assert!(Instant::now() < deadline, "serve never wrote its port");
        assert!(
            daemon.0.try_wait().expect("poll serve").is_none(),
            "serve exited during boot"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let _ = std::fs::remove_file(&port_file);
    let addr = format!("127.0.0.1:{port}");

    let held: Vec<TcpStream> = (0..200)
        .map(|i| {
            TcpStream::connect(&addr).unwrap_or_else(|e| {
                panic!("connection {i}: {e}; serve: {:?}", daemon.0.try_wait())
            })
        })
        .collect();
    // Let the loop accept until the descriptors run out.
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_seconds(pid) - before;
    let exited = daemon.0.try_wait().expect("poll serve");
    drop(held);
    if let Some(status) = exited {
        panic!("serve exited with {status} while the connections were held");
    }
    assert!(
        spent < 0.2,
        "serve spent {spent:.2} s of CPU in 1 s holding a backlog it cannot accept"
    );

    let (status, body) = client::get(&addr, "/health").expect("health after the connections close");
    assert_eq!(status, 200, "{body}");
    let killed = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    match daemon.wait_exit(Duration::from_secs(10)) {
        Some(status) => assert!(status.success(), "serve drained with {status}"),
        None => panic!("serve did not drain within 10 s of SIGTERM"),
    }
}
