//! `serve` refuses a combination of flags it cannot honour before it does
//! any work: exit 2 with the reason on stderr, and no corpus built.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_slow_log_without_an_access_log_exits_2_before_the_corpus_is_built() {
    let slow = std::env::temp_dir().join(format!("serve-flags-slow-{}.jsonl", std::process::id()));
    let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--slow-log")
        .arg(&slow)
        .args(["--corpus", "4"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // A daemon that accepted the flags would serve until stopped.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = serve.try_wait().expect("poll serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = serve.kill();
            let _ = serve.wait();
            panic!("serve accepted --slow-log without --access-log");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    serve.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--slow-log") && stderr.contains("--access-log"), "{stderr}");
    assert!(!stderr.contains("corpus ready"), "the corpus was built first: {stderr}");
    assert!(!slow.exists(), "the refused slow log was created");
}
