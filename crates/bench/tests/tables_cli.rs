//! The `tables` command line rejects what it does not know: usage on
//! stderr, nothing on stdout, exit status 2, before any table runs. A
//! write to the `--out` tee that fails names the path and exits 1.

use std::process::Command;

#[test]
fn unknown_targets_and_bad_flags_exit_2_with_usage() {
    let cases: [&[&str]; 7] = [
        &["tabel3"],
        &["table1", "--bogus"],
        &["--scale", "abc", "table2"],
        &["table3", "--scale"],
        &["table3", "--out"],
        &["--checkpoint", "x"],
        &["table1", "--resume"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("tables runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_tee_write_names_the_path_and_exits_1() {
    let output = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["figure2", "--out", "/dev/full"])
        .output()
        .expect("tables runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/dev/full"), "{stderr}");
}
