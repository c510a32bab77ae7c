//! The `tables` command line rejects what it does not know: usage on
//! stderr, nothing on stdout, exit status 2, before any table runs.

use std::process::Command;

#[test]
fn unknown_targets_and_bad_flags_exit_2_with_usage() {
    let cases: [&[&str]; 6] = [
        &["tabel3"],
        &["table1", "--bogus"],
        &["--scale", "abc", "table2"],
        &["table3", "--scale"],
        &["table3", "--out"],
        &["--checkpoint"],
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
