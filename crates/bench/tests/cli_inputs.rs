//! The `report` binary on hostile input: each case must end in a clean,
//! non-zero exit with an error message, never an abort or a hang.

use std::process::Command;

#[test]
fn journal_diff_on_deeply_nested_json_errors_without_aborting() {
    let dir = std::env::temp_dir().join(format!("labchip-cli-inputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("journal-diff")
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&output.stderr);
    // A stack overflow aborts (SIGABRT, no exit code); a clean error exits 2.
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("is not a journal JSON"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}
