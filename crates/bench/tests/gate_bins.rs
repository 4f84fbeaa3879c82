//! The `--check` contract of the real binaries: a check never writes
//! (pass or fail, the results directory is byte-identical afterwards),
//! any sim-clock drift fails it, and a committed artifact that lost or
//! renamed a leaf fails it with a message naming the leaf.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch results directory holding a copy of one committed artifact.
fn results_dir_with(test: &str, file: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch results dir");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::copy(committed, dir.join(file)).expect("committed artifact");
    dir
}

/// Runs `bin args…` against `dir`, asserts the directory still holds
/// exactly `file` with the bytes it had, and returns (passed, stderr).
fn check(bin: &str, args: &[&str], dir: &Path, file: &str) -> (bool, String) {
    let before = std::fs::read(dir.join(file)).expect("artifact");
    let out = Command::new(bin)
        .args(args)
        .env("FCC_RESULTS_DIR", dir)
        .output()
        .expect("bench binary runs");
    let after = std::fs::read(dir.join(file)).expect("artifact survives the check");
    assert!(before == after, "{bin} {args:?} rewrote {file}");
    let listing: Vec<_> = std::fs::read_dir(dir).expect("dir").collect();
    assert_eq!(listing.len(), 1, "{bin} {args:?} left files behind");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn edit(dir: &Path, file: &str, from: &str, to: &str) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).expect("artifact");
    assert!(text.contains(from), "{file} has no {from:?}");
    std::fs::write(&path, text.replacen(from, to, 1)).expect("edit artifact");
}

/// Moves the value of `key` in the point named `point` by one unit in
/// its last printed digit.
fn bump(dir: &Path, file: &str, point: &str, key: &str) {
    let path = dir.join(file);
    let mut text = std::fs::read_to_string(&path).expect("artifact");
    let row = text.find(&format!("\"name\": \"{point}\"")).expect("point");
    let value = row + text[row..].find(&format!("\"{key}\": ")).expect("key") + key.len() + 4;
    let end = value + text[value..].find([',', '}']).expect("value end");
    let last = text.as_bytes()[end - 1];
    assert!(last.is_ascii_digit(), "{point}.{key} is not a number");
    let moved = if last == b'9' { b'8' } else { last + 1 };
    text.replace_range(end - 1..end, &char::from(moved).to_string());
    std::fs::write(&path, text).expect("edit artifact");
}

#[test]
fn skew_check_never_writes_and_names_the_leaf_that_broke() {
    let (bin, file) = (env!("CARGO_BIN_EXE_skew"), "BENCH_skew.json");
    let dir = results_dir_with("skew_check", file);
    let (ok, stderr) = check(bin, &["--gate", "--check"], &dir, file);
    assert!(ok, "committed artifact must reproduce exactly: {stderr}");

    let pristine = std::fs::read(dir.join(file)).expect("artifact");
    bump(&dir, file, "static", "makespan_ns");
    for _ in 0..2 {
        // Twice: a failed check must not have replaced its own baseline.
        let (ok, stderr) = check(bin, &["--check"], &dir, file);
        assert!(!ok, "drifted makespan passed the check");
        assert!(stderr.contains("points.static.makespan_ns"), "{stderr}");
    }
    std::fs::write(dir.join(file), pristine).expect("restore artifact");

    // A renamed leaf is one leaf missing and one extra.
    edit(
        &dir,
        file,
        "\"stealing_vs_oracle\"",
        "\"stealing_vs_oracel\"",
    );
    let (ok, stderr) = check(bin, &["--check"], &dir, file);
    assert!(!ok, "renamed leaf passed the check");
    assert!(
        stderr.contains("stealing_vs_oracle is not in the committed artifact"),
        "{stderr}"
    );
    assert!(
        stderr.contains("stealing_vs_oracel is committed but the run did not produce it"),
        "{stderr}"
    );

    // A removed leaf: drop the renamed line altogether.
    let text = std::fs::read_to_string(dir.join(file)).expect("artifact");
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("stealing_vs_oracel"))
        .collect();
    std::fs::write(dir.join(file), kept.join("\n")).expect("edit artifact");
    let (ok, stderr) = check(bin, &["--check"], &dir, file);
    assert!(!ok, "removed leaf passed the check");
    assert!(
        stderr.contains("stealing_vs_oracle is not in the committed artifact"),
        "{stderr}"
    );
}

#[test]
fn scaleout_check_never_writes_and_holds_only_the_points_it_ran() {
    let (bin, file) = (env!("CARGO_BIN_EXE_fig15_scaleout"), "BENCH_scaleout.json");
    let dir = results_dir_with("scaleout_check", file);
    let args = ["--fast", "--point", "16", "--check"];
    let (ok, stderr) = check(bin, &args, &dir, file);
    assert!(ok, "committed 16-node points must reproduce: {stderr}");

    // Drift in a point the restricted run does not run is not its concern…
    bump(&dir, file, "torus-1024", "fused_ns");
    let (ok, stderr) = check(bin, &args, &dir, file);
    assert!(ok, "{stderr}");
    // …drift in one it runs is, wall-clock leaves excepted.
    bump(&dir, file, "torus-16", "wall_s");
    let (ok, stderr) = check(bin, &args, &dir, file);
    assert!(ok, "wall_s is ungated: {stderr}");
    bump(&dir, file, "torus-16", "fused_ns");
    let (ok, stderr) = check(bin, &args, &dir, file);
    assert!(!ok, "drifted fused_ns passed the check");
    assert!(stderr.contains("points.torus-16.fused_ns"), "{stderr}");
}
