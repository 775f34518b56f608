//! The byte-identity contract for the paper figures: `fig09`, `fig10`
//! and `fig13` must reproduce their blocks in the committed
//! `docs/experiments_output.txt` exactly. A change that moves a number
//! either fixes a bug (regenerate the capture with `all_experiments`) or
//! is one.

/// The committed capture of `all_experiments`.
const CAPTURE: &str = include_str!("../../../docs/experiments_output.txt");

/// The block of `CAPTURE` that starts at the line `Figure {n}: ...` and
/// runs up to the blank line before the next `====` separator (or to the
/// end of the capture).
fn captured_block(n: u32) -> &'static str {
    let header = format!("Figure {n}:");
    let start = CAPTURE
        .match_indices(&header)
        .map(|(at, _)| at)
        .find(|&at| at == 0 || CAPTURE.as_bytes()[at - 1] == b'\n')
        .unwrap_or_else(|| panic!("no `{header}` line in the capture"));
    let rest = &CAPTURE[start..];
    let end = rest.find("\n\n====").map_or(rest.len(), |at| at + 1);
    &rest[..end]
}

fn assert_matches_capture(n: u32, generated: &str) {
    let expected = captured_block(n);
    if generated != expected {
        panic!(
            "Figure {n} drifted from docs/experiments_output.txt\n\
             --- captured ---\n{expected}--- generated ---\n{generated}"
        );
    }
}

#[test]
fn fig09_matches_the_capture() {
    assert_matches_capture(9, &lslp_bench::figures::fig09());
}

#[test]
fn fig10_matches_the_capture() {
    assert_matches_capture(10, &lslp_bench::figures::fig10());
}

#[test]
fn fig13_matches_the_capture() {
    assert_matches_capture(13, &lslp_bench::figures::fig13());
}
