//! Golden-file comparison for the byte-identical determinism gates.

use std::path::Path;

/// Hold `actual` to the golden file at `path`: panic if it drifted, or —
/// with `BLESS` set in the environment, the one name for regenerating any
/// golden in this workspace — (re)write the file instead. `what` names
/// the artifact in the failure message.
pub fn check(path: &Path, actual: &str, what: &str) {
    if std::env::var_os("BLESS").is_some() {
        let dir = path.parent().expect("a golden file lives in a directory");
        std::fs::create_dir_all(dir).expect("create golden dir");
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing — regenerate with BLESS=1");
    assert!(
        actual == golden,
        "{what} drifted from the golden file {}; if the change is \
         intentional, regenerate with BLESS=1 and commit the diff",
        path.display()
    );
}
