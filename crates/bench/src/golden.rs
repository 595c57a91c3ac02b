//! Answers as reviewable text, pinned by files under `tests/golden/`.
//!
//! A pinned answer — a recommendation's front, a baseline's front, the
//! printed figures — is written as text and compared with its recorded file
//! by [`check`]. A moved answer fails with the lines that moved. To
//! re-record, delete the files, run the tests (each missing file is written
//! and its test fails once), review `git diff tests/golden` and commit.

use std::io::ErrorKind;
use std::path::Path;

use atlas_core::RecommendationReport;
use atlas_sim::SiteId;

/// A site assignment as one digit per component (`"0010"`).
pub fn sites_text(sites: &[SiteId]) -> String {
    let digit = |s: &SiteId| {
        assert!(s.index() < 10, "one digit per site: {s} has two");
        char::from(b'0' + s.index() as u8)
    };
    sites.iter().map(digit).collect()
}

/// What a recommendation promises to keep stable, one line each: `visited`,
/// the agent's reward curve, then every plan in front order — its sites and
/// `q_perf`, `q_avai` and `cost`, with ` infeasible` after an infeasible
/// plan. `{:?}` prints an `f64` that parses back to the same bits, so equal
/// text is a bit-identical front (every NaN prints as `NaN`).
pub fn front_text(report: &RecommendationReport) -> String {
    let (visited, rewards) = (report.visited, &report.reward_progression);
    let mut text = format!("visited {visited}\nreward {rewards:?}\n");
    for recommended in &report.plans {
        let q = &recommended.quality;
        let (perf, avai, cost) = (q.performance, q.availability, q.cost);
        let sites = sites_text(recommended.plan.sites());
        let verdict = if q.feasible { "" } else { " infeasible" };
        text += &format!("{sites} {perf:?} {avai:?} {cost:?}{verdict}\n");
    }
    text
}

/// Compare `actual` with the recorded `tests/golden/<name>`, panicking with
/// the lines that differ. A missing file is written from `actual` and the
/// call still panics, so a recording never passes unreviewed.
pub fn check(name: &str, actual: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let path = dir.join(name);
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == actual => {}
        Ok(recorded) => panic!(
            "tests/golden/{name} moved (- recorded, + now):\n{}",
            diff(&recorded, actual)
        ),
        Err(e) if e.kind() == ErrorKind::NotFound => {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, actual).expect("write a golden file");
            panic!("recorded tests/golden/{name}: review it with git diff, commit it, re-run");
        }
        Err(e) => panic!("cannot read tests/golden/{name}: {e}"),
    }
}

/// A positional line diff: for each line number at which the two texts
/// differ, the recorded line after `- ` and the current one after `+ `.
/// A line only one side has prints only that side.
fn diff(recorded: &str, now: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (recorded.lines().collect(), now.lines().collect());
    if old == new {
        return "the lines agree; the line endings differ\n".to_string();
    }
    let mut out = String::new();
    for i in 0..old.len().max(new.len()) {
        let (was, is) = (old.get(i), new.get(i));
        if was != is {
            out += &format!("line {}:\n", i + 1);
            out.extend(was.map(|line| format!("- {line}\n")));
            out.extend(is.map(|line| format!("+ {line}\n")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_each_moved_line_by_position() {
        let recorded = "visited 3\na 1.0\nb 2.0\n";
        let changed = "visited 3\na 1.5\nb 2.0\n";
        assert_eq!(diff(recorded, changed), "line 2:\n- a 1.0\n+ a 1.5\n");
        let extra = "visited 3\na 1.0\nb 2.0\nc 3.0\n";
        assert_eq!(diff(recorded, extra), "line 4:\n+ c 3.0\n");
        let missing = "visited 3\na 1.0\n";
        assert_eq!(diff(recorded, missing), "line 3:\n- b 2.0\n");
        let unterminated = "visited 3\na 1.0\nb 2.0";
        assert!(diff(recorded, unterminated).contains("line endings differ"));
    }
}
