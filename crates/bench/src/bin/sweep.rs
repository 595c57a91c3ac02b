//! Run the sweep, hold it against the committed `BENCH_sweep.json`, then
//! overwrite that file: `cargo run --release -p atlas-bench --bin sweep`.
//! Prints README's "Current numbers" table and a line per gate verdict; exits
//! non-zero when a rule fails or the file cannot be read, parsed or written.
//! There is nothing to configure (see [`atlas_bench::sweep`]).

use atlas_bench::gate::{self, Verdict};
use atlas_bench::sweep;
use atlas_benchmark::json::Json;

const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");

fn main() -> Result<(), String> {
    // Read before the run replaces it. A checkout without the file skips the
    // relative rules; a file that does not parse is an error, not a skip.
    let committed = match std::fs::read_to_string(PATH) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{PATH} does not parse: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Null,
        Err(e) => return Err(format!("could not read {PATH}: {e}")),
    };
    let fresh = sweep::run();
    println!("\n{}", sweep::table(&fresh));
    let verdicts = gate::check(&fresh, &committed);
    verdicts.iter().for_each(|verdict| println!("{verdict}"));
    let count = |wanted: fn(&Verdict) -> bool| verdicts.iter().filter(|v| wanted(v)).count();
    let skipped = count(|v| matches!(v, Verdict::Skipped(_)));
    let failed = count(|v| matches!(v, Verdict::Fail(_)));
    let ok = verdicts.len() - skipped - failed;
    println!("{ok} ok / {skipped} skipped / {failed} failed");

    std::fs::write(PATH, fresh.pretty()).map_err(|e| format!("could not write {PATH}: {e}"))?;
    if failed > 0 {
        return Err("a gate rule failed — see the FAILED lines above".into());
    }
    Ok(())
}
