//! Reproduce the fifteen figures of the paper's evaluation and print them
//! (see [`atlas_bench::figures`]). There is nothing to configure.

fn main() {
    for figure in atlas_bench::figures::all() {
        println!("{figure}");
    }
}
