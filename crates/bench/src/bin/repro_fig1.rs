//! Regenerates Figure 1 of the paper: the example DFG and its data path.

fn main() {
    match bist_bench::figures::render_figure1() {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("figure 1 reproduction failed: {e}");
            std::process::exit(1);
        }
    }
}
