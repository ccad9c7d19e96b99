//! Regenerates Figures 2 and 3 of the paper: signature-register and TPG
//! assignment on the example data path.

fn main() {
    match bist_bench::figures::render_fig2_fig3() {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("figures 2/3 reproduction failed: {e}");
            std::process::exit(1);
        }
    }
}
