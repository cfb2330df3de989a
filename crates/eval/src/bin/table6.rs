//! Regenerate Table 6 of the paper.

#![forbid(unsafe_code)]

fn main() {
    let scale = dlearn_eval::scale_from_args();
    let rows = dlearn_eval::experiments::table6(scale);
    println!(
        "{}",
        dlearn_eval::report::render_scaling(
            "Table 6: scaling the number of examples (with CFD violations)",
            &rows
        )
    );
}
