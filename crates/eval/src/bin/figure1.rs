//! Regenerate Figure 1 of the paper (all three panels).

#![forbid(unsafe_code)]

fn main() {
    let scale = dlearn_eval::scale_from_args();
    let left = dlearn_eval::experiments::figure1_examples(scale);
    println!(
        "{}",
        dlearn_eval::report::render_scaling(
            "Figure 1 (left): scaling the number of examples (km=2)",
            &left
        )
    );
    let sweep = dlearn_eval::experiments::figure1_sample_size(scale);
    println!("{}", dlearn_eval::report::render_sample_size(&sweep));
}
