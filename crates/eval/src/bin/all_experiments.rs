//! Run every experiment (Tables 4-7, Figure 1) at the requested scale.

#![forbid(unsafe_code)]

fn main() {
    let scale = dlearn_eval::scale_from_args();
    println!("Running all experiments at {scale:?} scale\n");
    println!(
        "{}",
        dlearn_eval::report::render_table4(&dlearn_eval::experiments::table4(scale))
    );
    println!(
        "{}",
        dlearn_eval::report::render_table5(&dlearn_eval::experiments::table5(scale))
    );
    println!(
        "{}",
        dlearn_eval::report::render_scaling(
            "Table 6: scaling the number of examples (with CFD violations)",
            &dlearn_eval::experiments::table6(scale)
        )
    );
    println!(
        "{}",
        dlearn_eval::report::render_table7(&dlearn_eval::experiments::table7(scale))
    );
    println!(
        "{}",
        dlearn_eval::report::render_scaling(
            "Figure 1 (left): scaling the number of examples (km=2)",
            &dlearn_eval::experiments::figure1_examples(scale)
        )
    );
    println!(
        "{}",
        dlearn_eval::report::render_sample_size(&dlearn_eval::experiments::figure1_sample_size(
            scale
        ))
    );
    println!(
        "{}",
        dlearn_eval::report::render_diversity(&dlearn_eval::experiments::learner_diversity(scale))
    );
}
