//! Run the learner-diversity experiment: every strategy (the five paper
//! systems plus FOIL and TILDE) cross-validated on the tree-shaped
//! segmentation dataset.

#![forbid(unsafe_code)]

fn main() {
    let scale = dlearn_eval::scale_from_args();
    println!("Running the learner-diversity experiment at {scale:?} scale\n");
    println!(
        "{}",
        dlearn_eval::report::render_diversity(&dlearn_eval::experiments::learner_diversity(scale))
    );
}
