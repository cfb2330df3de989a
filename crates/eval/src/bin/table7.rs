//! Regenerate Table 7 of the paper.

#![forbid(unsafe_code)]

fn main() {
    let scale = dlearn_eval::scale_from_args();
    let rows = dlearn_eval::experiments::table7(scale);
    println!("{}", dlearn_eval::report::render_table7(&rows));
}
