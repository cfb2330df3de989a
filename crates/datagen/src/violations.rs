//! CFD-violation injection (Section 6.1.2 of the paper).
//!
//! "To test the performance of DLearn on data that contains CFD violations,
//! we inject each dataset with varying proportions of CFD violations `p`."
//! A violation is injected by duplicating a tuple of the CFD's relation and
//! perturbing the duplicate's right-hand-side value, so the pair disagrees on
//! the RHS while agreeing on the LHS.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use dlearn_constraints::Cfd;
use dlearn_relstore::{Database, Value};

/// Inject CFD violations into `database` so that roughly `rate` of the tuples
/// of each constrained relation participate in a violation. Returns the
/// number of violating duplicates inserted.
pub fn inject_cfd_violations(
    database: &mut Database,
    cfds: &[Cfd],
    rate: f64,
    rng: &mut StdRng,
) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let mut injected = 0usize;
    for cfd in cfds {
        let Some(relation) = database.relation(cfd.relation) else {
            continue;
        };
        let rhs_index = cfd.rhs_index(relation);
        let n = relation.len();
        if n == 0 {
            continue;
        }
        // Each duplicate makes (at least) two tuples violating, so inject
        // rate/2 * n duplicates per relation.
        let count = ((rate * n as f64) / 2.0).ceil() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        ids.truncate(count);
        let mut new_rows = Vec::new();
        for id in ids {
            let Some(tuple) = relation.tuple(id) else {
                continue;
            };
            let mut dirty = tuple.clone();
            let current = dirty.value(rhs_index).cloned().unwrap_or(Value::Null);
            dirty.set_value(
                rhs_index,
                perturb_value(&current, relation.distinct_values(rhs_index), rng),
            );
            new_rows.push(dirty);
        }
        let name = cfd.relation;
        for row in new_rows {
            if database.insert(name, row).is_ok() {
                injected += 1;
            }
        }
    }
    injected
}

/// Produce a value different from `current`, preferring another value already
/// present in the column's domain. The domain arrives in hash order, so it is
/// sorted first: the draw then depends on the seed alone.
fn perturb_value(current: &Value, mut domain: Vec<&Value>, rng: &mut StdRng) -> Value {
    domain.sort_unstable();
    let alternatives: Vec<&&Value> = domain.iter().filter(|v| *v != &current).collect();
    if !alternatives.is_empty() && rng.gen_bool(0.7) {
        return *(*alternatives[rng.gen_range(0..alternatives.len())]);
    }
    match current {
        Value::Int(i) => Value::Int(*i + rng.gen_range(1..5i64)),
        Value::Str(s) => Value::str(format!("{s} ?")),
        Value::Null => Value::str("unknown"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_constraints::all_cfds_satisfied;
    use dlearn_relstore::{DatabaseBuilder, RelationBuilder};
    use rand::SeedableRng;

    fn db() -> Database {
        let mut builder = DatabaseBuilder::new().relation(
            RelationBuilder::new("movies")
                .int_attr("id")
                .str_attr("title")
                .int_attr("year")
                .build(),
        );
        for i in 0..40i64 {
            builder = builder.row(
                "movies",
                vec![
                    Value::int(i),
                    Value::str(format!("Movie {i}")),
                    Value::int(1980 + i),
                ],
            );
        }
        builder.build()
    }

    #[test]
    fn injection_creates_violations_at_roughly_the_requested_rate() {
        let mut database = db();
        let cfds = vec![Cfd::fd("year", "movies", vec!["id"], "year")];
        assert!(all_cfds_satisfied(&database, &cfds));
        let mut rng = StdRng::seed_from_u64(11);
        let injected = inject_cfd_violations(&mut database, &cfds, 0.2, &mut rng);
        assert!(injected >= 4, "injected: {injected}");
        assert!(!all_cfds_satisfied(&database, &cfds));
        let violating = cfds[0]
            .find_violations(database.relation("movies").unwrap())
            .len();
        assert!(violating >= injected, "violations: {violating}");
    }

    #[test]
    fn zero_rate_is_a_no_op() {
        let mut database = db();
        let cfds = vec![Cfd::fd("year", "movies", vec!["id"], "year")];
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(
            inject_cfd_violations(&mut database, &cfds, 0.0, &mut rng),
            0
        );
        assert_eq!(database.total_tuples(), 40);
    }

    #[test]
    fn one_seed_generates_one_dirty_database() {
        let rows = || {
            let dataset = crate::generate_movie_dataset(
                &crate::MovieConfig::tiny().with_violation_rate(0.2),
                5,
            );
            let mut rows: Vec<String> = dataset
                .task
                .database
                .relations()
                .flat_map(|r| r.iter().map(move |(_, t)| format!("{}{t}", r.name())))
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(rows(), rows());
    }

    #[test]
    fn perturbed_values_differ_from_the_original() {
        let mut rng = StdRng::seed_from_u64(2);
        let original = Value::int(1990);
        for _ in 0..20 {
            let domain_owned = [Value::int(1991), Value::int(1992)];
            let domain: Vec<&Value> = domain_owned.iter().collect();
            assert_ne!(perturb_value(&original, domain, &mut rng), original);
        }
    }
}
