//! Differential harness for incremental view maintenance: seeded random
//! insert/load/mutate sequences run against randomly-shaped materialized
//! aggregates, and after *every* step the delta-maintained cells must
//! equal the live ROLAP SQL the cube engine runs for the same query, and
//! so must a roll-up of them — measures over INT columns exactly, SUM and
//! AVG over the FLOAT column to a 1e-9 relative tolerance. The oracle is
//! SQL, not a second [`MaterializedAggregate::build`]: a build folds the
//! fact table through the same kernel as an insert, so it would share
//! any fold bug. The AVG measure rides along in the shape pool so its
//! folds and roll-ups are exercised throughout, and dedicated tests pin
//! the AVG fold and the forced-rebuild fallback path.
//!
//! The seeds are the chaos suite's replay constants; a failure prints the
//! seed, sequence and step so it can be replayed exactly.

use std::sync::Arc;

use odbis_olap::{
    AggregateCache, Aggregator, CellSet, CubeDef, CubeEngine, CubeQuery, DimensionDef, LevelDef,
    LevelRef, MaterializedAggregate, MeasureDef, TableDelta,
};
use odbis_sql::Engine;
use odbis_storage::{Database, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
/// Sequences per seed — ≥100 total across both seeds.
const SEQUENCES_PER_SEED: usize = 60;
/// Delta batches per sequence, each followed by a full differential check
/// of every registered aggregate.
const STEPS_PER_SEQUENCE: usize = 6;

// ---------------------------------------------------------------- schema

fn star_db() -> Database {
    let db = Database::new();
    Engine::new()
        .execute_script(
            &db,
            "CREATE TABLE dim_store (store_id INT PRIMARY KEY, region TEXT, country TEXT, city TEXT);
             CREATE TABLE fact_sales (id INT PRIMARY KEY, store_id INT, year INT, month INT, amount DOUBLE, qty INT);
             INSERT INTO dim_store VALUES
               (1, 'EU', 'FR', 'Paris'), (2, 'EU', 'DE', 'Berlin'), (3, 'US', 'US', 'NYC');",
        )
        .expect("star schema DDL");
    db
}

/// The cube over [`star_db`], under a caller-chosen name so each random
/// shape is addressable in the cache independently.
fn star_cube(name: &str) -> CubeDef {
    CubeDef {
        name: name.into(),
        fact_table: "fact_sales".into(),
        dimensions: vec![
            DimensionDef {
                name: "store".into(),
                table: Some("dim_store".into()),
                fact_fk: "store_id".into(),
                dim_key: "store_id".into(),
                levels: vec![
                    LevelDef {
                        name: "region".into(),
                        column: "region".into(),
                    },
                    LevelDef {
                        name: "city".into(),
                        column: "city".into(),
                    },
                ],
            },
            DimensionDef {
                name: "time".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![
                    LevelDef {
                        name: "year".into(),
                        column: "year".into(),
                    },
                    LevelDef {
                        name: "month".into(),
                        column: "month".into(),
                    },
                ],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "revenue".into(),
                column: "amount".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "units".into(),
                column: "qty".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "orders".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
            MeasureDef {
                name: "peak".into(),
                column: "amount".into(),
                aggregator: Aggregator::Max,
            },
            MeasureDef {
                name: "low".into(),
                column: "qty".into(),
                aggregator: Aggregator::Min,
            },
            MeasureDef {
                name: "avg_amount".into(),
                column: "amount".into(),
                aggregator: Aggregator::Avg,
            },
        ],
    }
}

// ------------------------------------------------------------ generators

const AXIS_POOL: [(&str, &str); 4] = [
    ("time", "year"),
    ("time", "month"),
    ("store", "region"),
    ("store", "city"),
];
const MEASURE_POOL: [&str; 6] = ["revenue", "units", "orders", "peak", "low", "avg_amount"];

/// One random preagg shape: 1–3 distinct axes (snowflaked and degenerate
/// mixed freely) and 1–3 distinct measures drawn from the full aggregator
/// set, AVG included.
fn gen_shape(rng: &mut StdRng) -> (Vec<LevelRef>, Vec<String>) {
    let n_axes = rng.random_range(1..=3usize);
    let mut axes: Vec<LevelRef> = Vec::new();
    while axes.len() < n_axes {
        let (d, l) = AXIS_POOL[rng.random_range(0..AXIS_POOL.len())];
        if !axes.iter().any(|a| a.dimension == d && a.level == l) {
            axes.push(LevelRef::new(d, l));
        }
    }
    let n_measures = rng.random_range(1..=3usize);
    let mut measures: Vec<String> = Vec::new();
    while measures.len() < n_measures {
        let m = MEASURE_POOL[rng.random_range(0..MEASURE_POOL.len())];
        if !measures.iter().any(|x| x == m) {
            measures.push(m.into());
        }
    }
    (axes, measures)
}

/// A random fact row in schema order. Six percent of rows carry a foreign
/// key with no dimension match and four percent a NULL one (both invisible
/// to the inner join of the fold and of the live SQL); amounts and
/// quantities are occasionally NULL so the NULL-skipping fold rules are
/// exercised.
fn gen_fact_row(rng: &mut StdRng, id: i64, max_store: i64) -> Vec<Value> {
    let roll = rng.random_range(0..100i64);
    let store = if roll < 6 {
        Value::Int(999)
    } else if roll < 10 {
        Value::Null
    } else {
        Value::Int(rng.random_range(1..=max_store))
    };
    let amount = if rng.random_bool(0.1) {
        Value::Null
    } else {
        Value::Float(rng.random_range(10..50_000i64) as f64 / 10.0)
    };
    let qty = if rng.random_bool(0.1) {
        Value::Null
    } else {
        Value::Int(rng.random_range(1..20i64))
    };
    vec![
        Value::Int(id),
        store,
        Value::Int(rng.random_range(2008..=2012i64)),
        Value::Int(rng.random_range(1..=12i64)),
        amount,
        qty,
    ]
}

fn lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{s}'"),
        other => panic!("unexpected literal {other:?}"),
    }
}

fn insert_sql(table: &str, rows: &[Vec<Value>]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.iter().map(lit).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

// ------------------------------------------------------------ comparison

/// The measures that add FLOAT inputs: their last bits depend on the order
/// of the additions. Every other measure is exact.
const FLOAT_SUMS: [&str; 2] = ["revenue", "avg_amount"];

fn assert_cells_match(ctx: &str, maintained: &CellSet, live: &CellSet) {
    assert_eq!(
        maintained.cells.len(),
        live.cells.len(),
        "cell count diverged ({ctx}): {maintained:?} vs {live:?}"
    );
    for ((mk, mv), (rk, rv)) in maintained.cells.iter().zip(&live.cells) {
        assert_eq!(mk, rk, "cell coordinates diverged ({ctx})");
        for ((a, b), name) in mv.iter().zip(rv).zip(&live.measure_names) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) if FLOAT_SUMS.contains(&name.as_str()) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= 1e-9 * scale,
                        "float cell diverged ({ctx}) at {mk:?}: {x} vs {y}"
                    );
                }
                _ => assert_eq!(a, b, "cell value diverged ({ctx}) at {mk:?}"),
            }
        }
    }
}

/// Every registered shape must answer its exact-match query, and the
/// roll-up that drops its first axis, identically to the live SQL. The
/// roll-up goes live instead when it reads no `store` axis of a shape
/// that joins `dim_store`: its SQL would count the rows the join hides.
fn verify_all(
    ctx: &str,
    cache: &AggregateCache,
    engine: &CubeEngine,
    shapes: &[(CubeDef, Vec<LevelRef>, Vec<String>)],
) {
    let joins = |axes: &[LevelRef]| axes.iter().any(|a| a.dimension == "store");
    for (cube, axes, measures) in shapes {
        let rollup = &axes[1..];
        for (axes, answered) in [(&axes[..], true), (rollup, !joins(axes) || joins(rollup))] {
            let q = CubeQuery {
                axes: axes.to_vec(),
                slices: vec![],
                measures: measures.clone(),
            };
            let what = format!("{ctx}, cube {}, axes {axes:?}", cube.name);
            let maintained = cache.try_answer(&cube.name, &q);
            assert_eq!(maintained.is_some(), answered, "cache answered? ({what})");
            let live = engine
                .query(cube, &q)
                .unwrap_or_else(|e| panic!("live query failed ({what}): {e}"));
            if let Some(maintained) = maintained {
                assert_cells_match(&what, &maintained, &live);
            }
        }
    }
}

// -------------------------------------------------------- the sequences

/// INSERT `n` random fact rows (ids from `next_id` on) as one statement;
/// the delta it publishes.
fn insert_facts(
    db: &Database,
    rng: &mut StdRng,
    n: usize,
    next_id: &mut i64,
    max_store: i64,
) -> TableDelta {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            let row = gen_fact_row(rng, *next_id, max_store);
            *next_id += 1;
            row
        })
        .collect();
    Engine::new()
        .execute(db, &insert_sql("fact_sales", &rows))
        .unwrap();
    TableDelta::Insert {
        table: "fact_sales".into(),
        rows,
    }
}

/// UPDATE a level column of one random store: its region moves (say EU →
/// APAC) or it takes another store's city, merging two city cells. The
/// folds' dimension maps must not keep the old member.
fn update_store(db: &Database, rng: &mut StdRng, max_store: i64) -> TableDelta {
    let id = rng.random_range(1..=max_store);
    let set = if rng.random_bool(0.5) {
        format!(
            "region = '{}'",
            ["EU", "US", "APAC"][rng.random_range(0..3usize)]
        )
    } else {
        format!("city = 'City{}'", rng.random_range(1..=max_store))
    };
    Engine::new()
        .execute(
            db,
            &format!("UPDATE dim_store SET {set} WHERE store_id = {id}"),
        )
        .unwrap();
    TableDelta::Mutate {
        table: "dim_store".into(),
    }
}

/// One random warehouse-write sequence: fresh star schema, 1–3 random
/// aggregate shapes, then [`STEPS_PER_SEQUENCE`] batches of 1–3 random
/// writes, each write applied to the warehouse *and* turned into a delta,
/// each batch applied to the cache at once and followed by a full
/// differential check. A batch of fact inserts alone must fold into every
/// aggregate and rebuild none.
fn run_sequence(seed: u64, sequence: usize, rng: &mut StdRng) {
    let db = Arc::new(star_db());
    let sql = Engine::new();
    let engine = CubeEngine::new(Arc::clone(&db));

    let mut next_id: i64 = 1;
    let mut next_store: i64 = 4;
    let mut max_store: i64 = 3;

    // a few initial fact rows so the aggregates start non-trivial
    let n = rng.random_range(2..6usize);
    insert_facts(&db, rng, n, &mut next_id, max_store);

    let n_shapes = rng.random_range(1..=3usize);
    let mut shapes = Vec::with_capacity(n_shapes);
    let mut cache = AggregateCache::new();
    for s in 0..n_shapes {
        let (axes, measures) = gen_shape(rng);
        let cube = star_cube(&format!("cube_{seed}_{sequence}_{s}"));
        cache
            .add(MaterializedAggregate::build(&db, &cube, axes.clone(), measures.clone()).unwrap());
        shapes.push((cube, axes, measures));
    }

    for step in 0..STEPS_PER_SEQUENCE {
        // one publication: 1–3 writes commit before their deltas apply,
        // so a rebuild one of them forces reads the others' rows too
        let mut batch = Vec::new();
        for _ in 0..rng.random_range(1..=3usize) {
            match rng.random_range(0..100i64) {
                // single-row (or small) INSERT — the hot fold path
                0..45 => {
                    let n = rng.random_range(1..=3usize);
                    batch.push(insert_facts(&db, rng, n, &mut next_id, max_store));
                }
                // bulk load: one delta carrying many rows
                45..58 => {
                    let n = rng.random_range(10..=30usize);
                    batch.push(insert_facts(&db, rng, n, &mut next_id, max_store));
                }
                // UPDATE: not foldable, dependent aggregates must rebuild
                58..66 => {
                    let id = rng.random_range(1..next_id.max(2));
                    let amount = rng.random_range(10..50_000i64) as f64 / 10.0;
                    sql.execute(
                        &db,
                        &format!("UPDATE fact_sales SET amount = {amount:?} WHERE id = {id}"),
                    )
                    .unwrap();
                    batch.push(TableDelta::Mutate {
                        table: "fact_sales".into(),
                    });
                }
                // DELETE: likewise rebuild-only
                66..74 => {
                    let id = rng.random_range(1..next_id.max(2));
                    sql.execute(&db, &format!("DELETE FROM fact_sales WHERE id = {id}"))
                        .unwrap();
                    batch.push(TableDelta::Mutate {
                        table: "fact_sales".into(),
                    });
                }
                // dimension-table insert: rebuilds snowflaked aggregates,
                // leaves purely degenerate ones untouched
                74..82 => {
                    let row = vec![
                        Value::Int(next_store),
                        Value::Text(["EU", "US", "APAC"][rng.random_range(0..3usize)].into()),
                        Value::Text(format!("C{next_store}")),
                        Value::Text(format!("City{next_store}")),
                    ];
                    sql.execute(&db, &insert_sql("dim_store", std::slice::from_ref(&row)))
                        .unwrap();
                    max_store = next_store;
                    next_store += 1;
                    batch.push(TableDelta::Insert {
                        table: "dim_store".into(),
                        rows: vec![row],
                    });
                }
                // dimension UPDATE of a level column
                82..89 => batch.push(update_store(&db, rng, max_store)),
                // dimension DELETE: that store's facts leave the join
                89..94 => {
                    let id = rng.random_range(1..=max_store);
                    sql.execute(&db, &format!("DELETE FROM dim_store WHERE store_id = {id}"))
                        .unwrap();
                    batch.push(TableDelta::Mutate {
                        table: "dim_store".into(),
                    });
                }
                // a dimension UPDATE, then a fact INSERT in the same batch:
                // the insert must not fold through the pre-update members
                _ => {
                    batch.push(update_store(&db, rng, max_store));
                    let n = rng.random_range(1..=3usize);
                    batch.push(insert_facts(&db, rng, n, &mut next_id, max_store));
                }
            }
        }
        let ctx = format!("seed {seed}, sequence {sequence}, step {step}");
        let fact_inserts = batch
            .iter()
            .filter(|d| matches!(d, TableDelta::Insert { table, .. } if table == "fact_sales"))
            .count();
        let only_fact_inserts = fact_inserts == batch.len();
        // every aggregate is fresh here: each batch ends in its rebuilds
        let fresh_dependents = cache.len();
        let report = cache.apply_deltas(&db, batch, |_| false);
        if only_fact_inserts {
            assert_eq!(
                (report.folded, report.rebuilt),
                (fact_inserts * fresh_dependents, 0),
                "a batch of fact inserts must fold, not rebuild ({ctx})"
            );
        }
        verify_all(&ctx, &cache, &engine, &shapes);
    }
}

#[test]
fn delta_maintained_cells_match_full_rebuild_after_every_step() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for sequence in 0..SEQUENCES_PER_SEED {
            run_sequence(seed, sequence, &mut rng);
        }
    }
}

// ----------------------------------------------- pinned protocol details

/// The AVG fold: a cell keeps the sum and the count of its inputs, so an
/// insert folds in, and the finished mean matches the live SQL engine.
#[test]
fn avg_decomposition_folds_and_matches_live_engine() {
    let db = Arc::new(star_db());
    let sql = Engine::new();
    let engine = CubeEngine::new(Arc::clone(&db));
    let cube = star_cube("avg_pin");
    sql.execute(
        &db,
        "INSERT INTO fact_sales VALUES (1, 1, 2009, 1, 10.5, 1), (2, 2, 2009, 2, 20.25, 2)",
    )
    .unwrap();
    let axes = vec![LevelRef::new("store", "region")];
    let mut cache = AggregateCache::new();
    cache.add(
        MaterializedAggregate::build(&db, &cube, axes.clone(), vec!["avg_amount".into()]).unwrap(),
    );
    // three inserts: an existing cell, a NULL amount (must not shift the
    // mean), and a brand-new cell
    let rows = vec![
        vec![
            Value::Int(3),
            Value::Int(1),
            Value::Int(2010),
            Value::Int(1),
            Value::Float(39.25),
            Value::Int(1),
        ],
        vec![
            Value::Int(4),
            Value::Int(2),
            Value::Int(2010),
            Value::Int(2),
            Value::Null,
            Value::Int(5),
        ],
        vec![
            Value::Int(5),
            Value::Int(3),
            Value::Int(2010),
            Value::Int(3),
            Value::Float(7.75),
            Value::Int(1),
        ],
    ];
    sql.execute(&db, &insert_sql("fact_sales", &rows)).unwrap();
    let insert = TableDelta::Insert {
        table: "fact_sales".into(),
        rows,
    };
    let report = cache.apply_deltas(&db, vec![insert], |_| false);
    assert_eq!(report.folded, 1, "AVG insert must fold, not rebuild");
    let q = CubeQuery {
        axes: axes.clone(),
        slices: vec![],
        measures: vec!["avg_amount".into()],
    };
    let maintained = cache.try_answer("avg_pin", &q).unwrap();
    let live = engine.query(&cube, &q).unwrap();
    assert_cells_match("avg pin vs live engine", &maintained, &live);
}

/// The forced-rebuild fallback: a delta the fold cannot express (here a
/// ragged batch whose rows disagree on arity) must degrade to a rebuild —
/// never a wrong fold, never a panic — and still converge.
#[test]
fn unfoldable_delta_falls_back_to_rebuild_and_converges() {
    let db = Arc::new(star_db());
    let sql = Engine::new();
    let engine = CubeEngine::new(Arc::clone(&db));
    let cube = star_cube("fallback_pin");
    sql.execute(
        &db,
        "INSERT INTO fact_sales VALUES (1, 1, 2009, 1, 10.0, 1)",
    )
    .unwrap();
    let axes = vec![LevelRef::new("time", "year")];
    let mut cache = AggregateCache::new();
    cache.add(
        MaterializedAggregate::build(
            &db,
            &cube,
            axes.clone(),
            vec!["revenue".into(), "orders".into()],
        )
        .unwrap(),
    );
    // the warehouse gets a real row, but the delta is ragged
    sql.execute(
        &db,
        "INSERT INTO fact_sales VALUES (2, 2, 2011, 1, 55.0, 2)",
    )
    .unwrap();
    let ragged = TableDelta::Insert {
        table: "fact_sales".into(),
        rows: vec![
            vec![
                Value::Int(2),
                Value::Int(2),
                Value::Int(2011),
                Value::Int(1),
                Value::Float(55.0),
                Value::Int(2),
            ],
            vec![Value::Int(99)], // arity mismatch: Batch construction fails
        ],
    };
    let report = cache.apply_deltas(&db, vec![ragged], |_| false);
    assert_eq!(report.folded, 0, "a ragged delta must not fold");
    assert_eq!(report.rebuilt, 1, "fallback must rebuild the aggregate");
    let q = CubeQuery {
        axes: axes.clone(),
        slices: vec![],
        measures: vec!["revenue".into(), "orders".into()],
    };
    let maintained = cache.try_answer("fallback_pin", &q).unwrap();
    let live = engine.query(&cube, &q).unwrap();
    assert_cells_match("fallback pin vs live engine", &maintained, &live);
}
