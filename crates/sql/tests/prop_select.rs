//! Seeded property test for selections: `BExpr::select` over a
//! batch must return exactly the rows where the row-at-a-time oracle's
//! `truth(pred.eval(row))` is TRUE, in order, and must fail exactly when
//! the oracle fails on some row.
//!
//! The batches are built column by column: every `ColumnData` layout, null
//! bitmaps whose flagged slots hold arbitrary placeholder data (a kernel
//! that reads one compares garbage), `Mixed` columns with and without a
//! bitmap, NaN of both signs, ±0.0 and ±inf, and zero or one rows. The
//! predicates compare a column with a literal on either side, two columns
//! (of one layout, `Int` with `Float`, or layouts that only `Value`
//! compares), arithmetic that can divide by zero or meet a TEXT operand,
//! and nest those under AND, OR, NOT, IS NULL, BETWEEN, IN, LIKE and CASE.
//! An IN list holds literals, columns and arithmetic that can fail, so an
//! item must only run on the rows no earlier item matched, as the row path
//! stops at the first hit. A failure prints the seed, the batch and the
//! predicate.

use odbis_sql::ast::{BinOp, UnOp};
use odbis_sql::expr::truth;
use odbis_sql::BExpr;
use odbis_storage::{Batch, ColumnData, ColumnVec, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEEDS: [u64; 2] = [0x5e1e_c7ed, 2_718_281_828];
const BATCHES_PER_SEED: usize = 300;
const PREDICATES_PER_BATCH: usize = 30;

const FLOATS: [f64; 11] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    1.0,
    1.5,
    -2.0,
    3.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    2.0,
];
const TEXTS: [&str; 7] = ["", "a", "b", "B", "ab", "a%", "ba"];
/// Midnight of day 1, so a `Date` and a `Timestamp` can compare equal.
const DAY_US: i64 = 86_400_000_000;

/// The layout of each column of a generated batch. Two columns of most
/// layouts, so column-vs-column comparisons meet their own layout.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    Int,
    Float,
    Text,
    Bool,
    Date,
    Timestamp,
    Mixed,
}

const LAYOUTS: [Layout; 12] = [
    Layout::Int,
    Layout::Int,
    Layout::Float,
    Layout::Float,
    Layout::Text,
    Layout::Text,
    Layout::Bool,
    Layout::Bool,
    Layout::Date,
    Layout::Timestamp,
    Layout::Timestamp,
    Layout::Mixed,
];

fn float(rng: &mut StdRng) -> f64 {
    FLOATS[rng.random_range(0..FLOATS.len())]
}

fn text(rng: &mut StdRng) -> String {
    TEXTS[rng.random_range(0..TEXTS.len())].to_string()
}

fn int(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..20) {
        0 => i64::MAX,
        1 => i64::MIN + 1,
        _ => rng.random_range(-3..4i64),
    }
}

/// A non-NULL value of `layout` (`Mixed` picks INT, FLOAT or TEXT).
fn value(rng: &mut StdRng, layout: Layout) -> Value {
    match layout {
        Layout::Int => Value::Int(int(rng)),
        Layout::Float => Value::Float(float(rng)),
        Layout::Text => Value::Text(text(rng)),
        Layout::Bool => Value::Bool(rng.random_bool(0.5)),
        Layout::Date => Value::Date(rng.random_range(-2..3i32)),
        Layout::Timestamp => Value::Timestamp(match rng.random_range(0..3) {
            0 => DAY_US * rng.random_range(-1..3i64),
            _ => rng.random_range(-3..4i64),
        }),
        Layout::Mixed => {
            let of = [Layout::Int, Layout::Float, Layout::Text][rng.random_range(0..3)];
            value(rng, of)
        }
    }
}

/// One column of `rows` slots. A typed column may carry a bitmap; its
/// flagged slots keep whatever the generator put there.
fn column(rng: &mut StdRng, layout: Layout, rows: usize) -> ColumnVec {
    let nulls: Option<Vec<bool>> = rng
        .random_bool(0.6)
        .then(|| (0..rows).map(|_| rng.random_bool(0.25)).collect());
    let mut values: Vec<Value> = (0..rows).map(|_| value(rng, layout)).collect();
    macro_rules! typed {
        ($variant:ident, $pat:ident) => {
            ColumnData::$variant(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::$pat(x) => x,
                        other => unreachable!("{other:?}"),
                    })
                    .collect(),
            )
        };
    }
    let data = match layout {
        Layout::Int => typed!(Int, Int),
        Layout::Float => typed!(Float, Float),
        Layout::Text => typed!(Text, Text),
        Layout::Bool => typed!(Bool, Bool),
        Layout::Date => typed!(Date, Date),
        Layout::Timestamp => typed!(Timestamp, Timestamp),
        Layout::Mixed => {
            // a `Mixed` column holds most of its NULLs inline
            for v in &mut values {
                if rng.random_bool(0.2) {
                    *v = Value::Null;
                }
            }
            ColumnData::Mixed(values)
        }
    };
    ColumnVec::new(data, nulls)
}

fn batch(rng: &mut StdRng) -> Batch {
    let rows = match rng.random_range(0..10) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2..40usize),
    };
    let columns = LAYOUTS.iter().map(|&l| column(rng, l, rows)).collect();
    Batch::from_columns(columns).unwrap()
}

fn bin(op: BinOp, left: BExpr, right: BExpr) -> BExpr {
    BExpr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn col(rng: &mut StdRng) -> (BExpr, Layout) {
    let c = rng.random_range(0..LAYOUTS.len());
    (BExpr::Column(c), LAYOUTS[c])
}

/// A column of `layout`, or of any layout.
fn col_of(rng: &mut StdRng, layout: Layout) -> BExpr {
    let of: Vec<usize> = (0..LAYOUTS.len())
        .filter(|&c| LAYOUTS[c] == layout)
        .collect();
    match of.is_empty() || rng.random_bool(0.15) {
        true => col(rng).0,
        false => BExpr::Column(of[rng.random_range(0..of.len())]),
    }
}

/// A literal, mostly of `layout` so the typed kernels run, sometimes NULL
/// or of another layout.
fn lit(rng: &mut StdRng, layout: Layout) -> BExpr {
    BExpr::Literal(match rng.random_range(0..10) {
        0 => Value::Null,
        1 => {
            let any = LAYOUTS[rng.random_range(0..LAYOUTS.len())];
            value(rng, any)
        }
        2 if layout == Layout::Int => Value::Float(float(rng)),
        2 if layout == Layout::Float => Value::Int(int(rng)),
        _ => value(rng, layout),
    })
}

/// Arithmetic over numeric columns that fails on a zero divisor or a TEXT
/// operand (of the `Mixed` column, or a TEXT literal).
fn arith(rng: &mut StdRng) -> BExpr {
    let numeric = [0, 1, 2, 3, 11];
    let operand = |rng: &mut StdRng| match rng.random_range(0..6) {
        0 => lit(rng, Layout::Int),
        1 => lit(rng, Layout::Float),
        2 => BExpr::Literal(Value::from("x")),
        _ => BExpr::Column(numeric[rng.random_range(0..numeric.len())]),
    };
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod][rng.random_range(0..5)];
    let (l, r) = (operand(rng), operand(rng));
    bin(op, l, r)
}

const CMP: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Neq,
    BinOp::Lt,
    BinOp::Lte,
    BinOp::Gt,
    BinOp::Gte,
];

fn comparison(rng: &mut StdRng) -> BExpr {
    let op = CMP[rng.random_range(0..CMP.len())];
    let (c, layout) = col(rng);
    match rng.random_range(0..7) {
        0 | 1 => bin(op, c, lit(rng, layout)),
        2 | 3 => bin(op, lit(rng, layout), c),
        4 => {
            // a partner of the same layout, `Int` with `Float`, or any
            let partner = match (layout, rng.random_range(0..3)) {
                (Layout::Int, 0) => Layout::Float,
                (Layout::Float, 0) => Layout::Int,
                _ => layout,
            };
            bin(op, c, col_of(rng, partner))
        }
        5 => bin(op, col(rng).0, col(rng).0),
        _ => bin(op, arith(rng), lit(rng, Layout::Int)),
    }
}

fn predicate(rng: &mut StdRng, depth: u32) -> BExpr {
    let leaf = depth == 0 || rng.random_bool(0.35);
    let pick = if leaf {
        rng.random_range(0..7)
    } else {
        rng.random_range(0..13)
    };
    match pick {
        0..=2 => comparison(rng),
        // a bare column: its truth (a number is TRUE when non-zero)
        6 => col(rng).0,
        3 => {
            let (c, layout) = col(rng);
            let list = (0..rng.random_range(1..4))
                .map(|_| match rng.random_range(0..4) {
                    0 => col_of(rng, layout),
                    1 => arith(rng),
                    _ => lit(rng, layout),
                })
                .collect();
            BExpr::InList {
                expr: Box::new(c),
                list,
                negated: rng.random_bool(0.3),
            }
        }
        4 => {
            let (c, layout) = col(rng);
            BExpr::Between {
                expr: Box::new(c),
                lo: Box::new(lit(rng, layout)),
                hi: Box::new(lit(rng, layout)),
                negated: rng.random_bool(0.3),
            }
        }
        5 => {
            // TEXT columns mostly; any other non-NULL cell is a type error
            let subject = match rng.random_bool(0.8) {
                true => col_of(rng, Layout::Text),
                false => col(rng).0,
            };
            bin(BinOp::Like, subject, BExpr::Literal(Value::Text(text(rng))))
        }
        7 | 8 => bin(
            BinOp::And,
            predicate(rng, depth - 1),
            predicate(rng, depth - 1),
        ),
        9 | 10 => bin(
            BinOp::Or,
            predicate(rng, depth - 1),
            predicate(rng, depth - 1),
        ),
        11 => match rng.random_range(0..3) {
            0 => BExpr::IsNull {
                expr: Box::new(match rng.random_bool(0.5) {
                    true => predicate(rng, depth - 1),
                    false => arith(rng),
                }),
                negated: rng.random_bool(0.5),
            },
            _ => BExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(predicate(rng, depth - 1)),
            },
        },
        _ => BExpr::Case {
            branches: (0..rng.random_range(1..3))
                .map(|_| (predicate(rng, depth - 1), predicate(rng, depth - 1)))
                .collect(),
            else_expr: rng
                .random_bool(0.7)
                .then(|| Box::new(predicate(rng, depth - 1))),
        },
    }
}

/// The oracle: each row evaluated alone; `None` when any row fails.
fn oracle(pred: &BExpr, batch: &Batch) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    for i in 0..batch.num_rows() {
        if truth(&pred.eval(&batch.row(i)).ok()?) == Some(true) {
            out.push(i as u32);
        }
    }
    Some(out)
}

#[test]
fn selection_equals_the_row_oracle() {
    let (mut errors, mut selected, mut empty_batches) = (0, 0, 0);
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for b in 0..BATCHES_PER_SEED {
            let batch = batch(&mut rng);
            for p in 0..PREDICATES_PER_BATCH {
                let pred = predicate(&mut rng, 3);
                let at = || format!("seed {seed}, batch {b}, predicate {p}: {pred:?}\n{batch:?}");
                let got = pred.select(&batch);
                match oracle(&pred, &batch) {
                    None => {
                        assert!(got.is_err(), "the oracle fails, select does not: {}", at());
                        errors += 1;
                    }
                    Some(expected) => {
                        let got = got.unwrap_or_else(|e| panic!("{e}: {}", at()));
                        assert_eq!(got, expected, "{}", at());
                        selected += usize::from(!got.is_empty());
                    }
                }
            }
            empty_batches += usize::from(batch.is_empty());
        }
    }
    let total = SEEDS.len() * BATCHES_PER_SEED * PREDICATES_PER_BATCH;
    assert!(errors > total / 50, "only {errors} failing predicates");
    assert!(selected > total / 4, "only {selected} non-empty selections");
    assert!(empty_batches > 0, "no empty batch");
}

/// The cases the mutations of the kernels hinge on, pinned: a NULL slot
/// whose placeholder passes, NaN against a literal, a literal on the left,
/// an AND whose right side fails only on a row where its left side
/// is NULL, and an IN list whose second item fails only on a row its first
/// item matched.
#[test]
fn pinned_kernel_edges_equal_the_row_oracle() {
    let ints = ColumnVec::new(
        ColumnData::Int(vec![5, 1, 9, 0]),
        Some(vec![true, false, false, false]),
    );
    let floats = ColumnVec::new(ColumnData::Float(vec![0.0, 1.5, -2.0, f64::NAN]), None);
    let batch = Batch::from_columns(vec![ints, floats]).unwrap();
    let c = BExpr::Column;
    let int = |v: i64| BExpr::Literal(Value::Int(v));
    let flt = |v: f64| BExpr::Literal(Value::Float(v));
    let cases = [
        (bin(BinOp::Gt, c(0), int(2)), Some(vec![2])),
        (bin(BinOp::Lt, int(2), c(0)), Some(vec![2])),
        (bin(BinOp::Gte, int(1), c(0)), Some(vec![1, 3])),
        (bin(BinOp::Eq, c(1), flt(1.5)), Some(vec![1])),
        (bin(BinOp::Eq, c(1), flt(f64::NAN)), Some(vec![3])),
        (bin(BinOp::Lt, c(1), flt(0.0)), Some(vec![2])),
        (bin(BinOp::Lt, c(1), c(0)), Some(vec![2])),
        (
            BExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(bin(BinOp::Gt, c(0), int(2))),
            },
            Some(vec![1, 3]),
        ),
        // row 0: NULL > 2 is NULL, so the AND divides by its zero float
        (
            bin(
                BinOp::And,
                bin(BinOp::Gt, c(0), int(2)),
                bin(BinOp::Gt, bin(BinOp::Div, int(1), c(1)), int(0)),
            ),
            None,
        ),
        // x IN (0, 1 / x): row 3 is 0, matched before 1 / x divides by it
        (
            BExpr::InList {
                expr: Box::new(c(0)),
                list: vec![int(0), bin(BinOp::Div, int(1), c(0))],
                negated: false,
            },
            Some(vec![1, 3]),
        ),
    ];
    for (pred, expected) in cases {
        assert_eq!(oracle(&pred, &batch), expected, "oracle of {pred:?}");
        assert_eq!(pred.select(&batch).ok(), expected, "{pred:?}");
    }
}
