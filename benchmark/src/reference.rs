//! A reference evaluator, written apart from the engine.
//!
//! It recomputes what each subscription must receive from the generated
//! source tuples alone: comparison filters, projections, and tuple or time
//! window aggregates recomputed naively over each closed window. Nothing
//! here calls into the DSMS operators; queries are described by
//! [`RefQuery`], built either from the generator's parameters or from the
//! plain text of a generated filter.
//!
//! Counts must match exactly. Floating-point results match within
//! [`REL_TOLERANCE`], so an engine that reorders summation (incremental
//! aggregation, for instance) still passes.

use exacml_dsms::{Schema, Tuple, Value};
use std::collections::VecDeque;

/// Relative tolerance for floating-point aggregate values.
pub const REL_TOLERANCE: f64 = 1e-9;

/// A comparison operator of a generated filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn holds(self, x: f64, literal: f64) -> bool {
        match self {
            Cmp::Lt => x < literal,
            Cmp::Le => x <= literal,
            Cmp::Gt => x > literal,
            Cmp::Ge => x >= literal,
        }
    }

    /// The operator's text in a filter condition.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }
}

/// One `attribute <op> number` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    pub attr: String,
    pub cmp: Cmp,
    pub literal: f64,
}

impl Cond {
    #[must_use]
    pub fn new(attr: &str, cmp: Cmp, literal: f64) -> Self {
        Cond { attr: attr.to_string(), cmp, literal }
    }

    /// Parse the `attribute <op> number` text the workload generator writes.
    #[must_use]
    pub fn parse(text: &str) -> Option<Cond> {
        let mut parts = text.split_whitespace();
        let attr = parts.next()?;
        let cmp = match parts.next()? {
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            _ => return None,
        };
        let literal = parts.next()?.parse().ok()?;
        parts.next().is_none().then(|| Cond::new(attr, cmp, literal))
    }

    /// The condition as filter text.
    #[must_use]
    pub fn text(&self) -> String {
        format!("{} {} {}", self.attr, self.cmp.symbol(), self.literal)
    }
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Avg,
    Max,
    Min,
    Count,
    Sum,
    Last,
    First,
    Stddev,
}

impl Func {
    /// Output-column prefix, as the paper's Figure 4(b) names columns.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Func::Avg => "avg",
            Func::Max => "max",
            Func::Min => "min",
            Func::Count => "count",
            Func::Sum => "sum",
            Func::Last => "lastval",
            Func::First => "firstval",
            Func::Stddev => "stddev",
        }
    }

    /// Map from the keyword.
    #[must_use]
    pub fn from_keyword(keyword: &str) -> Option<Func> {
        [
            Func::Avg,
            Func::Max,
            Func::Min,
            Func::Count,
            Func::Sum,
            Func::Last,
            Func::First,
            Func::Stddev,
        ]
        .into_iter()
        .find(|f| f.keyword() == keyword)
    }

    fn compute(self, column: &[&Value]) -> Value {
        let nums: Vec<f64> = column.iter().filter_map(|v| number(v)).collect();
        match self {
            Func::Count => Value::Int(column.len() as i64),
            Func::Last => column.last().map_or(Value::Null, |v| (*v).clone()),
            Func::First => column.first().map_or(Value::Null, |v| (*v).clone()),
            Func::Sum => Value::Double(nums.iter().sum()),
            Func::Avg if nums.is_empty() => Value::Null,
            Func::Avg => Value::Double(nums.iter().sum::<f64>() / nums.len() as f64),
            Func::Stddev if nums.is_empty() => Value::Null,
            Func::Stddev => {
                let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                let var =
                    nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nums.len() as f64;
                Value::Double(var.sqrt())
            }
            Func::Max | Func::Min => {
                let mut best: Option<&Value> = None;
                for v in column {
                    let Some(x) = number(v) else { continue };
                    let better = match best.and_then(number) {
                        None => true,
                        Some(b) if self == Func::Max => x > b,
                        Some(b) => x < b,
                    };
                    if better {
                        best = Some(v);
                    }
                }
                best.or(column.first().copied()).map_or(Value::Null, Clone::clone)
            }
        }
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) | Value::Timestamp(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// A sliding window over the tuples that pass the filter.
#[derive(Debug, Clone, PartialEq)]
pub struct RefWindow {
    /// Time-based (sizes in timestamp milliseconds) or tuple-based.
    pub time: bool,
    pub size: u64,
    pub advance: u64,
    /// `(attribute, function)` per output column.
    pub specs: Vec<(String, Func)>,
}

/// What one subscription computes, stated without the engine's types.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefQuery {
    /// All must hold (policy and user conditions together).
    pub conds: Vec<Cond>,
    /// Projected attributes in output order; `None` keeps every column.
    pub project: Option<Vec<String>>,
    pub window: Option<RefWindow>,
}

impl RefQuery {
    /// The output column names on a stream with `schema`.
    #[must_use]
    pub fn output_fields(&self, schema: &Schema) -> Vec<String> {
        if let Some(w) = &self.window {
            return w.specs.iter().map(|(a, f)| format!("{}{a}", f.keyword())).collect();
        }
        match &self.project {
            Some(attrs) => attrs.clone(),
            None => schema.fields().iter().map(|f| f.name.clone()).collect(),
        }
    }
}

/// Streaming reference state of one subscription.
#[derive(Debug, Clone)]
pub struct RefState {
    query: RefQuery,
    /// Passing rows (already projected), with their event time.
    rows: VecDeque<(i64, Vec<Value>)>,
    /// Rows that passed the filter so far.
    passed: u64,
    /// Start of the open time window.
    window_start: Option<i64>,
    /// Source schema positions of the projected columns.
    columns: Vec<usize>,
    /// Positions of the window attributes within a projected row.
    window_columns: Vec<usize>,
    conds: Vec<(usize, Cmp, f64)>,
    ts_index: usize,
}

impl RefState {
    /// Fresh state for a subscription on a stream with `schema`.
    ///
    /// # Panics
    /// When the query names an attribute the schema lacks (a benchmark bug).
    #[must_use]
    pub fn new(query: RefQuery, schema: &Schema) -> Self {
        let index = |name: &str| {
            schema
                .fields()
                .iter()
                .position(|f| f.name.eq_ignore_ascii_case(name))
                .unwrap_or_else(|| panic!("attribute {name} not in the stream schema"))
        };
        let names: Vec<String> = match &query.project {
            Some(attrs) => attrs.clone(),
            None => schema.fields().iter().map(|f| f.name.clone()).collect(),
        };
        let columns = names.iter().map(|n| index(n)).collect();
        let window_columns = query.window.as_ref().map_or_else(Vec::new, |w| {
            w.specs
                .iter()
                .map(|(attr, _)| {
                    names
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(attr))
                        .expect("window attributes survive the projection")
                })
                .collect()
        });
        let conds = query.conds.iter().map(|c| (index(&c.attr), c.cmp, c.literal)).collect();
        RefState {
            query,
            rows: VecDeque::new(),
            passed: 0,
            window_start: None,
            columns,
            window_columns,
            conds,
            ts_index: index("samplingtime"),
        }
    }

    /// Feed one source tuple; append every output row it produces.
    pub fn feed(&mut self, tuple: &Tuple, out: &mut Vec<Vec<Value>>) {
        let values = tuple.values();
        let passes = self
            .conds
            .iter()
            .all(|&(i, cmp, literal)| number(&values[i]).is_some_and(|x| cmp.holds(x, literal)));
        if !passes {
            return;
        }
        let row: Vec<Value> = self.columns.iter().map(|&i| values[i].clone()).collect();
        let ts = number(&values[self.ts_index]).map_or(i64::MIN, |t| t as i64);
        let Some(window) = &self.query.window else {
            out.push(row);
            return;
        };
        self.passed += 1;
        if window.time {
            let size = window.size as i64;
            let advance = window.advance as i64;
            let mut start = *self.window_start.get_or_insert(ts);
            while ts >= start + size {
                let members: Vec<&Vec<Value>> = self
                    .rows
                    .iter()
                    .filter(|(t, _)| *t >= start && *t < start + size)
                    .map(|(_, r)| r)
                    .collect();
                out.push(self.aggregate(window, &members));
                start += advance;
            }
            self.window_start = Some(start);
            self.rows.retain(|(t, _)| *t >= start);
            self.rows.push_back((ts, row));
        } else {
            self.rows.push_back((ts, row));
            if self.rows.len() as u64 > window.size {
                self.rows.pop_front();
            }
            if self.passed >= window.size
                && (self.passed - window.size).is_multiple_of(window.advance)
            {
                let members: Vec<&Vec<Value>> = self.rows.iter().map(|(_, r)| r).collect();
                out.push(self.aggregate(window, &members));
            }
        }
    }

    fn aggregate(&self, window: &RefWindow, members: &[&Vec<Value>]) -> Vec<Value> {
        window
            .specs
            .iter()
            .zip(&self.window_columns)
            .map(|((_, func), &col)| {
                let column: Vec<&Value> = members.iter().map(|r| &r[col]).collect();
                func.compute(&column)
            })
            .collect()
    }
}

/// Whether two values agree: exact for everything but doubles, which agree
/// within [`REL_TOLERANCE`] of the larger magnitude (absolute near zero).
#[must_use]
pub fn values_agree(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Double(a), Value::Double(b)) => {
            (a - b).abs() <= REL_TOLERANCE * a.abs().max(b.abs()).max(1.0)
        }
        _ => got == want,
    }
}

/// Compare delivered tuples with the expected rows; `Err` describes the
/// first difference.
///
/// # Errors
/// On a count mismatch or the first disagreeing value.
pub fn compare(delivered: &[Tuple], expected: &[Vec<Value>]) -> Result<(), String> {
    if delivered.len() != expected.len() {
        return Err(format!("delivered {} tuples, expected {}", delivered.len(), expected.len()));
    }
    for (i, (tuple, row)) in delivered.iter().zip(expected).enumerate() {
        let values = tuple.values();
        if values.len() != row.len() {
            return Err(format!("tuple {i} has {} columns, expected {}", values.len(), row.len()));
        }
        for (j, (got, want)) in values.iter().zip(row).enumerate() {
            if !values_agree(got, want) {
                return Err(format!("tuple {i} column {j}: got {got:?}, expected {want:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::DataType;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("samplingtime", DataType::Timestamp),
            ("a", DataType::Double),
            ("b", DataType::Int),
        ])
        .shared()
    }

    fn tuple(schema: &Arc<Schema>, ts: i64, a: f64, b: i64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", Value::Timestamp(ts))
            .set("a", a)
            .set("b", b)
            .finish()
            .unwrap()
    }

    fn run(query: RefQuery, rows: &[(i64, f64, i64)]) -> Vec<Vec<Value>> {
        let schema = schema();
        let mut state = RefState::new(query, &schema);
        let mut out = Vec::new();
        for &(ts, a, b) in rows {
            state.feed(&tuple(&schema, ts, a, b), &mut out);
        }
        out
    }

    #[test]
    fn conditions_parse_from_generator_text() {
        assert_eq!(Cond::parse("rainrate > 5"), Some(Cond::new("rainrate", Cmp::Gt, 5.0)));
        assert_eq!(Cond::parse("speed <= 57"), Some(Cond::new("speed", Cmp::Le, 57.0)));
        assert_eq!(Cond::parse("a = 1"), None);
        assert_eq!(Cond::parse("a > 1 AND b < 2"), None);
        assert_eq!(Cond::parse("a > 1").unwrap().text(), "a > 1");
    }

    #[test]
    fn filter_and_projection() {
        let query = RefQuery {
            conds: vec![Cond::new("a", Cmp::Gt, 2.0), Cond::new("b", Cmp::Le, 5.0)],
            project: Some(vec!["b".into(), "samplingtime".into()]),
            window: None,
        };
        let out = run(query, &[(0, 1.0, 1), (1, 3.0, 5), (2, 4.0, 6), (3, 9.0, 0)]);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(5), Value::Timestamp(1)],
                vec![Value::Int(0), Value::Timestamp(3)]
            ]
        );
    }

    #[test]
    fn tuple_window_size_three_advance_two() {
        // Windows close after rows 3, 5 and 7: {1,2,3}, {3,4,5}, {5,6,7}.
        let query = RefQuery {
            window: Some(RefWindow {
                time: false,
                size: 3,
                advance: 2,
                specs: vec![
                    ("a".into(), Func::Sum),
                    ("a".into(), Func::Avg),
                    ("b".into(), Func::Max),
                    ("b".into(), Func::Min),
                    ("a".into(), Func::Count),
                    ("samplingtime".into(), Func::Last),
                    ("a".into(), Func::First),
                ],
            }),
            ..RefQuery::default()
        };
        let rows: Vec<(i64, f64, i64)> = (1..=8).map(|i| (i * 10, i as f64, 10 - i)).collect();
        let out = run(query, &rows);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            vec![
                Value::Double(6.0),
                Value::Double(2.0),
                Value::Int(9),
                Value::Int(7),
                Value::Int(3),
                Value::Timestamp(30),
                Value::Double(1.0),
            ]
        );
        assert_eq!(out[1][0], Value::Double(12.0));
        assert_eq!(out[2][0], Value::Double(18.0));
        assert_eq!(out[2][5], Value::Timestamp(70));
    }

    #[test]
    fn tuple_window_counts_only_rows_that_pass_the_filter() {
        let query = RefQuery {
            conds: vec![Cond::new("a", Cmp::Ge, 0.0)],
            window: Some(RefWindow {
                time: false,
                size: 2,
                advance: 1,
                specs: vec![("a".into(), Func::Sum)],
            }),
            ..RefQuery::default()
        };
        let out = run(query, &[(0, 1.0, 0), (1, -5.0, 0), (2, 2.0, 0), (3, 4.0, 0)]);
        assert_eq!(out, vec![vec![Value::Double(3.0)], vec![Value::Double(6.0)]]);
    }

    #[test]
    fn time_window_closes_on_the_first_tuple_past_its_end() {
        // size 30, advance 20, first tuple at t=0: windows [0,30) close at
        // t=30, [20,50) at t=50; a tuple at t=95 closes [40,70) and [60,90).
        let query = RefQuery {
            window: Some(RefWindow {
                time: true,
                size: 30,
                advance: 20,
                specs: vec![("a".into(), Func::Sum), ("a".into(), Func::Count)],
            }),
            ..RefQuery::default()
        };
        let rows =
            [(0, 1.0, 0), (10, 2.0, 0), (20, 4.0, 0), (30, 8.0, 0), (50, 16.0, 0), (95, 32.0, 0)];
        let out = run(query, &rows);
        assert_eq!(
            out,
            vec![
                vec![Value::Double(7.0), Value::Int(3)],
                vec![Value::Double(12.0), Value::Int(2)],
                vec![Value::Double(16.0), Value::Int(1)],
                vec![Value::Double(0.0), Value::Int(0)],
            ]
        );
    }

    #[test]
    fn empty_windows_and_stddev() {
        assert_eq!(Func::Avg.compute(&[]), Value::Null);
        assert_eq!(Func::Max.compute(&[]), Value::Null);
        assert_eq!(Func::Sum.compute(&[]), Value::Double(0.0));
        let vals = [Value::Double(2.0), Value::Double(4.0), Value::Double(4.0), Value::Double(6.0)];
        let refs: Vec<&Value> = vals.iter().collect();
        assert_eq!(Func::Stddev.compute(&refs), Value::Double(2f64.sqrt()));
    }

    #[test]
    fn output_fields_follow_the_paper_naming() {
        let query = RefQuery {
            window: Some(RefWindow {
                time: false,
                size: 2,
                advance: 1,
                specs: vec![("samplingtime".into(), Func::Last), ("a".into(), Func::Avg)],
            }),
            ..RefQuery::default()
        };
        assert_eq!(query.output_fields(&schema()), vec!["lastvalsamplingtime", "avga"]);
        assert_eq!(RefQuery::default().output_fields(&schema()), vec!["samplingtime", "a", "b"]);
    }

    #[test]
    fn doubles_agree_within_tolerance_and_counts_exactly() {
        assert!(values_agree(&Value::Double(1.0 + 1e-12), &Value::Double(1.0)));
        assert!(!values_agree(&Value::Double(1.0 + 1e-6), &Value::Double(1.0)));
        assert!(!values_agree(&Value::Int(3), &Value::Int(4)));
        let schema = schema();
        let delivered = vec![tuple(&schema, 0, 1.0, 2)];
        let row = vec![Value::Timestamp(0), Value::Double(1.0), Value::Int(2)];
        assert!(compare(&delivered, std::slice::from_ref(&row)).is_ok());
        assert!(compare(&delivered, &[row.clone(), row]).is_err());
    }
}
